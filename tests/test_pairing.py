"""One pairing rule, seen from every entry point.

Plain and momentum take any delay; shifted momentum keeps a velocity per
worker, so it takes a constant delay only.  Every polynomial, simulator run
and server run checks this in one place, so each entry point either runs a
pairing or refuses it with the same message before any step.  Through the
command line a refusal is a usage error (exit 2) that prints nothing and
writes nothing.
"""

import re

import pytest

from staleness_lab.charpoly import OptimizerSpec, char_poly, pmf_uniform
from staleness_lab.cli import main
from staleness_lab.dynamics import (
    QuadraticProblem,
    SimConfig,
    empirical_threshold,
    escape_time_curve,
    simulate_expectation,
    simulate_sgd,
)
from staleness_lab.pssim import RoundRobin, SampledDelay, ps_empirical_threshold, run_ps
from staleness_lab.stability import numeric_threshold, threshold_curve

REFUSAL = "shifted momentum needs a constant delay: its velocities are per worker"

PROBLEM = QuadraticProblem([[1.0]])
SGD_PROBLEM = QuadraticProblem([[1.0]], components=[[[0.5]], [[1.5]]])
VARIANTS = {"plain": ("plain", 0.0), "momentum": ("momentum", 0.5), "shifted": ("shifted", 0.5)}
# each delay as the library, the server and the command line take it
DELAYS = {
    "constant": (3, RoundRobin(4), ["--tau", "3"], ["--workers", "4"]),
    "pmf": (pmf_uniform(1, 3), SampledDelay(pmf_uniform(1, 3)),
            ["--pmf", "uniform:1,3"], ["--pmf", "uniform:1,3"]),
}
SEARCH = dict(rel_tol=0.05, probe_steps=20_000)


def _opt(variant, m):
    return OptimizerSpec(variant, 0.1, m)


# Entry point -> call(variant, m, delay, scheduler).
LIBRARY = {
    "char_poly": lambda v, m, d, s: char_poly(_opt(v, m), 1.0, d),
    "numeric_threshold": lambda v, m, d, s: numeric_threshold(v, 1.0, d, m=m),
    "threshold_curve": lambda v, m, d, s: threshold_curve(v, 1.0, [d], m=m),
    "SimConfig": lambda v, m, d, s: SimConfig(_opt(v, m), d),
    "simulate_expectation": lambda v, m, d, s: simulate_expectation(
        PROBLEM, SimConfig(_opt(v, m), d)),
    "simulate_sgd": lambda v, m, d, s: simulate_sgd(SGD_PROBLEM, SimConfig(_opt(v, m), d)),
    "empirical_threshold": lambda v, m, d, s: empirical_threshold(PROBLEM, v, d, m, **SEARCH),
    "escape_time_curve": lambda v, m, d, s: escape_time_curve(PROBLEM, v, d, [0.1, 2.0], m),
    "run_ps": lambda v, m, d, s: run_ps(PROBLEM, s, _opt(v, m), 200),
    "ps_empirical_threshold": lambda v, m, d, s: ps_empirical_threshold(PROBLEM, s, v, m,
                                                                        **SEARCH),
}

# Command -> (argv before the delay flags, whether the server's flags name
# the delay, the --out path's name or None).
COMMANDS = {
    "threshold": (["threshold", "--a", "1"], False, "curve.csv"),
    "roots": (["roots", "--a", "1", "--eta", "0.1"], False, None),
    "simulate": (["simulate", "--a", "1", "--eta", "0.1"], False, "run"),
    "simulate --eta 0": (["simulate", "--a", "1", "--eta", "0"], False, "run"),
    "escape-curve": (["escape-curve", "--a", "1", "--etas", "0.1,2"], False, "curve.csv"),
    "ps": (["ps", "--a", "1", "--eta", "0.1"], True, "run"),
}


@pytest.mark.parametrize("delay", DELAYS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("entry", [*LIBRARY, *(f"cli {c}" for c in COMMANDS)])
def test_every_entry_point_runs_or_refuses_the_pairing(request, capsys, tmp_path, entry,
                                                       variant, delay):
    refused = variant == "shifted" and delay == "pmf"
    if refused:
        request.getfixturevalue("no_run")  # the refusal comes before any step
    v, m = VARIANTS[variant]
    value, scheduler, flags, server_flags = DELAYS[delay]
    if entry in LIBRARY:
        if refused:
            with pytest.raises(ValueError, match=re.escape(REFUSAL)):
                LIBRARY[entry](v, m, value, scheduler)
        else:
            assert LIBRARY[entry](v, m, value, scheduler) is not None
        return
    argv, server, out_name = COMMANDS[entry[len("cli "):]]
    argv = [*argv, *(server_flags if server else flags), "--variant", v, "--m", str(m)]
    if out_name:
        argv += ["--out", str(tmp_path / out_name)]
    rc = main(argv)
    out, err = capsys.readouterr()
    if refused:
        assert (rc, out, err) == (2, "", f"usage error: {REFUSAL}\n")
        assert list(tmp_path.iterdir()) == []
    else:
        assert rc == 0 and out and err == ""
        assert out_name is None or (tmp_path / out_name).exists()
