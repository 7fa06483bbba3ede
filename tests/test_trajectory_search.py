"""The one trajectory search, as the simulators and the server run it."""

import math

import pytest

from staleness_lab import dynamics, stability
from staleness_lab.charpoly import OptimizerSpec, pmf_uniform
from staleness_lab.dynamics import (
    BLOWUP_FACTOR,
    DECAY_FACTOR,
    QuadraticProblem,
    empirical_threshold,
)
from staleness_lab.errors import NoConvergence, NoThreshold, UndecidedAtProbe
from staleness_lab.pssim import RoundRobin, SampledDelay, ps_empirical_threshold, run_ps
from staleness_lab.stability import numeric_threshold

PROBLEM = QuadraticProblem([[1.0]])
OPT = OptimizerSpec("plain", 0.1)
SEARCH = dict(rel_tol=0.05, probe_steps=100_000)
WORKER_RULE = "need at least one step per worker"


@pytest.mark.parametrize("workers, steps", [(2, 1), (5, 4), (17, 3)])
def test_run_ps_needs_a_step_per_worker_before_any_run(no_run, workers, steps):
    with pytest.raises(ValueError, match=WORKER_RULE):
        run_ps(PROBLEM, RoundRobin(workers), OPT, steps)


@pytest.mark.parametrize("workers, probe_steps", [(2, 1), (5, 4), (17, 3)])
def test_server_search_needs_a_probe_step_per_worker_before_any_run(no_run, workers,
                                                                    probe_steps):
    with pytest.raises(ValueError, match=WORKER_RULE):
        ps_empirical_threshold(PROBLEM, RoundRobin(workers), "plain", probe_steps=probe_steps)


def test_one_worker_runs_a_single_step():
    run = run_ps(PROBLEM, RoundRobin(1), OPT, 1)
    assert run.steps == 1 and run.applied_delays == (0,)


@pytest.mark.parametrize("variant, m", [("plain", 0.0), ("momentum", 0.5), ("shifted", 0.5)])
@pytest.mark.parametrize("workers", [1, 2, 5, 17])
def test_round_robin_search_is_the_constant_delay_search(monkeypatch, workers, variant, m):
    starts = []
    start = dynamics._run

    def counted(*args, **kwargs):
        (config,) = args[1]
        starts.append(config.optimizer.eta)
        return start(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_run", counted)
    want = empirical_threshold(PROBLEM, variant, workers - 1, m, **SEARCH)
    simulator_starts, starts[:] = list(starts), []
    got = ps_empirical_threshold(PROBLEM, RoundRobin(workers), variant, m, **SEARCH)
    assert (got.bracket, got.eta_star) == (want.bracket, want.eta_star)
    assert got.delay == want.delay
    assert starts == simulator_starts and len(starts) > 5


def _probed(search, first_probe=stability.FIRST_PROBE):
    """The etas ``search()`` probes, in order, and its outcome: the bracket
    and ``eta_star``, or the exception's type and message.  A
    ``first_probe`` of 1.0 gives the full scan up from the grid's start.
    Every probe must run at the library's verdict lines."""
    etas, start = [], dynamics._run

    def counted(problem, configs, *args):
        for config in configs:
            assert (config.blowup_factor, config.decay_factor) == (BLOWUP_FACTOR, DECAY_FACTOR)
            etas.append(config.optimizer.eta)
        return start(problem, configs, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_run", counted)
        patch.setattr(stability, "FIRST_PROBE", first_probe)
        try:
            result = search()
            return etas, (result.bracket, result.eta_star)
        except (ValueError, NoThreshold, UndecidedAtProbe) as exc:
            return etas, (type(exc), str(exc))


def _trajectory(a, variant, delay, m=0.0, probe_steps=100_000):
    problem = QuadraticProblem([[a]])
    if isinstance(delay, SampledDelay):
        return lambda: ps_empirical_threshold(problem, delay, variant, m, rel_tol=0.05,
                                              probe_steps=probe_steps)
    return lambda: empirical_threshold(problem, variant, delay, m, rel_tol=0.05,
                                       probe_steps=probe_steps)


# plain, momentum and shifted up to m 0.99, constant, pmf and sampled
# delays, budgets that put the first probe past the edge (the fallback
# scan) or leave it undecided, and curvatures whose grid overflows to inf
CORPUS = [
    (1.0, "plain", 0), (1.0, "plain", 1), (1.0, "plain", 4), (1.0, "plain", 16),
    (1.0, "plain", 64), (2.0, "plain", 4), (1e300, "plain", 16), (5e-311, "plain", 16),
    (1e-309, "plain", 4), (1.0, "momentum", 16, 0.5), (1.0, "momentum", 4, 0.99),
    (1.0, "shifted", 16, 0.5), (1.0, "shifted", 1, 0.99), (1.0, "plain", pmf_uniform(1, 8)),
    (1.0, "momentum", pmf_uniform(1, 8), 0.9), (1.0, "plain", SampledDelay(pmf_uniform(1, 6), 3)),
    (1.0, "plain", 16, 0.0, 10_000), (1.0, "plain", 64, 0.0, 2_000),
    (1.0, "momentum", 16, 0.99, 5_000), (1.0, "shifted", 4, 0.9, 2_000),
    (1.0, "plain", 0, 0.0, 2), (1.0, "plain", 0, 0.0, 1), (1.0, "plain", 0, 0.0, 40),
]


@pytest.mark.parametrize("case", CORPUS, ids=repr)
def test_first_probe_keeps_the_full_scans_result(case):
    search = _trajectory(*case)
    assert _probed(search)[1] == _probed(search, 1.0)[1]


@pytest.mark.parametrize("a", [5e-311, 1e-309, 1.0, 1e300])
@pytest.mark.parametrize("variant, delay, m", [
    ("plain", 0, 0.0), ("plain", 64, 0.0), ("momentum", 16, 0.99), ("shifted", 4, 0.9),
    ("plain", pmf_uniform(1, 64), 0.0),
])
def test_certificate_keeps_the_full_scans_bracket(monkeypatch, a, variant, delay, m):
    def outcome():
        try:
            result = numeric_threshold(variant, a, delay, m, rel_tol=0.05)
            return result.bracket, result.eta_star
        # at the tiniest curvatures the bracket's unstable end is inf, and
        # the certificate warns (an error under this suite) or fails
        except (RuntimeWarning, ValueError, NoThreshold, NoConvergence) as exc:
            return type(exc), str(exc)

    want = outcome()
    monkeypatch.setattr(stability, "FIRST_PROBE", 1.0)
    assert outcome() == want


def test_a_stable_first_probe_skips_the_three_below_it():
    # at 100,000-step probes the grid starts at eta*a = 0.0014; the first
    # probe, 0.011, converges below the tau-16 edge at 0.095
    search = _trajectory(1.0, "plain", 16)
    etas, outcome = _probed(search)
    full, full_outcome = _probed(search, 1.0)
    start = 10.0 * math.log(1e6) / 100_000
    assert full[:4] == [start, 2 * start, 4 * start, 8 * start]
    assert etas == full[3:]
    assert outcome == full_outcome


def test_an_unstable_first_probe_falls_back_to_the_full_scan():
    # at 10,000-step probes the first probe, eta*a = 0.11, lies past the
    # tau-16 edge at 0.095: the scan from the start stops short of it
    search = _trajectory(1.0, "plain", 16, probe_steps=10_000)
    etas, (bracket, _) = _probed(search)
    full, (full_bracket, _) = _probed(search, 1.0)
    assert etas[0] == full[3] == pytest.approx(0.11, rel=0.01)
    assert etas == [full[3]] + full[:3] + full[4:]
    assert bracket == full_bracket == (0.09325469626625885, 0.09670857390574991)
