"""The one trajectory search, as the simulators and the server run it."""

import pytest

from staleness_lab import dynamics
from staleness_lab.charpoly import OptimizerSpec
from staleness_lab.dynamics import QuadraticProblem, empirical_threshold
from staleness_lab.pssim import RoundRobin, ps_empirical_threshold, run_ps

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
