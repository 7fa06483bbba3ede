"""The batched simulator against the one-run-at-a-time loop, bit for bit.

``dynamics._simulate_many`` steps the 1-D plain and shifted runs that share
an update, a constant delay of at least ``LOCKSTEP_MIN_TAU``, a step budget,
verdict lines and a start as the columns of one array, started by ``_run``
as one group, and runs every other config through ``simulate_expectation``.
Either way each verdict must be the one ``simulate_expectation`` gives the
config alone, every field and every bit of the amplification, in input
order.  A run's start is the one
``_run`` gives it, so a 1-D ``random_unit`` run that starts at 1.0 steps in
the group of the top-eigenvector runs.
"""

import struct

import pytest

from staleness_lab import dynamics
from staleness_lab.charpoly import DelayModel, OptimizerSpec, pmf_uniform
from staleness_lab.dynamics import QuadraticProblem, SimConfig, simulate_expectation
from staleness_lab.stability import numeric_threshold

FRACS = (0.3, 0.5, 0.8, 0.95, 0.99, 1.01, 1.05, 1.5, 3.0)
# a budget that leaves the runs nearest the edge undecided, and is no
# multiple of a span or a block
STEPS = 20_011


def _fields(verdict):
    return (verdict.status, verdict.escape_step, struct.pack("<d", verdict.amplification),
            verdict.steps, verdict.trace, verdict.clipped_delays,
            None if verdict.states is None else verdict.states.tobytes())


def _assert_same(got, configs, problem):
    assert [_fields(v) for v in got] == [_fields(simulate_expectation(problem, c))
                                        for c in configs]


@pytest.fixture
def lockstep_calls(monkeypatch):
    """The widths above 1 that ``_run`` is given: the groups stepped as columns."""
    sizes = []
    run = dynamics._run

    def recorded(problem, configs, *args, **kwargs):
        if len(configs) > 1:
            sizes.append(len(configs))
        return run(problem, configs, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_run", recorded)
    return sizes


def _grid(variant, tau, ms, a=1.0, steps=STEPS):
    configs = []
    for m in ms:
        edge = numeric_threshold(variant, a, DelayModel.constant(tau), m=m).eta_star
        configs += [SimConfig(OptimizerSpec(variant, frac * edge, m), tau, steps)
                    for frac in FRACS]
    return configs


@pytest.mark.parametrize("tau", [16, 32, 64])
@pytest.mark.parametrize("variant, ms", [("plain", (0.0,)), ("shifted", (0.3, 0.6, 0.9))])
def test_lockstepped_group_matches_the_loop(lockstep_calls, variant, ms, tau):
    problem = QuadraticProblem([[1.0]])
    configs = _grid(variant, tau, ms)
    got = dynamics._simulate_many(problem, configs)
    assert lockstep_calls == [len(configs)]
    _assert_same(got, configs, problem)
    statuses = {v.status for v in got}
    assert statuses == {dynamics.CONVERGED, dynamics.DIVERGED, dynamics.UNDECIDED}


def test_curvature_other_than_one(lockstep_calls):
    problem = QuadraticProblem([[2.5]])
    configs = _grid("shifted", 20, (0.6,), a=2.5)
    _assert_same(dynamics._simulate_many(problem, configs), configs, problem)
    assert lockstep_calls == [len(configs)]


def test_mixed_call_returns_every_verdict_in_input_order(lockstep_calls):
    problem = QuadraticProblem([[1.0]])
    plain, shifted = _grid("plain", 32, (0.0,)), _grid("shifted", 16, (0.3, 0.9))
    edge = numeric_threshold("momentum", 1.0, DelayModel.constant(20), m=0.5).eta_star
    momentum = OptimizerSpec("momentum", 0.9 * edge, 0.5)
    opt = plain[4].optimizer
    fallback = [
        SimConfig(momentum, 20, STEPS),  # momentum steps on its own
        SimConfig(OptimizerSpec("plain", 0.05, 0.0), pmf_uniform(16, 24), STEPS),  # a pmf
        SimConfig(OptimizerSpec("plain", 0.2, 0.0), 3, STEPS),  # a delay below the group rule
        SimConfig(opt, 32, STEPS, record_trace=True, record_every=7),
        SimConfig(opt, 32, STEPS, record_states=True),
        SimConfig(opt, 32, STEPS, init="random_unit", seed=5),  # starts at -1.0, alone
        SimConfig(opt, 32, STEPS, init="random_unit", seed=0),  # starts at 1.0: joins plain
        SimConfig(opt, 32, STEPS - 1),  # alone in its step budget
        SimConfig(opt, 32, STEPS, blowup_factor=1e3),  # alone at its verdict lines
    ]
    configs = []
    for i in range(max(len(plain), len(shifted), len(fallback))):
        for part in (shifted, fallback, plain):
            configs += part[i:i + 1]
    got = dynamics._simulate_many(problem, configs)
    assert sorted(lockstep_calls) == sorted([len(plain) + 1, len(shifted)])
    _assert_same(got, configs, problem)


def test_dimension_above_one_runs_every_config_alone(lockstep_calls):
    problem = QuadraticProblem.diagonal([1.0, 0.5, 0.1])
    configs = _grid("shifted", 16, (0.6,), steps=3_001)
    _assert_same(dynamics._simulate_many(problem, configs), configs, problem)
    assert lockstep_calls == []


def test_a_lone_run_steps_alone(lockstep_calls):
    problem = QuadraticProblem([[1.0]])
    configs = _grid("plain", 64, (0.0,))[:1]
    _assert_same(dynamics._simulate_many(problem, configs), configs, problem)
    assert lockstep_calls == []


def test_a_group_starts_at_run(no_run):
    # every run starts at _run, the runs stepped as columns too
    problem = QuadraticProblem([[1.0]])
    configs = [SimConfig(OptimizerSpec("plain", eta), 16, STEPS) for eta in (0.01, 0.02)]
    with pytest.raises(TypeError):
        dynamics._simulate_many(problem, configs)
