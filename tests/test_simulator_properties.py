"""Property tests: the emulator and the sampled simulator reduce to the expectation run."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from staleness_lab.charpoly import OptimizerSpec
from staleness_lab.dynamics import QuadraticProblem, SimConfig, simulate_expectation, simulate_sgd
from staleness_lab.pssim import RoundRobin, run_ps


@st.composite
def optimizers(draw, tau):
    variant = draw(st.sampled_from(("plain", "momentum", "shifted")))
    m = 0.0 if variant == "plain" else draw(st.floats(0.0, 0.99))
    # from far below to well past the plain threshold, about 1.5 / (tau + 1)
    eta = draw(st.floats(0.01, 4.0)) / (tau + 1)
    return OptimizerSpec(variant, eta, m)


@st.composite
def problems(draw, max_d):
    d = draw(st.integers(1, max_d))
    seed = draw(st.integers(0, 2**16))
    g = np.random.default_rng(seed).standard_normal((d, d))
    return QuadraticProblem(g @ g.T / d + 0.1 * np.eye(d))


def _outcome(v):
    return (v.status, v.escape_step, v.amplification, v.steps, v.states.tobytes())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), workers=st.integers(1, 33))
def test_round_robin_is_the_constant_delay_run(data, workers):
    problem = data.draw(problems(max_d=3))
    opt = data.draw(optimizers(workers - 1))
    steps = data.draw(st.integers(workers, 3000))
    run = run_ps(problem, RoundRobin(workers), opt, steps, record_states=True)
    ref = simulate_expectation(problem, SimConfig(
        opt, workers - 1, max_steps=steps, record_trace=True, record_states=True))
    assert _outcome(run.verdict) == _outcome(ref)
    assert run.norms == tuple(n for _, n in ref.trace)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tau=st.integers(0, 20), copies=st.integers(1, 4))
def test_sgd_with_equal_components_is_the_expectation_run(data, tau, copies):
    base = data.draw(problems(max_d=4))
    h = base.hessian
    problem = QuadraticProblem(h, components=[h] * copies)
    cfg = SimConfig(data.draw(optimizers(tau)), tau, max_steps=data.draw(st.integers(1, 3000)),
                    record_trace=True, record_every=data.draw(st.integers(1, 9)),
                    record_states=True)
    got = simulate_sgd(problem, cfg, seed=data.draw(st.integers(0, 100)))
    want = simulate_expectation(problem, cfg)
    assert _outcome(got) == _outcome(want)
    assert got.trace == want.trace
