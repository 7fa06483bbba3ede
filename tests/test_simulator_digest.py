"""Frozen digests of every simulator path's outputs.

The digests were taken from the step-at-a-time loops that the block-stepped
simulators replaced.  A run's output is everything a caller can see: the
verdict (status, escape step, amplification, step count, trace, states,
clipped delays) and, for the parameter server, the per-step norms and the
applied delays.  Any change to an update expression, to the verdict step or
to what is kept past it changes a digest.
"""

import hashlib

import numpy as np
import pytest

from staleness_lab.charpoly import OptimizerSpec, pmf_discrete_gaussian, pmf_uniform
from staleness_lab.dynamics import QuadraticProblem, SimConfig, simulate_expectation, simulate_sgd
from staleness_lab.pssim import RoundRobin, SampledDelay, run_ps

VARIANTS = (("plain", 0.0), ("momentum", 0.5), ("momentum", 0.9), ("shifted", 0.5), ("shifted", 0.9))


def _verdict_fields(v):
    states = None if v.states is None else (v.states.shape, v.states.tobytes())
    return (v.status, v.escape_step, v.amplification, v.steps, v.trace, states, v.clipped_delays)


def _digest(outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
    return h.hexdigest()


def _cfg(variant, m, eta, delay, max_steps, every):
    return SimConfig(OptimizerSpec(variant, eta, m), delay, max_steps=max_steps,
                     record_trace=True, record_every=every, record_states=True)


def _scalar_runs():
    p = QuadraticProblem([[1.3]])
    for variant, m in VARIANTS:
        for tau in (0, 1, 4, 16, 70):
            for eta_a in (0.02, 0.3, 0.6, 1.2, 8.0):
                eta = eta_a / (1.3 * (tau + 1))
                for every in (1, 7):
                    yield simulate_expectation(p, _cfg(variant, m, eta, tau, 3000, every))
    for pmf in (pmf_uniform(1, 8), pmf_uniform(20, 40), pmf_discrete_gaussian(3)):
        for eta in (0.01, 0.1, 0.3, 2.0):
            for every in (1, 7):
                yield simulate_expectation(p, _cfg("plain", 0.0, eta, pmf, 3000, every))
    # a long convergence whose below-threshold run spans several blocks
    yield simulate_expectation(p, _cfg("plain", 0.0, 0.02, 300, 200_000, 7))


def _vector_problem():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    h = q @ np.diag([2.0, 1.0, 0.5, 0.1]) @ q.T
    return QuadraticProblem(0.5 * (h + h.T))


def _vector_runs():
    problems = (QuadraticProblem.diagonal([1.0, 0.4]), _vector_problem())
    for p in problems:
        for variant, m in VARIANTS:
            for tau in (0, 3):
                for eta in (0.05, 0.4, 1.5, 50.0):  # 50 diverges within a few steps
                    for every in (1, 7):
                        yield simulate_expectation(p, _cfg(variant, m, eta, tau, 600, every))
        for eta in (0.05, 0.3, 50.0):
            yield simulate_expectation(p, _cfg("plain", 0.0, eta, pmf_uniform(1, 5), 600, 7))
    cfg = SimConfig(OptimizerSpec("plain", 0.3), 2, max_steps=500, init="random_unit",
                    seed=9, record_trace=True, record_states=True)
    yield simulate_expectation(problems[1], cfg)


def _sgd_runs():
    h = np.diag([1.0, 0.4])
    noisy = QuadraticProblem(h, components=[np.diag([1.6, 0.4]), np.diag([0.4, 0.4])])
    equal = QuadraticProblem(h, components=[h, h])
    scalar = QuadraticProblem([[1.0]], components=[[[1.5]], [[0.5]]])
    for p in (noisy, equal, scalar):
        for variant, m in VARIANTS:
            for tau in (0, 3):
                for eta in (0.05, 0.4, 50.0):
                    for every in (1, 7):
                        yield simulate_sgd(p, _cfg(variant, m, eta, tau, 500, every), seed=4)
        for pmf, eta in ((pmf_uniform(1, 5), 0.1), (pmf_uniform(1, 5), 0.6),
                         (pmf_uniform(20, 40), 0.02), (pmf_uniform(20, 40), 2e5)):
            # eta 2e5 diverges before step 20, while every draw is still clipped
            yield simulate_sgd(p, _cfg("plain", 0.0, eta, pmf, 400, 7), seed=2)


def _ps_fields(run):
    return (run.steps, run.applied_delays, run.norms, _verdict_fields(run.verdict))


def _ps_runs():
    scalar = QuadraticProblem([[1.0]])
    vector = QuadraticProblem.diagonal([1.0, 0.4, 0.1])
    comps = QuadraticProblem(np.diag([1.0, 0.4]),
                             components=[np.diag([1.6, 0.4]), np.diag([0.4, 0.4])])
    for p, mode in ((scalar, "expectation"), (vector, "expectation"), (comps, "sgd")):
        for variant, m in VARIANTS:
            for workers in (1, 5):
                for eta in (0.02, 0.3, 1.0, 50.0):
                    yield run_ps(p, RoundRobin(workers), OptimizerSpec(variant, eta, m), 2000,
                                 seed=5, mode=mode, record_states=True)
        for variant, m in (("plain", 0.0), ("momentum", 0.5)):
            for pmf, eta in ((pmf_uniform(1, 8), 0.05), (pmf_uniform(1, 8), 0.4),
                             (pmf_uniform(20, 40), 0.01), (pmf_uniform(20, 40), 2e5)):
                yield run_ps(p, SampledDelay(pmf, seed=7), OptimizerSpec(variant, eta, m),
                             1500, seed=5, mode=mode, record_states=True)
    yield run_ps(vector, RoundRobin(3), OptimizerSpec("plain", 0.1), 300,
                 init="random_unit", init_seed=2, record_states=False)


FROZEN = {
    "expectation_scalar": "18d760d044bb8750b9b72bc63838f53f120e6c602ae248f6ebbdbb227eca8099",
    "expectation_vector": "7f509f2193a1593fb5e3fa58e0cd48f9bf35c80563cb747ab48731d23738f829",
    "sgd": "7075f273a7d67eeb09ef0004e3bbf482f994daee65c0ec05505cee761b76a1a5",
    "ps": "468e2bd7ce00d3d5a4f9bc333d2478d9ec0f203686193a047077bf801569b8db",
}


@pytest.mark.parametrize("name,runs,fields", [
    ("expectation_scalar", _scalar_runs, _verdict_fields),
    ("expectation_vector", _vector_runs, _verdict_fields),
    ("sgd", _sgd_runs, _verdict_fields),
    ("ps", _ps_runs, _ps_fields),
])
def test_outputs_match_frozen_digest(name, runs, fields):
    assert _digest(fields(r) for r in runs()) == FROZEN[name]
