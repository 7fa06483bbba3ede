"""The block-stepped simulators against a per-step loop, bit for bit.

``_step_loop`` is the update written one step at a time, with each gradient
taken as ``M @ s`` on one stale state.  The simulators step in blocks: they
take each span's gradients as one stacked matvec, a span of one step at
delay 0.  Every state they report must equal the loop's, to the last bit,
at delays and dimensions well past the frozen digests'.  The parameter
server's sampled-delay runs step on the same engine and are held to the
same loop.
"""

import numpy as np
import pytest

from staleness_lab.charpoly import DelayModel, OptimizerSpec, pmf_uniform
from staleness_lab.dynamics import QuadraticProblem, SimConfig, simulate_expectation, simulate_sgd
from staleness_lab.pssim import SampledDelay, run_ps

VARIANTS = (("plain", 0.0), ("momentum", 0.7), ("shifted", 0.7))
# the updates a random delay drives: shifted momentum takes a constant delay only
PMF_VARIANTS = (("plain", 0.0), ("momentum", 0.5), ("momentum", 0.9))
TAUS = (1, 8, 16, 64)
DIMS = (1, 3, 8, 24)
STEPS = 1000


def _step_loop(y0, opt, steps, mat, lag=None, pairs=None):
    """States 0..steps of the delayed update, one step at a time.

    Step ``t`` (from 0) applies ``mat(t)`` to the state ``lag(t)`` steps
    back, clipped to the start, or to the probability-weighted state over
    ``pairs`` of (delay, probability).  Before the start every state is
    ``y0`` and every velocity zero.
    """
    eta, m = opt.eta, opt.m
    ce = eta * (1.0 - m)
    states, vels = [y0], [np.zeros_like(y0)]
    y, v = y0, vels[0]
    for t in range(steps):
        if pairs is None:
            back = t - min(lag(t), t)
            s = states[back]
        else:
            s = None
            for k, p in pairs:
                term = p * states[max(t - k, 0)]
                s = term if s is None else s + term
        g = mat(t) @ s
        if opt.variant == "plain":
            y = y - eta * g
        elif opt.variant == "momentum":
            v = m * v - ce * g
            y = y + v
        else:
            v = m * vels[back] - ce * g
            y = y + v
        states.append(y)
        vels.append(v)
    return np.array(states)


def _spd(d, seed):
    g = np.random.default_rng(seed).standard_normal((d, d))
    return g @ g.T / d + 0.1 * np.eye(d)


def _assert_same_states(verdict, want):
    got = verdict.states
    assert got.shape == (verdict.steps + 1, want.shape[1])
    assert got.tobytes() == want[:verdict.steps + 1].tobytes()


def _etas(tau, a):
    # slow convergence and slow divergence, so the runs span several blocks
    return (0.3 / (a * (tau + 1)), 2.0 / (a * (tau + 1)))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("tau", TAUS)
def test_constant_delay_matches_the_step_loop(tau, d):
    problem = QuadraticProblem(_spd(d, 10 * d + tau))
    H = problem.hessian
    for variant, m in VARIANTS:
        for eta in _etas(tau, problem.sharpness()):
            opt = OptimizerSpec(variant, eta, m)
            cfg = SimConfig(opt, tau, max_steps=STEPS, init="random_unit", seed=d,
                            record_states=True)
            verdict = simulate_expectation(problem, cfg)
            assert verdict.steps > tau + 2
            want = _step_loop(verdict.states[0], opt, STEPS, lambda t: H, lag=lambda t: tau)
            _assert_same_states(verdict, want)


@pytest.mark.parametrize("variant, m", PMF_VARIANTS)
@pytest.mark.parametrize("d", (1, 3, 8, 24))
def test_pmf_delay_matches_the_step_loop(d, variant, m):
    # 1-D runs step on the float loop, the others on the block engine
    problem = QuadraticProblem(_spd(d, d))
    H = problem.hessian
    pmf = pmf_uniform(3, 12)
    pairs = list(zip(pmf.delays, pmf.probs))
    for eta_a in (0.02, 0.3):
        opt = OptimizerSpec(variant, eta_a / problem.sharpness(), m)
        cfg = SimConfig(opt, pmf, max_steps=STEPS, init="random_unit", seed=d,
                        record_states=True)
        verdict = simulate_expectation(problem, cfg)
        assert verdict.steps > pmf.max_delay + 2
        _assert_same_states(verdict, _step_loop(verdict.states[0], opt, STEPS,
                                                lambda t: H, pairs=pairs))


def _sgd_problem(d, seed):
    comps = np.stack([_spd(d, seed + i) for i in range(3)])
    return QuadraticProblem(comps.mean(axis=0), components=comps)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("tau", TAUS)
def test_sgd_with_constant_delay_matches_the_step_loop(tau, d):
    problem = _sgd_problem(d, 7 * d + tau)
    C = problem.components
    for variant, m in VARIANTS:
        eta = _etas(tau, problem.sharpness())[0]
        opt = OptimizerSpec(variant, eta, m)
        cfg = SimConfig(opt, tau, max_steps=STEPS, init="random_unit", seed=d,
                        record_states=True)
        verdict = simulate_sgd(problem, cfg, seed=tau)
        picks = np.random.default_rng(tau).integers(0, len(C), size=STEPS)
        want = _step_loop(verdict.states[0], opt, STEPS, lambda t: C[picks[t]],
                          lag=lambda t: tau)
        _assert_same_states(verdict, want)


@pytest.mark.parametrize("variant, m", PMF_VARIANTS)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("pmf", (pmf_uniform(1, 8), pmf_uniform(15, 64)))
def test_sgd_with_sampled_delays_matches_the_step_loop(pmf, d, variant, m):
    problem = _sgd_problem(d, d)
    C = problem.components
    for eta_a in (0.01, 0.2):
        opt = OptimizerSpec(variant, eta_a / problem.sharpness(), m)
        cfg = SimConfig(opt, pmf, max_steps=STEPS, init="random_unit", seed=d,
                        record_states=True)
        verdict = simulate_sgd(problem, cfg, seed=3)
        assert verdict.steps > pmf.max_delay + 2
        # picks from the seed's generator, delays from a second one spawned
        # from the seed
        picks = np.random.default_rng(3).integers(0, len(C), size=STEPS)
        delay_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        draws = delay_rng.choice(np.array(pmf.delays), size=STEPS, p=np.array(pmf.probs))
        want = _step_loop(verdict.states[0], opt, STEPS, lambda t: C[picks[t]],
                          lag=lambda t: int(draws[t]))
        _assert_same_states(verdict, want)
        assert verdict.clipped_delays == int(np.count_nonzero(
            draws[:verdict.steps] > np.arange(verdict.steps)))


@pytest.mark.parametrize("d", (1, 3))
@pytest.mark.parametrize("pmf", (pmf_uniform(1, 8), pmf_uniform(15, 64)))
def test_sampled_delay_server_matches_the_step_loop(pmf, d):
    # 1-D runs step on the float loop, d = 3 on the block engine
    problem = QuadraticProblem(_spd(d, 5 * d))
    H = problem.hessian
    scheduler = SampledDelay(pmf, seed=11)
    draws = np.random.default_rng(11).choice(np.array(pmf.delays), size=STEPS,
                                             p=np.array(pmf.probs))
    for variant, m in VARIANTS[:2]:
        for eta in _etas(int(pmf.expected_delay()), problem.sharpness()):
            opt = OptimizerSpec(variant, eta, m)
            run = run_ps(problem, scheduler, opt, STEPS, init="random_unit", init_seed=d,
                         record_states=True)
            verdict = run.verdict
            assert verdict.steps > pmf.max_delay + 2
            want = _step_loop(verdict.states[0], opt, STEPS, lambda t: H,
                              lag=lambda t: int(draws[t]))
            _assert_same_states(verdict, want)
            assert run.applied_delays == tuple(
                np.minimum(draws, np.arange(STEPS))[:verdict.steps].tolist())


def test_zero_delay_runs_one_step_blocks():
    problem = QuadraticProblem(_spd(8, 0))
    H = problem.hessian
    for variant, m in VARIANTS:
        opt = OptimizerSpec(variant, 0.3 / problem.sharpness(), m)
        cfg = SimConfig(opt, DelayModel.constant(0), max_steps=300, init="random_unit",
                        record_states=True)
        verdict = simulate_expectation(problem, cfg)
        _assert_same_states(verdict, _step_loop(verdict.states[0], opt, 300,
                                                lambda t: H, lag=lambda t: 0))
