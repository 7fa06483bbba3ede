import math

import numpy as np
import pytest

from oracles import constant_delay_trajectory, dominant_power_eig

from staleness_lab import dynamics
from staleness_lab.charpoly import DelayModel, OptimizerSpec, pmf_uniform
from staleness_lab.dynamics import (
    CONVERGED,
    DIVERGED,
    UNDECIDED,
    EscapeCurve,
    QuadraticProblem,
    SimConfig,
    SimVerdict,
    empirical_threshold,
    escape_time_curve,
    power_iteration,
    simulate_expectation,
    simulate_sgd,
)
from staleness_lab.errors import NoConvergence, UndecidedAtProbe
from staleness_lab.stability import METHOD_SIMULATION, analytic_threshold_plain


class TestQuadraticProblem:
    def test_diagonal_constructor(self):
        p = QuadraticProblem.diagonal([3.0, 1.0, 0.5])
        assert p.d == 3
        assert p.sharpness() == pytest.approx(3.0)
        assert list(p.eigenvalues) == pytest.approx([0.5, 1.0, 3.0])

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            QuadraticProblem([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            QuadraticProblem.diagonal([1.0, -0.2])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuadraticProblem([[float("nan")]])

    def test_rejects_all_zero_spectrum(self):
        with pytest.raises(ValueError):
            QuadraticProblem([[0.0]])

    def test_arrays_are_read_only(self):
        p = QuadraticProblem.diagonal([2.0, 1.0])
        with pytest.raises(ValueError):
            p.hessian[0, 0] = 5.0

    def test_top_eigvec_unit_and_deterministic(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4))
        h = g @ g.T + 0.1 * np.eye(4)
        p = QuadraticProblem(h)
        v = p.top_eigvec()
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.allclose(h @ v, p.sharpness() * v, atol=1e-10)
        assert np.array_equal(v, QuadraticProblem(h).top_eigvec())

    def test_components_must_average_to_hessian(self):
        h = np.eye(2)
        good = [np.diag([2.0, 0.0]), np.diag([0.0, 2.0])]
        QuadraticProblem(h, components=good)
        with pytest.raises(ValueError):
            QuadraticProblem(h, components=[np.diag([2.0, 0.0]), np.diag([0.5, 2.0])])


class TestSimConfig:
    def test_int_delay_coerced(self):
        cfg = SimConfig(OptimizerSpec("plain", 0.1), 4)
        assert isinstance(cfg.delay, DelayModel) and cfg.delay.tau == 4

    def test_random_delay_needs_plain(self):
        with pytest.raises(ValueError):
            SimConfig(OptimizerSpec("momentum", 0.1, 0.5), pmf_uniform(1, 3))

    def test_resolved_max_steps_floor(self):
        assert SimConfig(OptimizerSpec("plain", 0.1), 4).resolved_max_steps() == 100_000
        assert SimConfig(OptimizerSpec("plain", 0.1), 4, max_steps=77).resolved_max_steps() == 77
        assert SimConfig(OptimizerSpec("plain", 0.1), 2000).resolved_max_steps() == 200_100

    def test_blowup_decay_ordering(self):
        with pytest.raises(ValueError):
            SimConfig(OptimizerSpec("plain", 0.1), 1, blowup_factor=0.5)
        with pytest.raises(ValueError):
            SimConfig(OptimizerSpec("plain", 0.1), 1, decay_factor=2.0)


class TestVerdictObject:
    def test_diverged_requires_escape_step(self):
        with pytest.raises(ValueError):
            SimVerdict(DIVERGED, None, 2e6, 100)

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            SimVerdict("finished", None, 1.0, 10)


class TestTrajectoryAgainstOracle:
    @pytest.mark.parametrize("variant,m", [("plain", 0.0), ("momentum", 0.5), ("shifted", 0.5)])
    def test_scalar_states_bit_exact(self, variant, m):
        eta, a, tau, steps = 0.11, 1.3, 3, 200
        cfg = SimConfig(OptimizerSpec(variant, eta, m), tau, max_steps=steps,
                        blowup_factor=1e12, decay_factor=1e-12, record_states=True)
        v = simulate_expectation(QuadraticProblem([[a]]), cfg)
        want = constant_delay_trajectory(eta, a, tau, variant, m, steps)
        got = list(v.states[:, 0])
        # the run may converge before the budget; every simulated step must
        # match the oracle to rounding noise (the oracle groups the update
        # products differently, so bit equality is not the contract here)
        assert len(got) >= 50
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-300), f"step {i}"

    def test_vector_path_matches_scalar_on_diagonal(self):
        eta, a, tau, steps = 0.2, 0.9, 2, 150
        scfg = SimConfig(OptimizerSpec("momentum", eta, 0.4), tau, max_steps=steps,
                         blowup_factor=1e12, decay_factor=1e-12, record_states=True)
        sv = simulate_expectation(QuadraticProblem([[a]]), scfg)
        vv = simulate_expectation(QuadraticProblem.diagonal([a, 1e-9 * a]), scfg)
        assert list(vv.states[:, 0]) == list(sv.states[:, 0])


class TestVerdicts:
    def test_converged_below_threshold(self):
        eta = 0.5 * analytic_threshold_plain(1.0, 4)
        v = simulate_expectation(QuadraticProblem([[1.0]]),
                                 SimConfig(OptimizerSpec("plain", eta), 4))
        assert v.status == CONVERGED
        assert v.escape_step is None
        assert v.amplification < 1e-5

    def test_diverged_above_threshold(self):
        eta = 1.5 * analytic_threshold_plain(1.0, 4)
        v = simulate_expectation(QuadraticProblem([[1.0]]),
                                 SimConfig(OptimizerSpec("plain", eta), 4))
        assert v.status == DIVERGED
        assert v.escape_step is not None and v.escape_step <= v.steps
        assert v.amplification > 1e6

    def test_undecided_when_budget_too_small(self):
        v = simulate_expectation(QuadraticProblem([[1.0]]),
                                 SimConfig(OptimizerSpec("plain", 1e-4), 4, max_steps=500))
        assert v.status == UNDECIDED
        assert v.amplification == pytest.approx(1.0, rel=0.1)

    def test_huge_blowup_line_still_caught(self):
        cfg = SimConfig(OptimizerSpec("plain", 3.0), 0, max_steps=2000,
                        blowup_factor=1e300)
        v = simulate_expectation(QuadraticProblem([[1.0]]), cfg)
        assert v.status == DIVERGED
        assert v.amplification > 1e299
        assert v.escape_step == v.steps

    def test_huge_blowup_line_on_a_vector_run_warns_nothing(self):
        # the norm overflows at the verdict step, and the block steps on past
        # it; pytest turns any RuntimeWarning into an error
        cfg = SimConfig(OptimizerSpec("momentum", 3.0, 0.5), 2, max_steps=5000,
                        blowup_factor=1e300)
        v = simulate_expectation(QuadraticProblem.diagonal([1.0, 0.5]), cfg)
        assert v.status == DIVERGED
        assert (v.escape_step, v.steps, v.amplification) == (962, 962, math.inf)

    def test_trace_thinning(self):
        cfg = SimConfig(OptimizerSpec("plain", 0.1), 2, max_steps=100,
                        record_trace=True, record_every=10)
        v = simulate_expectation(QuadraticProblem([[1.0]]), cfg)
        steps = [s for s, _ in v.trace]
        assert steps[0] == 0
        assert all(b - a == 10 for a, b in zip(steps, steps[1:]))


class TestSgd:
    def _problem(self, noise):
        h = np.diag([1.0, 0.4])
        if noise:
            comps = [np.diag([1.6, 0.4]), np.diag([0.4, 0.4])]
        else:
            comps = [h.copy(), h.copy()]
        return QuadraticProblem(h, components=comps)

    def test_zero_noise_collapses_to_expectation(self):
        cfg = SimConfig(OptimizerSpec("plain", 0.3), 2, max_steps=300,
                        blowup_factor=1e12, decay_factor=1e-12, record_states=True)
        a = simulate_sgd(self._problem(noise=False), cfg, seed=5)
        b = simulate_expectation(self._problem(noise=False), cfg)
        assert np.array_equal(a.states, b.states)

    def test_same_seed_same_run(self):
        cfg = SimConfig(OptimizerSpec("plain", 0.3), 2, max_steps=300,
                        blowup_factor=1e12, decay_factor=1e-12, record_states=True)
        a = simulate_sgd(self._problem(noise=True), cfg, seed=9)
        b = simulate_sgd(self._problem(noise=True), cfg, seed=9)
        assert np.array_equal(a.states, b.states)

    def test_different_seed_differs(self):
        cfg = SimConfig(OptimizerSpec("plain", 0.3), 2, max_steps=300,
                        blowup_factor=1e12, decay_factor=1e-12, record_states=True)
        a = simulate_sgd(self._problem(noise=True), cfg, seed=1)
        b = simulate_sgd(self._problem(noise=True), cfg, seed=2)
        assert not np.array_equal(a.states, b.states)

    def test_requires_components(self):
        cfg = SimConfig(OptimizerSpec("plain", 0.3), 2, max_steps=50)
        with pytest.raises(ValueError):
            simulate_sgd(QuadraticProblem(np.diag([1.0, 0.4])), cfg)

    def test_sampled_delays_clip_at_history_edge(self):
        # delays of 3..5 drawn from step 1 on must clip until history exists
        cfg = SimConfig(OptimizerSpec("plain", 0.05), pmf_uniform(3, 5),
                        max_steps=400, record_states=True)
        v = simulate_sgd(self._problem(noise=False), cfg, seed=0)
        assert v.clipped_delays > 0


class TestEmpiricalThreshold:
    def test_plain_matches_closed_form(self):
        r = empirical_threshold(QuadraticProblem([[1.0]]), "plain", 4, rel_tol=0.01)
        want = analytic_threshold_plain(1.0, 4)
        assert abs(r.eta_star - want) / want <= 0.02
        assert r.method == METHOD_SIMULATION
        assert math.isnan(r.max_root_residual)

    def test_tight_tolerance_with_tiny_probe_raises_undecided(self):
        with pytest.raises(UndecidedAtProbe) as ei:
            empirical_threshold(QuadraticProblem([[1.0]]), "plain", 16,
                                rel_tol=1e-7, probe_steps=2000)
        assert ei.value.max_steps == 4000  # the probe was doubled once

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_rel_tol_before_any_probe(self, monkeypatch, rel_tol):
        monkeypatch.setattr(dynamics, "simulate_expectation", None)
        with pytest.raises(ValueError, match="rel_tol"):
            empirical_threshold(QuadraticProblem([[1.0]]), "plain", 3, rel_tol=rel_tol)


class TestEscapeCurve:
    def test_frozen_escape_steps(self):
        star = analytic_threshold_plain(1.0, 4)
        etas = [f * star for f in (1.02, 1.05, 1.1, 1.2, 1.5, 2.0)]
        curve = escape_time_curve(QuadraticProblem([[1.0]]), "plain", 4, etas)
        assert [s for _, s in curve.rows] == [4366, 1773, 909, 477, 210, 121]

    def test_escape_steps_fall_as_eta_grows(self):
        star = analytic_threshold_plain(1.0, 2)
        etas = [f * star for f in (1.05, 1.2, 1.6, 2.4)]
        steps = [s for _, s in escape_time_curve(QuadraticProblem([[1.0]]), "plain", 2, etas).rows]
        assert all(s is not None for s in steps)
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_stable_rows_are_none(self):
        star = analytic_threshold_plain(1.0, 2)
        curve = escape_time_curve(QuadraticProblem([[1.0]]), "plain", 2,
                                  [0.5 * star, 1.3 * star])
        assert curve.rows[0][1] is None
        assert curve.rows[1][1] is not None

    def test_rejects_unsorted_etas(self):
        with pytest.raises(ValueError):
            escape_time_curve(QuadraticProblem([[1.0]]), "plain", 2, [0.2, 0.1])

    def test_csv_layout(self):
        curve = EscapeCurve(rows=((0.1, None), (0.2, 44)))
        assert curve.to_csv() == "eta,escape_step\n0.1,\n0.2,44\n"


class TestPowerIteration:
    def test_identity_converges_immediately(self):
        lam, it = power_iteration(lambda v: v, 5, seed=0)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert it == 1

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            d = int(rng.integers(2, 40))
            g = rng.standard_normal((d, d))
            a = g @ g.T / d + 0.05 * np.eye(d)
            lam, _ = power_iteration(lambda v: a @ v, d, tol=1e-12, seed=trial)
            assert lam == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), rel=1e-8)

    def test_matches_independent_power_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        a = a @ a.T + 0.1 * np.eye(6)
        lam, _ = power_iteration(lambda v: a @ v, 6, tol=1e-12, seed=3)
        assert lam == pytest.approx(dominant_power_eig(a), rel=1e-9)

    def test_zero_operator(self):
        lam, _ = power_iteration(lambda v: 0.0 * v, 4, seed=0)
        assert lam == 0.0

    def test_iteration_cap_carries_best(self):
        a = np.diag([1.0, 0.999999])  # nearly degenerate: slow separation
        with pytest.raises(NoConvergence) as ei:
            power_iteration(lambda v: a @ v, 2, tol=1e-15, max_iter=3, seed=1)
        assert ei.value.iterations == 3
        assert 0.9 < ei.value.best <= 1.0 + 1e-9

    def test_bad_matvec_shape(self):
        with pytest.raises(ValueError):
            power_iteration(lambda v: np.zeros(3), 4, seed=0)
