import math
import tracemalloc

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below needs the test extra
    st = None

from staleness_lab import dynamics
from staleness_lab.charpoly import DelayModel, OptimizerSpec, pmf_uniform
from staleness_lab.dynamics import (
    CONVERGED,
    QuadraticProblem,
    SimConfig,
    simulate_expectation,
    simulate_sgd,
)
from staleness_lab.pssim import (
    RoundRobin,
    SampledDelay,
    delay_histogram,
    ps_empirical_threshold,
    run_ps,
)
from staleness_lab.stability import (
    METHOD_SIMULATION,
    analytic_threshold_plain,
    numeric_threshold,
)


def _scalar():
    return QuadraticProblem([[1.0]])


class TestSchedulers:
    def test_round_robin_delay(self):
        assert RoundRobin(5).max_delay == 4

    def test_round_robin_validation(self):
        with pytest.raises(ValueError):
            RoundRobin(0)

    def test_sampled_rejects_constant_model(self):
        with pytest.raises(ValueError):
            SampledDelay(DelayModel.constant(3))

    def test_sampled_carries_pmf(self):
        s = SampledDelay(pmf_uniform(1, 4), seed=3)
        assert s.pmf.delays == (1, 2, 3, 4)


class TestRoundRobinEquivalence:
    @pytest.mark.parametrize("variant,m", [("plain", 0.0), ("momentum", 0.8), ("shifted", 0.8)])
    @pytest.mark.parametrize("workers", [2, 5, 9])
    def test_trajectory_equals_constant_delay_exactly(self, variant, m, workers):
        tau = workers - 1
        eta = 0.45 * numeric_threshold(variant, 1.0, DelayModel.constant(tau),
                                       m=m, rel_tol=1e-4).eta_star
        opt = OptimizerSpec(variant, eta, m)
        steps = 400
        run = run_ps(_scalar(), RoundRobin(workers), opt, steps)
        ref = simulate_expectation(
            _scalar(),
            SimConfig(opt, tau, max_steps=steps, record_trace=True),
        )
        ref_norms = dict(ref.trace)
        for t, norm in enumerate(run.norms):
            if t in ref_norms:
                assert norm == ref_norms[t]  # bit-identical, not approx

    def test_vector_problem_equivalence(self):
        h = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        opt = OptimizerSpec("shifted", 0.05, 0.9)
        run = run_ps(QuadraticProblem(h), RoundRobin(9), opt, 500)
        ref = simulate_expectation(
            QuadraticProblem(h),
            SimConfig(opt, 8, max_steps=500, record_trace=True),
        )
        for t, norm in dict(ref.trace).items():
            if t <= run.steps:
                assert run.norms[t] == norm

    def test_warmup_ramp_then_constant(self):
        run = run_ps(_scalar(), RoundRobin(4), OptimizerSpec("plain", 0.1), 50)
        assert run.applied_delays[:3] == (0, 1, 2)
        assert all(k == 3 for k in run.applied_delays[3:])


if st is not None:
    @st.composite
    def _round_robin_cases(draw):
        workers = draw(st.integers(1, 12))
        d = draw(st.sampled_from((1, 3)))
        variant = draw(st.sampled_from(("plain", "momentum", "shifted")))
        m = 0.0 if variant == "plain" else draw(st.floats(0.0, 0.95))
        g = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((4, d, d))
        comps = g @ g.transpose(0, 2, 1) / d + 0.1 * np.eye(d)  # distinct components
        problem = QuadraticProblem(comps.mean(axis=0), components=comps)
        edge = numeric_threshold(variant, problem.sharpness(), DelayModel.constant(workers - 1),
                                 m=m).eta_star
        opt = OptimizerSpec(variant, draw(st.floats(0.5, 1.5)) * edge, m)
        return problem, workers, opt, draw(st.integers(workers, 1500)), draw(st.booleans())

    @settings(max_examples=80, deadline=None)
    @given(case=_round_robin_cases(), mode=st.sampled_from(("expectation", "sgd")),
           seed=st.integers(0, 100))
    def test_round_robin_is_the_constant_delay_simulator(case, mode, seed):
        problem, workers, opt, steps, record = case
        run = run_ps(problem, RoundRobin(workers), opt, steps, seed=seed, mode=mode,
                     record_states=record)
        cfg = SimConfig(opt, workers - 1, max_steps=steps, record_trace=True,
                        record_states=record)
        if mode == "expectation":
            ref = simulate_expectation(problem, cfg)
        else:
            ref = simulate_sgd(problem, cfg, seed=seed)
        got = run.verdict
        assert (run.steps, got.status, got.escape_step) == (ref.steps, ref.status, ref.escape_step)
        assert np.array(run.norms).tobytes() == np.array([n for _, n in ref.trace]).tobytes()
        if record:
            assert got.states.tobytes() == ref.states.tobytes()
        else:
            assert got.states is None and ref.states is None


class TestHistogram:
    def test_round_robin_histogram_is_point_mass(self):
        run = run_ps(_scalar(), RoundRobin(5), OptimizerSpec("plain", 0.05), 200)
        assert delay_histogram(run) == ((4, 1.0),)

    def test_sampled_histogram_matches_pmf(self):
        # eta*a tiny so the run survives all 1e5 steps undecided and the
        # delay stream is complete
        sched = SampledDelay(pmf_uniform(1, 4), seed=12)
        run = run_ps(_scalar(), sched, OptimizerSpec("plain", 1e-4), 100_000)
        hist = dict(delay_histogram(run))
        tv = 0.5 * sum(abs(hist.get(k, 0.0) - 0.25) for k in (1, 2, 3, 4))
        # clipping at the start may shift a few draws to delay 0
        tv += 0.5 * sum(f for k, f in hist.items() if k not in (1, 2, 3, 4))
        assert tv <= 0.02

    def test_run_ending_in_the_warm_up_has_an_empty_histogram(self):
        run = run_ps(_scalar(), RoundRobin(5), OptimizerSpec("plain", 1e6), 100)
        assert run.verdict.escape_step == 2
        assert delay_histogram(run) == ()

    def test_histogram_frequencies_sum_to_one(self):
        sched = SampledDelay(pmf_uniform(1, 9), seed=5)
        run = run_ps(_scalar(), sched, OptimizerSpec("plain", 1e-3), 5000)
        hist = delay_histogram(run)
        assert sum(f for _, f in hist) == pytest.approx(1.0, abs=1e-12)


class TestSampledDelayMechanics:
    def test_same_seeds_reproduce_exactly(self):
        sched = SampledDelay(pmf_uniform(2, 6), seed=7)
        a = run_ps(_scalar(), sched, OptimizerSpec("plain", 0.01), 2000)
        b = run_ps(_scalar(), sched, OptimizerSpec("plain", 0.01), 2000)
        assert a.applied_delays == b.applied_delays
        assert a.norms == b.norms

    def test_scheduler_seed_changes_draws(self):
        a = run_ps(_scalar(), SampledDelay(pmf_uniform(1, 6), seed=1),
                   OptimizerSpec("plain", 0.01), 2000)
        b = run_ps(_scalar(), SampledDelay(pmf_uniform(1, 6), seed=2),
                   OptimizerSpec("plain", 0.01), 2000)
        assert a.applied_delays != b.applied_delays

    def test_draws_only_the_blocks_the_run_steps(self):
        # converges at step 557; drawn up front, two million delays would
        # take 16 MB for the draws and as much for the uniforms behind them
        sched = SampledDelay(pmf_uniform(1, 16))
        tracemalloc.start()
        try:
            run = run_ps(_scalar(), sched, OptimizerSpec("plain", 0.02), 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.verdict.status == CONVERGED and run.steps == 557
        assert peak < 2_000_000
        short = run_ps(_scalar(), sched, OptimizerSpec("plain", 0.02), 600)
        assert short.applied_delays == run.applied_delays
        assert short.norms == run.norms

    def test_early_draws_clipped_and_counted(self):
        sched = SampledDelay(pmf_uniform(5, 8), seed=0)
        run = run_ps(_scalar(), sched, OptimizerSpec("plain", 0.01), 1000)
        assert run.verdict.clipped_delays > 0
        # entry i belongs to global step i+1, whose history depth is i
        assert all(k <= i for i, k in enumerate(run.applied_delays))

    def test_shifted_with_sampled_delay_raises(self):
        with pytest.raises(ValueError):
            run_ps(_scalar(), SampledDelay(pmf_uniform(1, 3)),
                   OptimizerSpec("shifted", 0.05, 0.5), 100)

    def test_momentum_with_sampled_delay_runs(self):
        run = run_ps(_scalar(), SampledDelay(pmf_uniform(1, 3), seed=4),
                     OptimizerSpec("momentum", 0.05, 0.5), 500)
        assert run.verdict.status == CONVERGED

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("m", [0.5, 0.9])
    @pytest.mark.parametrize("pmf", [pmf_uniform(1, 4), pmf_uniform(1, 16)], ids=["1..4", "1..16"])
    def test_sampled_momentum_matches_pmf_root_threshold(self, pmf, m, seed):
        r = ps_empirical_threshold(_scalar(), SampledDelay(pmf, seed=seed), "momentum", m,
                                   rel_tol=0.01)
        want = numeric_threshold("momentum", 1.0, pmf, m=m).eta_star
        assert abs(r.eta_star - want) <= 0.01 * want


class TestSgdPicks:
    def _components(self):
        return QuadraticProblem(np.diag([1.0, 0.4]),
                                components=[np.diag([1.6, 0.4]), np.diag([0.4, 0.4])])

    def test_draws_only_the_blocks_the_run_steps(self):
        # converges at step 53; drawn up front, three million picks would
        # take 24 MB
        opt = OptimizerSpec("plain", 0.5)
        short = run_ps(self._components(), RoundRobin(2), opt, 10_000, seed=1, mode="sgd")
        tracemalloc.start()
        try:
            run = run_ps(self._components(), RoundRobin(2), opt, 3_000_000, seed=1, mode="sgd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.verdict.status == CONVERGED and run.steps == 53
        assert peak < 2_000_000
        assert short.norms == run.norms

    def test_seed_none_draws_fresh_picks(self):
        # None is fresh entropy for the picks; it never steps on the hessian
        problem = QuadraticProblem(np.diag([1.0, 0.4]),
                                   components=[np.diag([1.6, 0.2]), np.diag([0.4, 0.6])])
        opt = OptimizerSpec("plain", 0.5)
        assert run_ps(problem, RoundRobin(3), opt, 1000).norms[1] == 0.5
        norm = run_ps(problem, RoundRobin(3), opt, 1000, seed=None, mode="sgd").norms[1]
        assert norm in (abs(1.0 - 0.5 * 1.6), abs(1.0 - 0.5 * 0.4))

    def test_picks_drawn_in_pieces_equal_one_draw(self):
        # what the per-block picks rely on: one generator continuing across
        # draws gives the values of a single draw
        whole = np.random.default_rng(5).integers(0, 3, size=1000)
        rng = np.random.default_rng(5)
        cuts = [0, 1, 2, 5, 17, 64, 300, 301, 1000]
        pieces = [rng.integers(0, 3, size=b - a) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)


class TestValidation:
    def test_round_robin_needs_enough_steps(self):
        with pytest.raises(ValueError):
            run_ps(_scalar(), RoundRobin(8), OptimizerSpec("plain", 0.1), 5)

    @pytest.mark.parametrize("scheduler", [RoundRobin(4), SampledDelay(pmf_uniform(1, 3))])
    def test_bad_init_rejected_before_any_step(self, no_run, scheduler):
        with pytest.raises(ValueError, match="init must be 'top_eigvec' or 'random_unit'"):
            run_ps(_scalar(), scheduler, OptimizerSpec("plain", 0.1), 100, init="zeros")

    @pytest.mark.parametrize("scheduler", [RoundRobin(4), SampledDelay(pmf_uniform(1, 3))])
    def test_optimizer_must_be_a_spec_before_any_step(self, no_run, scheduler):
        with pytest.raises(TypeError, match="optimizer must be an OptimizerSpec"):
            run_ps(_scalar(), scheduler, ("plain", 0.1, 0.0), 100)

    def test_sgd_mode_needs_components(self):
        with pytest.raises(ValueError):
            run_ps(_scalar(), RoundRobin(2), OptimizerSpec("plain", 0.1), 100,
                   mode="sgd")


class TestPsThreshold:
    def test_round_robin_matches_closed_form(self):
        r = ps_empirical_threshold(_scalar(), RoundRobin(5), "plain", rel_tol=0.01)
        want = analytic_threshold_plain(1.0, 4)
        assert abs(r.eta_star - want) / want <= 0.02
        assert r.method == METHOD_SIMULATION
        assert r.delay.tau == 4

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1.0, 1e-17, 1e-300])
    def test_rejects_bad_rel_tol_before_any_probe(self, no_run, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            ps_empirical_threshold(_scalar(), RoundRobin(4), "plain", rel_tol=rel_tol)

    def test_sampled_matches_pmf_root_threshold(self):
        pmf = pmf_uniform(1, 9)
        r = ps_empirical_threshold(_scalar(), SampledDelay(pmf, seed=3), "plain",
                                   rel_tol=0.01)
        want = numeric_threshold("plain", 1.0, pmf).eta_star
        # a single sampled-delay path wanders around the expectation path,
        # so agreement is loose but should stay within a few percent
        assert abs(r.eta_star - want) / want <= 0.10

    @pytest.mark.parametrize("scheduler,variant,m", [
        (RoundRobin(2), "plain", 0.0),
        (RoundRobin(5), "plain", 0.0),
        (RoundRobin(5), "shifted", 0.5),
        (SampledDelay(pmf_uniform(1, 6), seed=3), "plain", 0.0),
    ])
    def test_status_only_probes_match_recorded_runs(self, monkeypatch, scheduler, variant, m):
        # the search's probes record nothing; the same bisection with every
        # probe made a run_ps run that records everything must probe the same
        # etas in the same order and bracket the same
        problem = _scalar()
        run, unrecorded = dynamics._run, []

        def counted(problem, configs, *args):
            unrecorded.extend(config.optimizer.eta for config in configs)
            return run(problem, configs, *args)

        monkeypatch.setattr(dynamics, "_run", counted)
        want = ps_empirical_threshold(problem, scheduler, variant, m, probe_steps=20_000)
        probes = []

        def recorded(problem, configs, pick_seed=None, lag_seed=None, every=0):
            (config,) = configs
            full = run_ps(problem, scheduler, config.optimizer, config.max_steps,
                          record_states=True)
            assert len(full.norms) == len(full.verdict.states) == full.steps + 1
            probes.append(config.optimizer.eta)
            return [full.verdict], None, None

        monkeypatch.setattr(dynamics, "_run", recorded)  # run_ps keeps its own binding
        got = ps_empirical_threshold(problem, scheduler, variant, m, probe_steps=20_000)
        assert got.bracket == want.bracket
        assert probes == unrecorded

    @pytest.mark.parametrize("variant", ["momentum", "shifted"])
    @pytest.mark.parametrize("m", [0.9, 0.99])
    def test_finds_the_tau_zero_momentum_boundaries(self, variant, m):
        # one worker is delay 0, where both momentum variants cross at
        # eta*a = 2(1+m)/(1-m): 38 at m = 0.9 and 398 at m = 0.99
        want = numeric_threshold(variant, 1.0, 0, m=m).eta_star
        got = ps_empirical_threshold(_scalar(), RoundRobin(1), variant, m=m)
        assert abs(got.eta_star - want) <= 0.02 * want
