import hashlib
import math

import numpy as np
import pytest

from oracles import companion_max_magnitude, companion_roots

from staleness_lab import roots
from staleness_lab.acceptance import _random_families
from staleness_lab.charpoly import (
    DelayModel,
    OptimizerSpec,
    Polynomial,
    char_poly,
    char_poly_plain,
    char_poly_shifted,
)
from staleness_lab.errors import NoConvergence
from staleness_lab.roots import (
    RESIDUAL_TOL,
    all_roots,
    all_roots_many,
)


class TestKnownRoots:
    def test_linear(self):
        rs = all_roots(Polynomial((-3.0, 1.5)))  # 1.5 z - 3
        assert rs.roots == (2.0 + 0.0j,)
        assert rs.residuals[0] <= RESIDUAL_TOL

    def test_real_quadratic(self):
        rs = all_roots(Polynomial((2.0, -3.0, 1.0)))  # (z-1)(z-2)
        mags = sorted(abs(z) for z in rs.roots)
        assert mags[0] == pytest.approx(1.0, abs=1e-12)
        assert mags[1] == pytest.approx(2.0, abs=1e-12)

    def test_complex_pair(self):
        rs = all_roots(Polynomial((1.0, 0.0, 1.0)))  # z^2 + 1
        lo, hi = sorted(rs.roots, key=lambda z: z.imag)
        assert abs(lo - (-1j)) < 1e-12
        assert abs(hi - 1j) < 1e-12

    def test_cubic_frozen_value(self):
        # plain variant, tau=2, eta*a=0.3; magnitude frozen from a
        # companion-matrix eigensolve
        rs = all_roots(Polynomial((0.3, 0.0, -1.0, 1.0)))
        assert rs.max_magnitude == pytest.approx(0.8127115748911866, abs=1e-12)

    def test_unit_circle_root(self):
        # z^5 - 1: all five roots on the unit circle
        rs = all_roots(Polynomial((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
        assert all(abs(abs(z) - 1.0) < 1e-12 for z in rs.roots)

    def test_tiny_roots_converge_to_relative_accuracy(self):
        # z^2 + 1e-160: roots +-1e-80 i, where every update is far below an
        # absolute tolerance from the first sweep on
        rs = all_roots(Polynomial((1e-160, 0.0, 1.0)))
        assert all(abs(abs(z) - 1e-80) <= 1e-12 * 1e-80 for z in rs.roots)

    def test_subnormal_coefficient_is_refused(self):
        # z^2 + 5e-324: in subnormal arithmetic the iteration settled on
        # +-(-9.70e-163 + 2.00e-162j) with residual 0.0, not on +-2.22e-162j
        with pytest.raises(ValueError, match=r"coefficient 0 is subnormal \(5e-324\)"):
            all_roots(Polynomial((5e-324, 0.0, 1.0)))

    def test_coefficient_subnormal_once_monic_is_refused(self):
        # 1e-300 is normal, but 1e-310 after dividing by the leading 1e10
        with pytest.raises(ValueError, match="coefficient 1 is subnormal"):
            all_roots(Polynomial((1.0, 1e-300, 1e10)))

    @pytest.mark.parametrize("coeffs, k", [
        ((1e200, 0.0, 1e-200), 0),  # roots +-1e200j are floats, but 1e200 / 1e-200 is not
        ((0.0, 2.0, 1e200, 1e-200), 2),  # named by its index in the input, zero roots included
    ])
    def test_coefficient_overflowing_once_monic_is_refused_before_any_sweep(
            self, monkeypatch, coeffs, k):
        monkeypatch.setattr(roots, "_aberth", None)  # a sweep would raise TypeError
        with pytest.raises(ValueError, match=rf"coefficient {k} overflows once divided by the "
                                             r"leading one \(1e\+200 / 1e-200\)"):
            all_roots(Polynomial(coeffs))

    def test_overflow_inside_the_sweep_ends_in_no_convergence(self):
        # every coefficient is finite once monic, so the sweep runs; its
        # estimates overflow there and the cap ends it cleanly, with no
        # RuntimeWarning (which this suite turns into an error)
        with pytest.raises(NoConvergence, match="within 500 sweeps"):
            all_roots(Polynomial((1.0, 1e300, 0.0, 1.0)))

    def test_smallest_normal_coefficients_still_solve(self):
        rs = all_roots(Polynomial((3e-308, 0.0, 1.0)))
        assert all(abs(abs(z) - math.sqrt(3e-308)) <= 1e-12 * math.sqrt(3e-308)
                   for z in rs.roots)


class TestZeroRoots:
    def test_zero_constant_term(self):
        rs = all_roots(Polynomial((0.0, 0.0, -6.0, 1.0)))  # z^2 (z - 6)
        zero = [z for z in rs.roots if z == 0]
        assert len(zero) == 2 and all(z == 0.0 + 0.0j for z in zero)
        assert rs.max_magnitude == pytest.approx(6.0, abs=1e-12)

    def test_pure_monomial(self):
        rs = all_roots(Polynomial((0.0, 0.0, 0.0, 2.0)))  # 2 z^3
        assert rs.roots == (0.0 + 0.0j,) * 3
        assert rs.max_magnitude == 0.0


class TestOrderingAndSymmetry:
    def test_descending_magnitude_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            deg = int(rng.integers(2, 15))
            c = tuple(float(x) for x in rng.uniform(-2, 2, deg)) + (1.0,)
            mags = [abs(z) for z in all_roots(Polynomial(c)).roots]
            assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            deg = int(rng.integers(2, 20))
            c = tuple(float(x) for x in rng.uniform(-2, 2, deg)) + (1.0,)
            roots = np.asarray(all_roots(Polynomial(c)).roots)
            for z in roots:
                gap = np.min(np.abs(np.conj(z) - roots))
                assert gap <= 1e-7 * max(1.0, abs(z))

    def test_deterministic_across_calls(self):
        p = Polynomial(tuple(float(x) for x in np.random.default_rng(5).uniform(-1, 1, 12)) + (1.0,))
        assert all_roots(p).roots == all_roots(p).roots


class TestAgainstCompanionOracle:
    def test_dense_fuzz(self):
        rng = np.random.default_rng(20260823)
        for _ in range(150):
            deg = int(rng.integers(1, 30))
            c = list(rng.uniform(-2, 2, deg + 1))
            c[-1] = float(rng.uniform(0.5, 2.0))
            p = Polynomial(tuple(c))
            rs = all_roots(p)
            assert max(rs.residuals) <= RESIDUAL_TOL
            ref = companion_max_magnitude(p.coeffs)
            assert rs.max_magnitude == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_characteristic_family_roots_match_pairwise(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            tau = int(rng.integers(0, 25))
            variant = ("plain", "momentum", "shifted")[int(rng.integers(0, 3))]
            m = 0.0 if variant == "plain" else float(rng.uniform(0.0, 0.9))
            eta = float(rng.uniform(0.1, 2.5)) * 2 * math.sin(math.pi / (4 * tau + 2))
            p = char_poly(OptimizerSpec(variant, eta, m), 1.0, DelayModel.constant(tau))
            got = np.asarray(all_roots(p).roots)
            want = np.asarray(companion_roots(p.coeffs))
            # every oracle root is hit and vice versa (both sets have the
            # same size, so this is a bijection up to near-coincident roots)
            for w in want:
                assert np.min(np.abs(got - w)) <= 1e-6 * max(1.0, abs(w))
            for g in got:
                assert np.min(np.abs(want - g)) <= 1e-6 * max(1.0, abs(g))

    def test_high_degree_sparse(self):
        # eta*a z^0 terms against z^61 - z^60: degree 61, three terms
        p = char_poly(OptimizerSpec("plain", 0.02, 0.0), 1.0, DelayModel.constant(60))
        rs = all_roots(p)
        assert len(rs.roots) == 61
        assert max(rs.residuals) <= RESIDUAL_TOL
        assert rs.max_magnitude == pytest.approx(companion_max_magnitude(p.coeffs), rel=1e-8)


class TestHighDegreeDelayPolynomials:
    # the roots cluster near |z| = 1, where the Newton-polygon starts put every
    # estimate, so the sweep count stays flat as the degree grows
    def test_sweeps_stay_bounded_at_tau_1000(self):
        assert all_roots(char_poly_plain(0.0005, 1.0, 1000)).iterations <= 40

    def test_shifted_momentum_at_tau_500_converges(self):
        # starts evenly spaced from the edge's phase, with no half-step
        # offset, stall here at residual 0.999
        rs = all_roots(char_poly_shifted(0.0005, 1.0, 500, 0.9))
        assert len(rs.roots) == 502
        assert max(rs.residuals) <= RESIDUAL_TOL


class TestFailureMode:
    def test_iteration_cap_raises_with_best(self):
        p = Polynomial(tuple(float(x) for x in np.random.default_rng(1).uniform(-1, 1, 30)) + (1.0,))
        with pytest.raises(NoConvergence) as ei:
            all_roots(p, max_iter=1)
        assert ei.value.iterations == 1
        assert ei.value.best is not None


def _dense(seed, deg):
    return Polynomial(tuple(float(x) for x in np.random.default_rng(seed).uniform(-1, 1, deg)) + (1.0,))


def _mixed():
    """Every shape the batcher separates, with repeats so that batches form."""
    sparse20 = char_poly(OptimizerSpec("plain", 0.05, 0.0), 1.0, DelayModel.constant(19))
    wild = np.random.default_rng(8).uniform(-2, 2, 9) * 10.0 ** np.random.default_rng(9).uniform(-5, 5, 9)
    return [
        Polynomial((0.0, 0.0, -6.0, 1.0)),  # zero roots
        _dense(1, 20),
        Polynomial((0.0, 0.0, 0.0, 2.0)),  # 2 z^3
        sparse20,
        Polynomial((-3.0, 1.5)),
        _dense(2, 20),
        Polynomial(tuple(float(x) for x in wild)),
        char_poly(OptimizerSpec("plain", 0.07, 0.0), 1.0, DelayModel.constant(19)),
        Polynomial((0.0, 0.5, 1.0)),
        _dense(3, 20),
        Polynomial((0.0,) + _dense(4, 20).coeffs),  # a zero root on a degree-20 shape
        _dense(5, 80),
    ]


def _digest(rootsets):
    h = hashlib.sha256()
    for rs in rootsets:
        h.update(np.asarray(rs.roots, dtype=complex).tobytes())
        h.update(np.asarray(rs.residuals, dtype=float).tobytes())
        h.update(rs.iterations.to_bytes(4, "little"))
    return h.hexdigest()


class TestBatched:
    def test_batch_matches_one_at_a_time(self):
        ps = _mixed()
        assert all_roots_many(ps) == [all_roots(p) for p in ps]

    def test_empty_list(self):
        assert all_roots_many([]) == []

    def test_first_failure_in_input_order_raises(self):
        first, second = _dense(1, 30), _dense(6, 25)
        with pytest.raises(NoConvergence) as alone:
            all_roots(first, max_iter=1)
        with pytest.raises(NoConvergence) as ei:
            all_roots_many([Polynomial((0.0, 0.0, 2.0)), first, second], max_iter=1)
        assert ei.value.iterations == 1
        assert ei.value.best == alone.value.best
        assert str(ei.value) == str(alone.value)
        assert len(ei.value.best.roots) == 30

    def test_invalid_degree_raises_in_input_order(self):
        bad_iter = _dense(1, 30)
        with pytest.raises(NoConvergence):
            all_roots_many([bad_iter, Polynomial((3.0,))], max_iter=1)
        with pytest.raises(ValueError):
            all_roots_many([Polynomial((3.0,)), bad_iter], max_iter=1)

    def test_subnormal_coefficient_raises_in_input_order(self):
        # z (z^2 + 1e-320): the error names the coefficient of the input
        good, bad = Polynomial((0.5, -1.0, 1.0)), Polynomial((0.0, 1e-320, 0.0, 1.0))
        with pytest.raises(ValueError, match="coefficient 1 is subnormal"):
            all_roots_many([good, bad, good])
        with pytest.raises(NoConvergence):
            all_roots_many([_dense(1, 30), bad], max_iter=1)
        with pytest.raises(ValueError, match="subnormal"):
            all_roots_many([bad, _dense(1, 30)], max_iter=1)

    def test_frozen_digest(self):
        # (roots, residuals, iterations) of 30 polynomials from each family of
        # the root-finder criterion; the starting points and the evaluation
        # order fix every last bit and every iteration count
        families = _random_families(np.random.default_rng(11))
        ps = [Polynomial(c) for family in families for c in family[:30]]
        assert len(ps) == 120
        assert _digest(all_roots_many(ps)) == (
            "e94e4bef3e7e3858b169e2ac6b6056e6c7e2c23dda0d238aeb13f98885988e8d"
        )

    def test_frozen_digest_of_characteristic_and_sparse_families(self):
        # all 500 characteristic and sparse polynomials of the root-finder
        # criterion, solved in batches that mix their exponent sets
        families = _random_families(np.random.default_rng(11))
        ps = [Polynomial(c) for c in families[1] + families[2]]
        assert _digest(all_roots_many(ps)) == (
            "c3116ed2e0d02e7a5cda7f5646f68693a03d27c6244419921cb47fc15228d139"
        )

    def test_pair_blocks_do_not_change_results(self, monkeypatch):
        big = _dense(7, 80)
        ps = _mixed()
        want_big, want = all_roots(big), all_roots_many(ps)
        monkeypatch.setattr(roots, "PAIR_BLOCK", 5)
        assert all_roots(big) == want_big
        assert all_roots_many(ps) == want

    def test_sweep_bands_do_not_change_results(self, monkeypatch):
        ps = _mixed()
        family = [Polynomial(c) for c in _random_families(np.random.default_rng(11))[1]]
        want, want_family = all_roots_many(ps), all_roots_many(family)
        for block in (5, 10**9):
            monkeypatch.setattr(roots, "SWEEP_BLOCK", block)
            assert all_roots_many(ps) == want
            assert all_roots_many(family) == want_family

    def test_large_batch_matches_one_at_a_time(self, monkeypatch):
        # 1,100 x 15 estimates pass numpy's 256 KiB threshold for reusing a
        # temporary, past which ``newton * rep`` would run as
        # ``rep *= newton``, and a complex product with FMA need not commute
        ps = [_dense(seed, 15) for seed in range(1100)]
        want = [all_roots(p) for p in ps]
        assert all_roots_many(ps) == want
        monkeypatch.setattr(roots, "SWEEP_BLOCK", 10**9)  # one band of 16,500
        assert all_roots_many(ps) == want
