import math

import pytest

from oracles import companion_roots, momentum_pmf_transition, spectral_radius

from staleness_lab.charpoly import (
    DelayModel,
    OptimizerSpec,
    Polynomial,
    char_poly,
    char_poly_momentum,
    char_poly_plain,
    char_poly_shifted,
    char_poly_stochastic,
    pmf_discrete_gaussian,
    pmf_uniform,
)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = Polynomial((1.0, 2.0, 0.0, 0.0))
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Polynomial((0.0, 0.0))


class TestDelayModel:
    def test_constant_point_mass(self):
        d = DelayModel.constant(4)
        assert d.is_constant and d.tau == 4 and d.max_delay == 4
        assert d.expected_delay() == 4.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            DelayModel.constant(-1)

    def test_pmf_orders_entries(self):
        d = DelayModel.pmf({3: 0.5, 1: 0.5})
        assert d.delays == (1, 3)
        assert d.expected_delay() == 2.0

    def test_pmf_rejects_zero_delay(self):
        with pytest.raises(ValueError):
            DelayModel.pmf({0: 0.5, 1: 0.5})

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DelayModel((1, 2), (0.5, 0.4))

    def test_tau_undefined_for_pmf(self):
        with pytest.raises(ValueError):
            pmf_uniform(1, 3).tau


class TestOptimizerSpec:
    def test_rejects_zero_eta(self):
        with pytest.raises(ValueError):
            OptimizerSpec("plain", 0.0)

    def test_rejects_unit_momentum(self):
        with pytest.raises(ValueError):
            OptimizerSpec("momentum", 0.1, 1.0)

    def test_plain_requires_zero_m(self):
        with pytest.raises(ValueError):
            OptimizerSpec("plain", 0.1, 0.5)


class TestPlainPoly:
    def test_general_shape(self):
        # z^5 - z^4 + eta*a, ascending
        p = char_poly_plain(0.25, 2.0, 4)
        assert p.coeffs == (0.5, 0.0, 0.0, 0.0, -1.0, 1.0)

    def test_tau_zero_degenerates_to_linear(self):
        p = char_poly_plain(0.3, 1.0, 0)
        # z - (1 - eta*a): terms collide on z^0
        assert p.coeffs == (0.3 - 1.0, 1.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            char_poly_plain(-0.1, 1.0, 2)
        with pytest.raises(ValueError):
            char_poly_plain(0.1, 0.0, 2)
        with pytest.raises(ValueError):
            char_poly_plain(0.1, 1.0, 2.5)


class TestMomentumPoly:
    def test_general_shape(self):
        eta, a, m = 0.2, 1.5, 0.4
        p = char_poly_momentum(eta, a, 3, m)
        grad = eta * (1 - m) * a
        assert p.coeffs == (grad, 0.0, m, -(1 + m), 1.0)

    def test_tau_one_merges_momentum_into_constant(self):
        eta, a, m = 0.2, 1.0, 0.3
        p = char_poly_momentum(eta, a, 1, m)
        grad = eta * (1 - m) * a
        assert p.coeffs == (grad + m, -(1 + m), 1.0)

    def test_tau_zero_quadratic(self):
        eta, a, m = 0.2, 1.0, 0.3
        p = char_poly_momentum(eta, a, 0, m)
        grad = eta * (1 - m) * a
        assert p.coeffs == (m, -(1 + m) + grad, 1.0)

    def test_m_zero_matches_plain(self):
        assert char_poly_momentum(0.2, 1.3, 5, 0.0).coeffs == char_poly_plain(0.2, 1.3, 5).coeffs


class TestShiftedPoly:
    def test_general_shape(self):
        eta, a, m = 0.2, 1.0, 0.5
        p = char_poly_shifted(eta, a, 2, m)
        grad = eta * (1 - m) * a
        assert p.coeffs == (m, grad - m, 0.0, -1.0, 1.0)

    def test_tau_zero_collides_on_linear_term(self):
        eta, a, m = 0.2, 1.0, 0.5
        p = char_poly_shifted(eta, a, 0, m)
        grad = eta * (1 - m) * a
        assert p.coeffs == (m, grad - m - 1.0, 1.0)

    def test_m_zero_is_plain_times_z(self):
        # shifted with m=0 is z * plain(tau): same roots plus one at zero
        assert char_poly_shifted(0.2, 1.0, 3, 0.0).coeffs == (0.0,) + char_poly_plain(0.2, 1.0, 3).coeffs


class TestStochasticPoly:
    def test_point_mass_reproduces_constant(self):
        d = DelayModel((3,), (1.0,))
        p = char_poly_stochastic(0.2, 1.0, d)
        assert p.coeffs == char_poly_plain(0.2, 1.0, 3).coeffs

    def test_uniform_two_point(self):
        eta, a = 0.3, 1.0
        d = DelayModel.pmf({1: 0.5, 2: 0.5})
        p = char_poly_stochastic(eta, a, d)
        # z^3 - z^2 + eta*a*(0.5 z + 0.5)
        assert p.coeffs == (0.15, 0.15, -1.0, 1.0)

    def test_mass_on_max_delay_hits_constant_term(self):
        d = pmf_uniform(1, 4)
        p = char_poly_stochastic(0.4, 1.0, d)
        assert p.coeffs[0] == 0.4 * 0.25
        assert p.degree == 5


class TestMomentumPmfPoly:
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("pmf", [pmf_uniform(1, 3), pmf_uniform(2, 9), pmf_uniform(8, 32),
                                     pmf_discrete_gaussian(8)],
                             ids=["1..3", "2..9", "8..32", "g8"])
    def test_roots_are_the_update_rules_spectrum(self, pmf, m):
        # the largest root modulus is the spectral radius of the expected
        # heavy-ball recurrence, stepped on its state window and velocity
        for k in (0.01, 0.1, 0.5, 1.3):
            poly = char_poly(OptimizerSpec("momentum", k, m), 1.0, pmf)
            want = spectral_radius(momentum_pmf_transition(k, 1.0, m, pmf.delays, pmf.probs))
            got = float(max(abs(companion_roots(poly.coeffs))))
            assert got == pytest.approx(want, rel=1e-10)


class TestDispatch:
    def test_routes_each_variant(self):
        d = DelayModel.constant(2)
        assert char_poly(OptimizerSpec("plain", 0.1), 1.0, d).coeffs == char_poly_plain(0.1, 1.0, 2).coeffs
        assert char_poly(OptimizerSpec("momentum", 0.1, 0.5), 1.0, d).coeffs == char_poly_momentum(0.1, 1.0, 2, 0.5).coeffs
        assert char_poly(OptimizerSpec("shifted", 0.1, 0.5), 1.0, d).coeffs == char_poly_shifted(0.1, 1.0, 2, 0.5).coeffs

    def test_random_delay_with_shifted_raises(self):
        with pytest.raises(ValueError, match="shifted momentum needs a constant delay"):
            char_poly(OptimizerSpec("shifted", 0.1, 0.5), 1.0, pmf_uniform(1, 3))


class TestPmfBuilders:
    def test_uniform_masses(self):
        d = pmf_uniform(2, 5)
        assert d.delays == (2, 3, 4, 5)
        assert all(p == 0.25 for p in d.probs)
        assert d.expected_delay() == 3.5

    def test_uniform_rejects_zero_lo(self):
        with pytest.raises(ValueError):
            pmf_uniform(0, 3)

    def test_gaussian_normalized(self):
        for mu in (1, 3, 6, 30):
            d = pmf_discrete_gaussian(mu)
            assert abs(math.fsum(d.probs) - 1.0) < 1e-12
            assert d.delays[0] >= 1
            assert d.max_delay <= 2 * mu

    def test_gaussian_truncation_shifts_small_means(self):
        # frozen against Simpson quadrature of the interval masses
        assert abs(pmf_discrete_gaussian(1).expected_delay() - 1.3869819930038432) < 1e-12
        assert abs(pmf_discrete_gaussian(3).expected_delay() - 3.0180473752447825) < 1e-12
        assert abs(pmf_discrete_gaussian(6).expected_delay() - 6.0) < 1e-6
        assert pmf_discrete_gaussian(30).expected_delay() == pytest.approx(30.0, abs=1e-9)

    def test_gaussian_mass_concentrates_at_mu(self):
        d = pmf_discrete_gaussian(10)
        peak = d.delays[max(range(len(d.probs)), key=lambda i: d.probs[i])]
        assert peak == 10
