"""Property tests: how a threshold search answers to scaling and to the delay,
that stability flips once along eta, at the threshold, and the bound on the
crossing value that lets a search skip brackets."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import companion_max_magnitude

from staleness_lab.charpoly import (
    DelayModel,
    OptimizerSpec,
    char_poly,
    pmf_discrete_gaussian,
    pmf_uniform,
)
from staleness_lab import stability
from staleness_lab.stability import numeric_threshold

variant_and_m = st.one_of(
    st.tuples(st.just("plain"), st.just(0.0)),
    st.tuples(st.sampled_from(("momentum", "shifted")), st.floats(0.0, 0.99)),
)


@settings(max_examples=40, deadline=None, database=None)
@given(variant_and_m, st.integers(0, 200), st.integers(-8, 8))
def test_bracket_scales_exactly_with_the_curvature(vm, tau, j):
    variant, m = vm
    a = 2.0**j
    unit = numeric_threshold(variant, 1.0, DelayModel.constant(tau), m=m)
    scaled = numeric_threshold(variant, a, DelayModel.constant(tau), m=m)
    assert scaled.bracket == (unit.bracket[0] / a, unit.bracket[1] / a)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 300))
def test_point_mass_pmf_matches_the_constant_delay(tau):
    point_mass = DelayModel((tau,), (1.0,)) if tau == 0 else DelayModel.pmf({tau: 1.0})
    assert numeric_threshold("plain", 1.0, point_mass).bracket == \
        numeric_threshold("plain", 1.0, DelayModel.constant(tau)).bracket


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 200), st.integers(1, 100))
def test_plain_threshold_falls_as_the_delay_grows(tau, step):
    shorter = numeric_threshold("plain", 1.0, DelayModel.constant(tau))
    longer = numeric_threshold("plain", 1.0, DelayModel.constant(tau + step))
    assert longer.eta_star < shorter.eta_star


def _assert_flips_once(variant, m, delay):
    eta_star = numeric_threshold(variant, 1.0, delay, m=m).eta_star

    def spectral_radius(f):
        poly = char_poly(OptimizerSpec(variant, f * eta_star, m), 1.0, delay)
        return companion_max_magnitude(poly.coeffs)

    assert all(spectral_radius(f) < 1.0 for f in (0.5, 0.9, 0.99))
    assert all(spectral_radius(f) > 1.0 for f in (1.01, 1.5, 4.0))


@settings(max_examples=40, deadline=None, database=None)
@given(variant_and_m, st.integers(0, 24))
def test_stability_flips_once_at_the_threshold(vm, tau):
    variant, m = vm
    _assert_flips_once(variant, m, DelayModel.constant(tau))


uniform_pmfs = st.integers(1, 24).flatmap(
    lambda hi: st.integers(1, hi).map(lambda lo: pmf_uniform(lo, hi)))


@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(uniform_pmfs, st.integers(1, 12).map(pmf_discrete_gaussian)))
def test_stability_flips_once_at_the_pmf_threshold(pmf):
    _assert_flips_once("plain", 0.0, pmf)


def _random_pmf(entries):
    delays = sorted(entries)
    total = math.fsum(entries.values())
    return DelayModel(tuple(delays), tuple(entries[d] / total for d in delays))


random_pmfs = st.dictionaries(st.integers(1, 40), st.floats(0.01, 1.0),
                              min_size=2, max_size=40).map(_random_pmf)
crossing_cases = st.one_of(
    st.tuples(st.just("plain"), st.just(0.0), st.integers(0, 300).map(DelayModel.constant)),
    st.tuples(st.sampled_from(("momentum", "shifted")), st.floats(0.0, 0.999),
              st.integers(0, 300).map(DelayModel.constant)),
    st.tuples(st.just("plain"), st.just(0.0), random_pmfs),
    st.tuples(st.just("momentum"), st.floats(0.0, 0.999), random_pmfs),
)


@pytest.mark.parametrize("delay", [DelayModel((1, 12), (0.5, 0.5)), DelayModel((2, 17), (0.5, 0.5))])
def test_stability_flips_once_where_b_vanishes_at_minus_one(delay):
    # equal mass on odd and even delays: B(-1) = 0, so no root ever sits at
    # z = -1, and the rounded imaginary parts of e^(i pi) must not pick one
    _assert_flips_once("plain", 0.0, delay)


@settings(max_examples=60, deadline=None, database=None)
@given(crossing_cases)
@example(("plain", 0.0, _random_pmf({12: 1.0, 1: 1.0})))
def test_every_crossing_value_is_at_least_the_chord_to_one(case):
    """``k >= |e^(i theta) - 1| = 2 sin(theta / 2)`` at every positive crossing.

    Every polynomial ``char_poly_terms`` builds factors as ``A = (z - 1) C``
    with ``|C| >= 1 - m`` on the unit circle, while ``|B| <= 1 - m`` there:
    ``C = z^K`` plain, ``z^(K-1) (z - m)`` momentum (``z - m`` at tau 0),
    ``z^(K+1) - m`` shifted.  ``_crossings`` drops every bracket whose lower
    angle already breaks the bound for the best ``k`` found, so a variant
    that breaks the factorisation must fail here, not in a digest.  Every
    bracket is bisected, none cut.
    """
    variant, m, delay = case
    split = stability._Split(variant, m, delay)
    lows, = stability._bisect_brackets(split, None, [stability._scan(split)])
    theta = np.append(lows, np.pi)
    a, b = split.a(theta), split.b(theta)
    # real at pi, as in _picks: where B(-1) = 0 there is no crossing to bound
    a.imag[-1] = b.imag[-1] = 0.0
    w = -a * np.conj(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = w.real / (b.real**2 + b.imag**2)
    crossing = np.isfinite(k) & (k > 0.0)
    assert (k[crossing] >= 2.0 * np.sin(0.5 * theta[crossing]) * (1.0 - 1e-12)).all()


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from((("plain", 0.0), ("momentum", 0.5), ("shifted", 0.9))),
       st.sampled_from((0, 1, 2, 4, 8, 16, 64)), st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
       st.sampled_from((1e-8, 1e-12, 2.0**-52)))
@example(("plain", 0.0), 2, 1.0, 2.0**-52)  # adjacent ends: eta* is lo
@example(("plain", 0.0), 1, 5.84678727693734e-309, 1e-8)  # lo + hi overflows
@example(("plain", 0.0), 4, 1e-320, 1e-8)  # subnormal a: refused
def test_every_search_answers_within_its_bracket_or_refuses_the_curvature(vm, tau, a, rel_tol):
    """From a subnormal curvature to the float maximum, a search returns a
    finite ``eta*`` with ``lo <= eta* < hi`` and a bracket within ``rel_tol``
    (or at adjacent floats, or around a subnormal ``eta*``), or refuses a
    curvature whose step sizes overflow to inf by name."""
    variant, m = vm
    try:
        r = numeric_threshold(variant, a, tau, m=m, rel_tol=rel_tol)
    except ValueError as exc:
        assert str(exc) == f"a = {a!r} is too small: its step sizes overflow to inf"
        return
    lo, hi = r.bracket
    assert math.isfinite(r.eta_star) and lo <= r.eta_star < hi
    assert (hi - lo <= rel_tol * r.eta_star or hi == np.nextafter(lo, math.inf)
            or r.eta_star < np.finfo(float).tiny)
