"""Property tests: a batched solve does not depend on batch order or company,
and every start finds every root."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import companion_roots

from staleness_lab.charpoly import DelayModel, OptimizerSpec, Polynomial, char_poly
from staleness_lab.errors import NoConvergence
from staleness_lab.roots import all_roots, all_roots_many

coefficient = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
leading = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)


@st.composite
def polynomials(draw):
    # a few degrees only, so that lists often hold several polynomials of one shape
    deg = draw(st.sampled_from((1, 2, 5, 13, 14, 30)) | st.integers(1, 30))
    body = draw(st.lists(coefficient, min_size=deg, max_size=deg))
    return Polynomial(tuple(body) + (draw(leading),))


def outcome(ps):
    """The RootSets of ``ps``, or what the solve raised."""
    try:
        return all_roots_many(ps)
    except NoConvergence as exc:
        return ("raised", str(exc), exc.best, exc.iterations)
    except ValueError as exc:  # a coefficient subnormal once monic
        return ("raised", str(exc))


def expected(singles):
    """What one batch must give, from the polynomials' one-at-a-time outcomes."""
    for single in singles:
        if isinstance(single, tuple):
            return single
    return [single[0] for single in singles]


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(polynomials(), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_batch_is_independent_of_order_and_company(ps, rnd):
    singles = [outcome([p]) for p in ps]
    assert outcome(ps) == expected(singles)
    order = list(range(len(ps)))
    rnd.shuffle(order)
    assert outcome([ps[i] for i in order]) == expected([singles[i] for i in order])


sign = st.sampled_from((-1.0, 1.0))


@st.composite
def sparse_polynomials(draw):
    """Three to eight nonzero terms at degree 20 to 120."""
    deg = draw(st.integers(20, 120))
    coeffs = [0.0] * deg + [draw(leading)]
    for k in draw(st.sets(st.integers(0, deg - 1), min_size=2, max_size=7)):
        coeffs[k] = draw(sign) * draw(st.floats(0.05, 2.0))
    return Polynomial(tuple(coeffs))


@st.composite
def wild_polynomials(draw):
    """Coefficients from 1e-5 to 1e5 in magnitude, of either sign."""
    deg = draw(st.integers(1, 30))
    return Polynomial(tuple(draw(sign) * 10.0 ** draw(st.floats(-5.0, 5.0)) for _ in range(deg + 1)))


@st.composite
def characteristic_polynomials(draw):
    variant = draw(st.sampled_from(("plain", "momentum", "shifted")))
    m = 0.0 if variant == "plain" else draw(st.floats(0.0, 0.99))
    tau = draw(st.integers(0, 150))
    # down to 1e-4 of the edge, where the roots split into rings of far
    # different radii
    eta = 10.0 ** draw(st.floats(-4.0, 0.4)) * 2 * math.sin(math.pi / (4 * tau + 2))
    return char_poly(OptimizerSpec(variant, eta, m), 1.0, DelayModel.constant(tau))


@settings(max_examples=80, deadline=None, database=None)
@given(polynomials() | sparse_polynomials() | wild_polynomials() | characteristic_polynomials())
def test_roots_match_the_companion_oracle_both_ways(p):
    try:
        got = np.asarray(all_roots(p).roots)
    except ValueError:
        # refused only for a coefficient that is subnormal once monic
        c = np.asarray(p.coeffs) / p.coeffs[-1]
        assert np.any((c != 0.0) & (np.abs(c) < np.finfo(float).tiny))
        return
    want = np.asarray(companion_roots(p.coeffs))
    for w in want:
        assert np.min(np.abs(got - w)) <= 1e-6 * max(1.0, abs(w))
    for g in got:
        assert np.min(np.abs(want - g)) <= 1e-6 * max(1.0, abs(g))
