"""Property tests: a batched solve does not depend on batch order or company."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from staleness_lab.charpoly import Polynomial
from staleness_lab.errors import NoConvergence
from staleness_lab.roots import all_roots_many

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
