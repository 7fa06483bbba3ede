"""Frozen digests of every characteristic polynomial's terms and coefficients.

They cover the sparse terms of ``char_poly_terms`` and the coefficients of
``char_poly`` (sign of zero included) for every variant and momentum in the
grid, every delay from 0 to 300 plus ``MAX_TAU``, and a spread of delay
pmfs.  A combination that is refused contributes its error message instead.
The named builders must give the same coefficients as ``char_poly``
everywhere on the grid.

The grid is hashed in two parts.  Plain at every delay and every variant at
constant delays were frozen before the constant-delay and random-delay
polynomials shared one term builder, and have not moved since.  Momentum
and shifted with a pmf were frozen when momentum began to take a pmf and
shifted momentum kept its refusal.
"""

import hashlib
import re

import numpy as np
import pytest

from staleness_lab.charpoly import (
    MAX_TAU,
    DelayModel,
    OptimizerSpec,
    char_poly,
    char_poly_momentum,
    char_poly_plain,
    char_poly_shifted,
    char_poly_stochastic,
    char_poly_terms,
    pmf_discrete_gaussian,
    pmf_uniform,
)

VARIANTS = [("plain", 0.0)] + [(v, m) for v in ("momentum", "shifted")
                               for m in (0.0, 0.5, 0.9, 0.99)]
STEPS = [(eta, a) for eta in (0.013, 0.29, 1.7) for a in (0.37, 1.0, 2.9)]
CONSTANT = [DelayModel.constant(tau) for tau in [*range(301), MAX_TAU]]
PMFS = (
    [DelayModel((3,), (1.0,)), DelayModel.pmf({3: 0.5, 1: 0.5}),
     DelayModel.pmf({1: 0.5, 2: 0.5}), pmf_uniform(1, 3), pmf_uniform(1, 4), pmf_uniform(2, 5)]
    + [pmf_uniform(lo, hi) for hi in range(1, 25) for lo in range(1, hi + 1)]
    + [pmf_discrete_gaussian(mu) for mu in (1, 3, 6, 10, 30)]
)

GRID = [(variant, m, delay) for variant, m in VARIANTS for delay in CONSTANT + PMFS]
PARTS = {
    "plain or constant delay": (
        [(v, m, d) for v, m, d in GRID if v == "plain" or d.is_constant],
        "83331d59ff5c48c166cb3791c21dcc29e5285a01859ae4415857a71f834f99bb"),
    "momentum or shifted with a pmf": (
        [(v, m, d) for v, m, d in GRID if v != "plain" and not d.is_constant],
        "3a35d0d06e5975477061ac44de8941416e3fa66cdaebfd3f914397267f119e3d"),
}


def _named(variant, m, eta, a, delay):
    """The named builders' polynomials for one grid point."""
    if variant == "plain":
        yield char_poly_stochastic(eta, a, delay)
        if delay.is_constant:
            yield char_poly_plain(eta, a, delay.tau)
    elif delay.is_constant:
        builder = char_poly_momentum if variant == "momentum" else char_poly_shifted
        yield builder(eta, a, delay.tau, m)


def _coeff_bytes(poly) -> bytes:
    return np.asarray(poly.coeffs, dtype=float).tobytes()


@pytest.mark.parametrize("part", PARTS)
def test_terms_and_coefficients_match_the_frozen_digest(part):
    grid, digest = PARTS[part]
    h = hashlib.sha256()
    for variant, m, delay in grid:
        try:
            terms = char_poly_terms(variant, m, delay)
        except ValueError as e:
            h.update(repr(e).encode())
            with pytest.raises(ValueError, match=re.escape(str(e))):
                char_poly(OptimizerSpec(variant, 0.1, m), 1.0, delay)
            continue
        h.update(repr(terms).encode())
        for eta, a in STEPS:
            coeffs = _coeff_bytes(char_poly(OptimizerSpec(variant, eta, m), a, delay))
            for poly in _named(variant, m, eta, a, delay):
                assert _coeff_bytes(poly) == coeffs
            h.update(coeffs)
    assert h.hexdigest() == digest
