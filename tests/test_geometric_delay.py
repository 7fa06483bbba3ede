"""A geometric delay is dampened momentum: an exact check of the pmf path.

A delay with a geometric tail from a head ``d``, ``p_j = (1-q) q^(j-d)`` for
``j >= d``, has ``E[z^-tau] = (1-q) z^(1-d) / (z - q)``, so plain's equation
``(z - 1) + k E[z^-tau] = 0`` becomes ``z^(d-1) (z - 1) (z - q) + (1-q) k =
0``: heavy-ball momentum ``m = q`` at the constant delay ``d``, with the
same ``k = eta a`` (Mitliagkas, Zhang, Hadjis and Re, "Asynchrony begets
momentum", Allerton 2016, at ``d = 1``).  The pmf's threshold comes from
the dense Horner scan and momentum's from a few exponential terms, which
share no evaluation code.  At ``d = 1`` the polynomial is the quadratic
``z^2 - (1+q) z + q + (1-q) k``, whose Jury conditions give ``k* = 1``.
"""

import math

import pytest

from staleness_lab.charpoly import DelayModel
from staleness_lab.stability import numeric_threshold

REL_TOL = 1e-10


def geometric(d: int, q: float) -> DelayModel:
    """The geometric tail from ``d``, cut where ``q^n < 1e-40`` and renormalised:
    41, 133 and 875 terms at ``q`` 0.1, 0.5 and 0.9."""
    n = 1
    while q ** n >= 1e-40:
        n += 1
    weights = [(1.0 - q) * q ** i for i in range(n)]
    total = math.fsum(weights)
    return DelayModel.pmf({d + i: w / total for i, w in enumerate(weights)})


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("d", [1, 2, 4, 16, 64])
def test_a_geometric_delay_has_the_momentum_threshold(d, q):
    tail = numeric_threshold("plain", 1.0, geometric(d, q), rel_tol=REL_TOL).eta_star
    momentum = numeric_threshold("momentum", 1.0, d, m=q, rel_tol=REL_TOL).eta_star
    assert tail == pytest.approx(momentum, rel=REL_TOL, abs=0.0)
    if d == 1:
        assert tail == pytest.approx(1.0, rel=REL_TOL, abs=0.0)
        assert momentum == pytest.approx(1.0, rel=REL_TOL, abs=0.0)
