"""Root finding for stability analysis of delay recurrences.

The solver is an Ehrlich-Aberth simultaneous iteration: every root estimate
takes a Newton step corrected by the repulsion of the other estimates, so the
whole root set converges together.  Estimates start at Bini's points from the
Newton polygon of the coefficients (D. A. Bini, Numer. Algorithms 13, 1996):
each edge of the polygon puts as many estimates as it spans on a circle of
the radius it predicts, so a delay polynomial, whose roots cluster near
``|z| = 1``, starts next to its roots and converges in a few dozen sweeps
even at degree 10001.  The fixed phases keep runs deterministic and keep
starting points off the real axis where conjugate pairs could trap them.
Every sweep evaluates the polynomial and its derivative by Horner's rule.

``all_roots_many`` solves a list of polynomials in batches: polynomials of the
same degree (after stripping zero roots) share each sweep as rows of a
``(k, deg)`` array, and a row leaves its batch as soon as it converges.
Batching is invisible in the results: every elementwise step does the same
float operations on a row as on a lone polynomial, and every row sum runs
along a contiguous axis of its own row, so each ``RootSet`` (roots,
residuals and iteration count) is bit-identical to solving that polynomial
alone.  The pairwise repulsion is built in blocks of at most ``PAIR_BLOCK``
complex elements, so memory stays bounded at any degree.  ``all_roots`` is
the one-polynomial batch.

A companion-matrix eigensolve would do the same job; it is deliberately kept
out of the library and used only as an independent cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charpoly import Polynomial, _check_count
from .errors import NoConvergence

GOLDEN_ANGLE = 2.0 * math.pi * (2.0 - (1.0 + math.sqrt(5.0)) / 2.0)
START_PHASE = 0.37
RESIDUAL_TOL = 1e-9

# Converged once every per-root update, relative to the root's magnitude, is
# smaller than this.
UPDATE_TOL = 1e-13

# Clustered roots can pin update sizes at rounding noise above UPDATE_TOL
# while the backward error is already at machine level; accept once
# residuals reach it.
RESIDUAL_FLOOR = 5e-14

# Most complex elements in one block of pairwise differences (2 MB); a
# dense deg x deg block would take 1.6 GB at degree 10001.
PAIR_BLOCK = 1 << 17


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial, in deterministic order.

    Sorted by descending magnitude (ties by real part, then imaginary part),
    so ``roots[0]`` is always a root of maximum magnitude.  ``residuals[i]``
    is ``|P(roots[i])|`` scaled by the coefficient magnitude at that point, a
    backward-error measure that is meaningful for large degree.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    iterations: int

    @property
    def max_magnitude(self) -> float:
        return abs(self.roots[0])


def _split_zero_roots(coeffs: tuple[float, ...]) -> tuple[int, tuple[float, ...]]:
    """Count exact roots at z = 0 (zero low-order coefficients) and strip them."""
    k = 0
    while coeffs[k] == 0.0:
        k += 1
    return k, coeffs[k:]


def _horner(cols: np.ndarray, z: np.ndarray, p: np.ndarray, dp: np.ndarray | None = None):
    """Evaluate row ``r``'s polynomial at ``z[r]`` into ``p`` (and ``dp``), in place.

    ``cols[j]`` is coefficient ``j`` of every row as a ``(k, 1)`` column.
    """
    p.fill(0.0)
    if dp is not None:
        dp.fill(0.0)
    for coef in cols[::-1]:
        if dp is not None:
            np.multiply(dp, z, out=dp)
            np.add(dp, p, out=dp)
        np.multiply(p, z, out=p)
        np.add(p, coef, out=p)


def _scaled_residuals(cols: np.ndarray, z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``|P(z)| / sum_k |c_k||z|^k`` per point, where ``p`` is ``P(z)``."""
    scale = np.empty_like(z)
    _horner(np.abs(cols), np.abs(z).astype(complex), scale)
    return np.abs(p) / np.maximum(np.abs(scale), np.finfo(float).tiny)


def _repulsion(z: np.ndarray) -> np.ndarray:
    """``sum_{j != i} 1 / (z[r, i] - z[r, j])`` for every row ``r``, block by block."""
    k, n = z.shape
    out = np.empty_like(z)
    rows = min(n, max(1, PAIR_BLOCK // n))
    polys = max(1, PAIR_BLOCK // (n * n))
    for a in range(0, k, polys):
        zr = z[a:a + polys]
        for i in range(0, n, rows):
            diff = zr[:, i:i + rows, None] - zr[:, None, :]
            d = np.arange(diff.shape[1])
            diff[:, d, d + i] = np.inf
            np.divide(1.0, diff, out=diff)
            out[a:a + polys, i:i + rows] = diff.sum(axis=2)
            del diff  # freed before the next block is built
    return out


def _start_points(c: np.ndarray, deg: int) -> tuple[np.ndarray, float]:
    """Bini's starting points from the Newton polygon, and their largest radius.

    The Newton polygon is the upper convex hull of ``(k, log|c_k|)`` over the
    nonzero coefficients.  An edge from ``i`` to ``j`` predicts ``j - i``
    roots of magnitude about ``|c_i / c_j|^(1/(j-i))``, and that many points
    start evenly spaced on that circle.  They sit half a step off the edge's
    phase, which is turned by the golden angle per edge, so that no two edges
    line their points up.  The radius is clamped to keep ``radius**deg``
    evaluable.
    """
    ks = np.flatnonzero(c)
    logs = np.log(np.abs(c[ks]))
    hull = [0]
    for t in range(1, len(ks)):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            # keep b only if it lies strictly above the chord from a to t
            if (logs[b] - logs[a]) * (ks[t] - ks[a]) > (logs[t] - logs[a]) * (ks[b] - ks[a]):
                break
            hull.pop()
        hull.append(t)
    z, radii = [], []
    for edge, (a, b) in enumerate(zip(hull, hull[1:])):
        n = int(ks[b] - ks[a])
        radii.append(math.exp(min(max((logs[a] - logs[b]) / n, -576.0 / deg), 576.0 / deg)))
        angles = START_PHASE + GOLDEN_ANGLE * edge + 2.0 * math.pi * (np.arange(n) + 0.5) / n
        z.append(radii[-1] * np.exp(1j * angles))
    return np.concatenate(z), max(radii)


def _assemble(z: np.ndarray, res: np.ndarray, n_zero: int, iterations: int) -> RootSet:
    if n_zero:
        z = np.concatenate([z, np.zeros(n_zero, complex)])
        res = np.concatenate([res, np.zeros(n_zero)])
    order = np.lexsort((z.imag, z.real, -np.abs(z)))
    return RootSet(
        roots=tuple(complex(v) for v in z[order]),
        residuals=tuple(float(v) for v in res[order]),
        iterations=iterations,
    )


def _aberth(deg, members, max_iter, outcomes) -> None:
    """Solve same-degree polynomials together; ``members`` are ``(slot, n_zero, c)``.

    ``c`` is monic with a nonzero constant term.  Each result, a RootSet or
    the NoConvergence to raise, goes to ``outcomes[slot]``.
    """
    live = list(members)
    starts = [_start_points(c, deg) for _, _, c in live]
    z = np.stack([points for points, _ in starts])
    radii = np.asarray([radius for _, radius in starts])
    cols = np.stack([c for _, _, c in live], axis=1)[:, :, None]
    p = np.empty_like(z)
    dp = np.empty_like(z)

    def settle(rows, res, iterations, converged):
        nonlocal z, p, dp, cols, radii, live
        for r, row_res in zip(rows, res):
            slot, n_zero, _ = live[r]
            result = _assemble(z[r], row_res, n_zero, iterations)
            worst = float(np.max(row_res))
            if not converged:
                result = NoConvergence(
                    f"root iteration did not meet tol={UPDATE_TOL} within {max_iter} sweeps",
                    best=result,
                    iterations=iterations,
                )
            elif worst > RESIDUAL_TOL:
                result = NoConvergence(
                    f"root updates stalled with residual {worst:.3e} > {RESIDUAL_TOL}",
                    best=result,
                    iterations=iterations,
                )
            outcomes[slot] = result
        keep = np.ones(len(live), bool)
        keep[rows] = False
        z, p, dp = z[keep], p[keep], dp[keep]
        cols, radii = cols[:, keep], radii[keep]
        live = [m for m, k in zip(live, keep) if k]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _horner(cols, z, p, dp)
        for it in range(1, max_iter + 1):
            newton = p / dp
            w = newton / (1.0 - newton * _repulsion(z))
            bad = ~np.isfinite(w)
            restart = bad.any(axis=1)
            w[bad] = 0.0
            z = z - w
            for r in np.flatnonzero(restart):
                # Collided, critical or overflowed points: restart each at a
                # fresh deterministic spot within the largest start radius.
                idx = np.flatnonzero(bad[r])
                z[r, idx] = (
                    radii[r]
                    * (0.9 ** (it % 25))
                    * np.exp(1j * (START_PHASE + GOLDEN_ANGLE * (it + idx)))
                )
            # The next sweep's values, and P(z) for the residuals below.
            _horner(cols, z, p, dp)
            upd = np.max(np.abs(w) / np.abs(z), axis=1)
            small = ~restart & (upd < UPDATE_TOL)
            # Ill-conditioned clusters jitter forever at the conditioning
            # noise floor; once backward error is at machine level there is
            # nothing left to converge.  Checked on a stride to stay cheap.
            check = ~restart & (small | (upd < 1e-4) | (it % 10 == 0))
            if check.any():
                rows = np.flatnonzero(check)
                res = _scaled_residuals(cols[:, rows], z[rows], p[rows])
                done = small[rows] | (np.max(res, axis=1) < RESIDUAL_FLOOR)
                if done.any():
                    settle(rows[done], res[done], it, True)
                    if not live:
                        return
        res = _scaled_residuals(cols, z, p)
    settle(np.arange(len(live)), res, max_iter, False)


def all_roots_many(polys: Sequence[Polynomial], max_iter: int = 500) -> list[RootSet]:
    """Find every root of each polynomial in ``polys``, batching same-shape ones.

    Returns ``[all_roots(p, max_iter) for p in polys]``, bit for bit, and
    raises what that loop would raise first: the ValueError or NoConvergence
    of the first failing polynomial in input order.  A polynomial of degree
    0, or with a nonzero coefficient below ``np.finfo(float).tiny`` once
    divided by the leading one, fails with a ValueError.  ``max_iter`` is a
    count (``charpoly._check_count``), checked before any polynomial.
    """
    max_iter = _check_count("max_iter", max_iter)
    outcomes: list = [None] * len(polys)
    groups: dict = {}
    for slot, p in enumerate(polys):
        if p.degree < 1:
            outcomes[slot] = ValueError("need degree >= 1 to have roots")
            continue
        n_zero, work = _split_zero_roots(p.coeffs)
        deg = len(work) - 1
        if deg == 0:
            outcomes[slot] = _assemble(np.empty(0, complex), np.empty(0), n_zero, 0)
            continue
        c = np.asarray(work, float) / work[-1]
        sub = np.flatnonzero((c != 0.0) & (np.abs(c) < np.finfo(float).tiny))
        if sub.size:
            # subnormal arithmetic cannot see the error of a root estimate
            k = int(sub[0])
            outcomes[slot] = ValueError(
                f"coefficient {n_zero + k} is subnormal ({float(c[k])!r}) once divided by the "
                f"leading one; the root solver needs normal floats"
            )
            continue
        groups.setdefault(deg, []).append((slot, n_zero, c))
    for deg, members in groups.items():
        _aberth(deg, members, max_iter, outcomes)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def all_roots(p: Polynomial, max_iter: int = 500) -> RootSet:
    """Find every root of ``p``.

    Parameters
    ----------
    p : Polynomial
        Degree >= 1.
    max_iter : int
        Iteration cap, an integer >= 1; exceeding it raises NoConvergence
        carrying the best iterate so far.  A root has converged once its
        update, relative to its magnitude, is below ``UPDATE_TOL``.

    Returns
    -------
    RootSet
        Exactly ``p.degree`` roots, every scaled residual <= 1e-9.
    """
    return all_roots_many([p], max_iter)[0]
