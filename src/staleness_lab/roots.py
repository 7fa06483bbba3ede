"""Root finding for stability analysis of delay recurrences.

The solver is an Ehrlich-Aberth simultaneous iteration: every root estimate
takes a Newton step corrected by the repulsion of the other estimates, so the
whole root set converges together.  Estimates start on a circle of radius
``1 + max|c_k / c_n|`` (no root can lie outside it) at golden-angle spacing
with a fixed phase, which keeps runs deterministic and keeps starting points
off the real axis where conjugate pairs could trap them.

``all_roots_many`` solves a list of polynomials in batches: polynomials of the
same shape (degree after stripping zero roots, and whether the sparse
evaluation applies) share each sweep as rows of a ``(k, deg)`` array, and a
row leaves its batch as soon as it converges.  A sparse row keeps its own
exponents.  Batching is invisible in the results: every elementwise step
does the same float operations on a row as on a lone polynomial, and every
row sum runs along a contiguous axis of its own row, so each ``RootSet``
(roots, residuals and iteration count) is bit-identical to solving that
polynomial alone.  The pairwise repulsion is built in blocks of at most
``PAIR_BLOCK`` complex elements, so memory stays bounded at any degree.
``all_roots`` is the one-polynomial batch.

A companion-matrix eigensolve would do the same job; it is deliberately kept
out of the library and used only as an independent cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charpoly import Polynomial
from .errors import NoConvergence

GOLDEN_ANGLE = 2.0 * math.pi * (2.0 - (1.0 + math.sqrt(5.0)) / 2.0)
START_PHASE = 0.37
RESIDUAL_TOL = 1e-9

# Clustered roots can pin update sizes at rounding noise above tol while the
# backward error is already at machine level; accept once residuals reach it.
RESIDUAL_FLOOR = 5e-14

# Below this many nonzero terms, evaluate through explicit powers instead of
# a full Horner sweep; the delay polynomials have 3-4 terms at degree 100+.
SPARSE_TERM_CUTOFF = 8

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

    def magnitudes(self) -> tuple[float, ...]:
        return tuple(abs(r) for r in self.roots)


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


def _eval_sparse(exps: np.ndarray, has: np.ndarray, terms: np.ndarray, z: np.ndarray):
    """Value and derivative through explicit powers, each row with its own terms.

    ``exps``, ``has`` and ``terms`` are ``(slots, k, 1)``: the exponent of
    term slot ``t`` in each row, whether the row has that term, and its
    coefficient.  Slot 0 is every row's constant term.  A row skips the
    slots it lacks, so it gets exactly the operations it would get alone.
    """
    p = np.zeros_like(z) + terms[0]
    dp = np.zeros_like(z)
    for e, on, coef in zip(exps[1:], has[1:], terms[1:]):
        ze1 = np.power(z, e - 1)
        # a lone row's z ** 2 goes through numpy's square, which rounds
        # differently from power
        square = np.flatnonzero(e == 3)
        if square.size:
            ze1[square] = np.square(z[square])
        np.add(p, coef * ze1 * z, out=p, where=on)
        np.add(dp, (coef * e) * ze1, out=dp, where=on)
    return p, dp


def _scaled_residuals(cols: np.ndarray, z: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
    """``|P(z)| / sum_k |c_k||z|^k`` per point; ``p`` is ``P(z)`` when known."""
    if p is None:
        p = np.empty_like(z)
        _horner(cols, z, p)
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


def _start_radius(c: np.ndarray, deg: int) -> float:
    """Root-inclusion radius for the starting circle.

    The classic bound ``1 + max|c_k|`` (monic input) explodes when
    coefficients are large, so take the tighter of it and the k-th-root
    bound ``2 max |c_{n-k}|^(1/k)``, computed in log space; both contain
    every root.  A final cap keeps ``radius**deg`` evaluable.
    """
    cauchy = 1.0 + float(np.max(np.abs(c[:-1])))
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c[:-1]))
    ks = deg - np.arange(deg)
    kth_root = 2.0 * float(np.exp(np.max(logs / ks)))
    return min(cauchy, kth_root, math.exp(576.0 / deg))


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


def _aberth(deg, sparse, members, tol, max_iter, outcomes) -> None:
    """Solve same-shape polynomials together; ``members`` are ``(slot, n_zero, c)``.

    ``c`` is monic with a nonzero constant term.  Each result, a RootSet or
    the NoConvergence to raise, goes to ``outcomes[slot]``.
    """
    live = list(members)
    radii = [_start_radius(c, deg) for _, _, c in live]
    angles = START_PHASE + GOLDEN_ANGLE * np.arange(deg)
    z = np.stack([radius * np.exp(1j * angles) for radius in radii])
    radii = np.asarray(radii)
    cols = np.stack([c for _, _, c in live], axis=1)[:, :, None]
    p = np.empty_like(z)
    dp = np.empty_like(z)
    if sparse:
        # each row's nonzero exponents, padded with exponent 1 where it has fewer
        nonzero = [np.flatnonzero(c) for _, _, c in live]
        exps = np.ones((max(map(len, nonzero)), len(live), 1), np.int64)
        has = np.zeros(exps.shape, bool)
        for r, e in enumerate(nonzero):
            exps[:len(e), r, 0] = e
            has[:len(e), r, 0] = True
        terms = np.take_along_axis(cols, exps, axis=0)

    def settle(rows, res, iterations, converged):
        nonlocal z, p, dp, cols, radii, live, exps, has, terms
        for r, row_res in zip(rows, res):
            slot, n_zero, _ = live[r]
            result = _assemble(z[r], row_res, n_zero, iterations)
            worst = float(np.max(row_res))
            if not converged:
                result = NoConvergence(
                    f"root iteration did not meet tol={tol} within {max_iter} sweeps",
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
        if sparse:
            exps, has, terms = exps[:, keep], has[:, keep], terms[:, keep]
        live = [m for m, k in zip(live, keep) if k]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not sparse:
            _horner(cols, z, p, dp)
        for it in range(1, max_iter + 1):
            if sparse:
                p, dp = _eval_sparse(exps, has, terms, z)
            newton = p / dp
            w = newton / (1.0 - newton * _repulsion(z))
            bad = ~np.isfinite(w)
            restart = bad.any(axis=1)
            w[bad] = 0.0
            z = z - w
            for r in np.flatnonzero(restart):
                # Collided, critical or overflowed points: restart each at a
                # fresh deterministic spot inside the inclusion circle.
                idx = np.flatnonzero(bad[r])
                z[r, idx] = (
                    radii[r]
                    * (0.9 ** (it % 25))
                    * np.exp(1j * (START_PHASE + GOLDEN_ANGLE * (it + idx)))
                )
            if not sparse:
                # The next sweep's values, and P(z) for the residuals below.
                _horner(cols, z, p, dp)
            upd = np.max(np.abs(w) / np.maximum(1.0, np.abs(z)), axis=1)
            small = ~restart & (upd < tol)
            # Ill-conditioned clusters jitter forever at the conditioning
            # noise floor; once backward error is at machine level there is
            # nothing left to converge.  Checked on a stride to stay cheap.
            check = ~restart & (small | (upd < 1e-4) | (it % 10 == 0))
            if check.any():
                rows = np.flatnonzero(check)
                res = _scaled_residuals(cols[:, rows], z[rows], None if sparse else p[rows])
                done = small[rows] | (np.max(res, axis=1) < RESIDUAL_FLOOR)
                if done.any():
                    settle(rows[done], res[done], it, True)
                    if not live:
                        return
        res = _scaled_residuals(cols, z, None if sparse else p)
    settle(np.arange(len(live)), res, max_iter, False)


def all_roots_many(
    polys: Sequence[Polynomial],
    tol: float = 1e-13,
    max_iter: int = 500,
) -> list[RootSet]:
    """Find every root of each polynomial in ``polys``, batching same-shape ones.

    Returns ``[all_roots(p, tol, max_iter) for p in polys]``, bit for bit, and
    raises what that loop would raise first: the ValueError or NoConvergence
    of the first failing polynomial in input order.
    """
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
        sparse = np.count_nonzero(c) <= SPARSE_TERM_CUTOFF and deg > 12
        groups.setdefault((deg, sparse), []).append((slot, n_zero, c))
    for (deg, sparse), members in groups.items():
        _aberth(deg, sparse, members, tol, max_iter, outcomes)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def all_roots(
    p: Polynomial,
    tol: float = 1e-13,
    max_iter: int = 500,
) -> RootSet:
    """Find every root of ``p``.

    Parameters
    ----------
    p : Polynomial
        Degree >= 1.
    tol : float
        Converged once every per-root update is smaller than this.
    max_iter : int
        Iteration cap; exceeding it raises NoConvergence carrying the best
        iterate so far.

    Returns
    -------
    RootSet
        Exactly ``p.degree`` roots, every scaled residual <= 1e-9.
    """
    return all_roots_many([p], tol, max_iter)[0]


def max_root_magnitude(p: Polynomial, **kwargs) -> float:
    """Largest root magnitude of ``p`` (the spectral radius of its recurrence)."""
    return all_roots(p, **kwargs).max_magnitude


def is_stable(p: Polynomial, margin: float = 0.0) -> bool:
    """True iff every root lies strictly inside the circle of radius 1 - margin.

    A root exactly on the boundary counts as unstable: the recurrence then
    sustains oscillations instead of damping them.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    return max_root_magnitude(p) < 1.0 - margin
