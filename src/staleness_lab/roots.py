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

``all_roots_many`` sorts its polynomials, zero roots stripped, by descending
degree and cuts them into bands of at most ``SWEEP_BLOCK`` root estimates.
A band is one padded ``(rows, width)`` array and runs one sweep loop:
Horner's rule, the update, restarts and convergence checks cover the whole
band, and only the pairwise repulsion runs per degree.  Horner's rule carries
a short row's zero top coefficients as an exact zero (``0 z + 0``) up to its
own top one.  A row leaves its band as soon as it converges.  Bands are
invisible in the results: every elementwise step does the same float
operations, in the same operand order, on a row as on a lone polynomial, and
every row sum runs along a contiguous axis of its own estimates, so each
``RootSet`` (roots, residuals and iteration count) is bit-identical to solving
that polynomial alone.  The pairwise repulsion is built in blocks of at most
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

# Most root estimates, padding included, in one band of ``all_roots_many``;
# a single polynomial of higher degree gets a band of its own.
SWEEP_BLOCK = 4096


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


def _layout(degs: np.ndarray):
    """Runs and padding of a band whose rows have the descending degrees ``degs``.

    In run ``(a, b, deg)`` rows ``a..b-1`` have degree ``deg``.  The padding
    mask is None when every row spans the band.
    """
    ends = np.append(np.flatnonzero(np.diff(degs)) + 1, len(degs))
    runs = list(zip([0] + ends[:-1].tolist(), ends.tolist(), degs[ends - 1].tolist()))
    return runs, (np.arange(degs[0]) >= degs[:, None] if len(runs) > 1 else None)


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


def _scaled_residuals(cols, z, p, pad) -> np.ndarray:
    """``|P(z)| / sum_k |c_k||z|^k`` per point, where ``p`` is ``P(z)``; 0 at padding."""
    scale = np.empty(z.shape)
    _horner(np.abs(cols), np.abs(z), scale)
    res = np.abs(p) / np.maximum(scale, np.finfo(float).tiny)
    if pad is not None:
        res[pad] = 0.0
    return res


def _aligned(shape) -> np.ndarray:
    """An uninitialised complex array that starts on a 64-byte cache line.

    numpy aligns to 16 bytes only, so whether an array sat on a line changed
    with the heap from run to run; off it, the pairwise blocks took 10 %
    longer at degree 2001.
    """
    size = math.prod(shape)
    raw = np.empty(size + 3, complex)
    skip = -raw.ctypes.data % 64 // 16
    return raw[skip:skip + size].reshape(shape)


def _repulsion(z: np.ndarray) -> np.ndarray:
    """``sum_{j != i} 1 / (z[r, i] - z[r, j])`` for every row ``r``, block by block."""
    k, n = z.shape
    out = np.empty_like(z)
    rows = min(n, max(1, PAIR_BLOCK // n))
    polys = min(k, max(1, PAIR_BLOCK // (n * n)))
    buf = _aligned((polys * rows * n,))
    for a in range(0, k, polys):
        zr = z[a:a + polys]
        for i in range(0, n, rows):
            shape = (len(zr), min(rows, n - i), n)
            diff = np.subtract(zr[:, i:i + rows, None], zr[:, None, :],
                               out=buf[:math.prod(shape)].reshape(shape))
            d = np.arange(shape[1])
            diff[:, d, d + i] = np.inf
            np.divide(1.0, diff, out=diff)
            out[a:a + polys, i:i + rows] = diff.sum(axis=2)
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
    logs = np.log(np.abs(c[ks])).tolist()
    ks = ks.tolist()
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
        n = ks[b] - ks[a]
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
        roots=tuple(z[order].tolist()),
        residuals=tuple(res[order].tolist()),
        iterations=iterations,
    )


def _aberth(live, max_iter, outcomes) -> None:
    """Solve a band of polynomials in one sweep loop; ``live`` holds ``(slot, n_zero, c)``.

    ``c`` is monic with a nonzero constant term, and the band is sorted by
    descending degree.  Row ``r`` keeps its estimates in ``z[r, :deg]``; its
    padding holds 1 and gets a zero update and residual, so it never restarts
    and never sets a row maximum.  Each result, a RootSet or the
    NoConvergence to raise, goes to ``outcomes[slot]``.
    """
    degs = np.array([len(c) - 1 for _, _, c in live])
    z = _aligned((len(live), degs[0]))
    z.fill(1.0)
    cols = np.zeros((degs[0] + 1, len(live), 1))
    radii = np.empty(len(live))
    for r, (_, _, c) in enumerate(live):
        z[r, :len(c) - 1], radii[r] = _start_points(c, len(c) - 1)
        cols[:len(c), r, 0] = c
    p, dp = _aligned(z.shape), _aligned(z.shape)
    runs, pad = _layout(degs)

    def settle(rows, res, iterations, converged):
        nonlocal z, p, dp, cols, radii, degs, runs, pad, live
        for r, row_res in zip(rows.tolist(), res):
            slot, n_zero, _ = live[r]
            row_res = row_res[:degs[r]]
            result = _assemble(z[r, :degs[r]], row_res, n_zero, iterations)
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
        live = [m for m, k in zip(live, keep) if k]
        if live:  # the band narrows once its widest rows leave
            degs, radii = degs[keep], radii[keep]
            z, p, dp = z[keep, :degs[0]], p[keep, :degs[0]], dp[keep, :degs[0]]
            cols = cols[:degs[0] + 1, keep]
            runs, pad = _layout(degs)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _horner(cols, z, p, dp)
        for it in range(1, max_iter + 1):
            newton = p / dp
            rep = np.zeros_like(z)
            for a, b, deg in runs:
                rep[a:b, :deg] = _repulsion(z[a:b, :deg])
            # numpy turns ``newton * tmp`` into ``tmp *= newton`` once ``tmp``
            # passes 256 KiB, and its FMA complex product need not commute:
            # a fixed operand order keeps every row's bits batch-independent.
            np.multiply(newton, rep, out=rep)
            w = newton / (1.0 - rep)
            if pad is not None:
                w[pad] = 0.0
            bad = ~np.isfinite(w)
            restart = bad.any(axis=1)
            w[bad] = 0.0
            np.subtract(z, w, out=z)
            if restart.any():
                # Collided, critical or overflowed points: restart each at a
                # fresh deterministic spot within its row's largest start radius.
                r, idx = np.nonzero(bad)
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
                res = _scaled_residuals(cols, z, p, pad)
                done = check & (small | (np.max(res, axis=1) < RESIDUAL_FLOOR))
                if done.any():
                    rows = np.flatnonzero(done)
                    settle(rows, res[rows], it, True)
                    if not live:
                        return
        res = _scaled_residuals(cols, z, p, pad)
    settle(np.arange(len(live)), res, max_iter, False)


def all_roots_many(polys: Sequence[Polynomial], max_iter: int = 500) -> list[RootSet]:
    """Find every root of each polynomial in ``polys``, in degree-sorted bands.

    Returns ``[all_roots(p, max_iter) for p in polys]``, bit for bit, and
    raises what that loop would raise first: the ValueError or NoConvergence
    of the first failing polynomial in input order.  A polynomial of degree
    0, or with a coefficient that is not finite, or nonzero and below
    ``np.finfo(float).tiny``, once divided by the leading one, fails with a
    ValueError before any sweep.  ``max_iter`` is a
    count (``charpoly._check_count``), checked before any polynomial.
    """
    max_iter = _check_count("max_iter", max_iter)
    outcomes: list = [None] * len(polys)
    members = []
    for slot, p in enumerate(polys):
        if p.degree < 1:
            outcomes[slot] = ValueError("need degree >= 1 to have roots")
            continue
        n_zero, work = _split_zero_roots(p.coeffs)
        deg = len(work) - 1
        if deg == 0:
            outcomes[slot] = _assemble(np.empty(0, complex), np.empty(0), n_zero, 0)
            continue
        with np.errstate(over="ignore"):
            c = np.asarray(work, float) / work[-1]
        big = np.flatnonzero(~np.isfinite(c))
        if big.size:
            k = int(big[0])
            outcomes[slot] = ValueError(
                f"coefficient {n_zero + k} overflows once divided by the leading one "
                f"({float(work[k])!r} / {float(work[-1])!r}); the root solver needs finite floats"
            )
            continue
        sub = np.flatnonzero((c != 0.0) & (np.abs(c) < np.finfo(float).tiny))
        if sub.size:
            # subnormal arithmetic cannot see the error of a root estimate
            k = int(sub[0])
            outcomes[slot] = ValueError(
                f"coefficient {n_zero + k} is subnormal ({float(c[k])!r}) once divided by the "
                f"leading one; the root solver needs normal floats"
            )
            continue
        members.append((slot, n_zero, c))
    members.sort(key=lambda m: -len(m[2]))
    while members:
        rows = max(1, SWEEP_BLOCK // (len(members[0][2]) - 1))
        _aberth(members[:rows], max_iter, outcomes)
        members = members[rows:]
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
