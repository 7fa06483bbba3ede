"""Root finding for stability analysis of delay recurrences.

The solver is an Ehrlich-Aberth simultaneous iteration: every root estimate
takes a Newton step corrected by the repulsion of the other estimates, so the
whole root set converges together.  Estimates start on a circle of radius
``1 + max|c_k / c_n|`` (no root can lie outside it) at golden-angle spacing
with a fixed phase, which keeps runs deterministic and keeps starting points
off the real axis where conjugate pairs could trap them.

A companion-matrix eigensolve would do the same job; it is deliberately kept
out of the library and used only as an independent cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _eval_dense(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for coef in c[::-1]:
        dp = dp * z + p
        p = p * z + coef
    return p, dp


def _eval_sparse(exps: np.ndarray, coefs: np.ndarray, z: np.ndarray):
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for e, coef in zip(exps, coefs):
        if e == 0:
            p = p + coef
        else:
            ze1 = z ** int(e - 1)
            p = p + coef * ze1 * z
            dp = dp + (coef * e) * ze1
    return p, dp


def _scaled_residuals(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, _ = _eval_dense(c, z)
        scale, _ = _eval_dense(np.abs(c), np.abs(z).astype(complex))
        return np.abs(p) / np.maximum(np.abs(scale), np.finfo(float).tiny)


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
    if p.degree < 1:
        raise ValueError("need degree >= 1 to have roots")
    n_zero, work = _split_zero_roots(p.coeffs)
    deg = len(work) - 1
    if deg == 0:
        return _assemble(np.empty(0, complex), np.empty(0), n_zero, 0)

    c = np.asarray(work, float) / work[-1]
    radius = _start_radius(c, deg)
    angles = START_PHASE + GOLDEN_ANGLE * np.arange(deg)
    z = radius * np.exp(1j * angles)

    exps = np.flatnonzero(c)
    sparse = len(exps) <= SPARSE_TERM_CUTOFF and deg > 12
    coefs = c[exps]

    iterations = max_iter
    converged = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iter + 1):
            if sparse:
                pv, dpv = _eval_sparse(exps, coefs, z)
            else:
                pv, dpv = _eval_dense(c, z)
            newton = pv / dpv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repulse = (1.0 / diff).sum(axis=1)
            w = newton / (1.0 - newton * repulse)
            bad = ~np.isfinite(w)
            if bad.any():
                # Collided, critical or overflowed points: restart each at a
                # fresh deterministic spot inside the inclusion circle.
                idx = np.flatnonzero(bad)
                w[idx] = 0.0
                z = z - w
                z[idx] = (
                    radius
                    * (0.9 ** (it % 25))
                    * np.exp(1j * (START_PHASE + GOLDEN_ANGLE * (it + idx)))
                )
                continue
            z = z - w
            upd = float(np.max(np.abs(w) / np.maximum(1.0, np.abs(z))))
            if upd < tol:
                iterations = it
                converged = True
                break
            # Ill-conditioned clusters jitter forever at the conditioning
            # noise floor; once backward error is at machine level there is
            # nothing left to converge.  Checked on a stride to stay cheap.
            if (upd < 1e-4 or it % 10 == 0) and float(
                np.max(_scaled_residuals(c, z))
            ) < RESIDUAL_FLOOR:
                iterations = it
                converged = True
                break

    res = _scaled_residuals(c, z)
    result = _assemble(z, res, n_zero, iterations)
    if not converged:
        raise NoConvergence(
            f"root iteration did not meet tol={tol} within {max_iter} sweeps",
            best=result,
            iterations=iterations,
        )
    if float(np.max(res)) > RESIDUAL_TOL:
        raise NoConvergence(
            f"root updates stalled with residual {float(np.max(res)):.3e} > {RESIDUAL_TOL}",
            best=result,
            iterations=iterations,
        )
    return result


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
