"""Reference computations the benchmark checks the program against.

Nothing here calls into ``staleness_lab``.  Stability comes from the
spectral radius of a companion (state-transition) matrix written out from
the update rules themselves, and from two closed forms; simulator outputs are
checked against matrix powers of the same transition matrices, or against a
loop written out here.
"""

from __future__ import annotations

import math

import numpy as np


def plain_closed_form(a: float, tau: int) -> float:
    """Largest stable step of ``x+ = x - eta*a*x_{t-tau}``: ``2 sin(pi/(4 tau + 2)) / a``."""
    return 2.0 * math.sin(math.pi / (4 * tau + 2)) / a


def momentum_tau0_closed_form(a: float, m: float) -> float:
    """Largest stable step of heavy ball without delay: ``2 (1 + m) / ((1 - m) a)``.

    The update is written with the damped gradient ``eta (1 - m) a``, so the
    familiar boundary ``eta_eff a = 2 (1 + m)`` becomes this one.
    """
    return 2.0 * (1.0 + m) / ((1.0 - m) * a)


def transition_matrix(variant: str, eta: float, hess, m: float, lags) -> np.ndarray:
    """State-transition matrix of one optimizer step on a quadratic.

    ``hess`` is the (d, d) curvature, ``lags`` a list of ``(delay, prob)``
    pairs (one pair for a constant delay).  The state stacks the iterate at
    lags ``0..K`` and, for momentum, the velocity: one central velocity for
    ``momentum``, a velocity per lag for ``shifted``.  Update rules, with
    ``g`` the gradient at the stale iterate and ``ce = eta (1 - m)``:

    * plain:    ``y+ = y - eta * sum_k p_k H y_{t-k}``
    * momentum: ``v+ = m v - ce H y_{t-tau}``,        ``y+ = y + v+``
    * shifted:  ``v+ = m v_{t-tau} - ce H y_{t-tau}``, ``y+ = y + v+``
    """
    H = np.atleast_2d(np.asarray(hess, dtype=float))
    d = H.shape[0]
    big_k = max(k for k, _ in lags)
    ny = big_k + 1
    nv = {"plain": 0, "momentum": 1, "shifted": big_k + 1}[variant]
    n = (ny + nv) * d
    M = np.zeros((n, n))
    eye = np.eye(d)

    def blk(i, j):
        return M[i * d:(i + 1) * d, j * d:(j + 1) * d]

    for i in range(1, ny):  # iterate history shifts down one lag
        blk(i, i - 1)[:] = eye
    if variant == "plain":
        blk(0, 0)[:] += eye
        for k, p in lags:
            blk(0, k)[:] -= eta * p * H
        return M
    (tau, _), = lags
    ce = eta * (1.0 - m)
    if variant == "momentum":
        v = ny
        blk(v, tau)[:] = -ce * H
        blk(v, v)[:] = m * eye
    else:
        v = ny + tau  # the velocity written tau steps ago
        for i in range(1, nv):
            blk(ny + i, ny + i - 1)[:] = eye
        blk(ny, tau)[:] = -ce * H
        blk(ny, v)[:] = m * eye
        v = ny
    blk(0, 0)[:] += eye
    M[:d, :] += M[v * d:(v + 1) * d, :]  # y+ = y + v+
    return M


def spectral_radius(variant: str, eta: float, a: float, m: float, lags) -> float:
    """Largest eigenvalue magnitude of the scalar transition matrix."""
    M = transition_matrix(variant, eta, [[a]], m, lags)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def amplification_after(variant: str, eta: float, hess, m: float, lags, y0, steps: int) -> float:
    """``|y_steps| / |y_0|`` of the exact recurrence, by a matrix power.

    The history before step 0 holds ``y0`` and velocities start at zero, as
    in a fresh run.
    """
    H = np.atleast_2d(np.asarray(hess, dtype=float))
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    M = transition_matrix(variant, eta, H, m, lags)
    ny = max(k for k, _ in lags) + 1
    state = np.zeros(M.shape[0])
    state[: ny * y0.size] = np.tile(y0, ny)
    y = (np.linalg.matrix_power(M, steps) @ state)[: y0.size]
    return float(np.linalg.norm(y) / np.linalg.norm(y0))


def replay_sampled_plain(eta: float, h: float, y0: float, delays) -> list[float]:
    """Norms of ``y+ = y - eta * (h * y_{t-1-k})`` for a given delay sequence.

    The history before step 0 holds ``y0``; this is the plain sampled-delay
    update written out as a loop.
    """
    ys = [y0]
    norms = [abs(y0)]
    y = y0
    for t, k in enumerate(delays, start=1):
        j = t - 1 - k
        y = y - eta * (h * (ys[j] if j >= 0 else y0))
        ys.append(y)
        norms.append(abs(y))
    return norms
