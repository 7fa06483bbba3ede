"""Independent oracles used to cross-check the library.

Nothing here may call into staleness_lab's own numerics: roots come from a
companion-matrix eigensolve, normal-tail masses from Simpson quadrature, and
recurrences from direct translation of their definitions.  Tests compare the
library against these.
"""

from __future__ import annotations

import math

import numpy as np


def companion_roots(coeffs_ascending) -> np.ndarray:
    """Eigenvalues of the companion matrix of a polynomial.

    Accepts ascending coefficients; low-order zero coefficients contribute
    exact zero roots, mirroring how a root solver must report them.
    """
    cs = list(map(float, coeffs_ascending))
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    n_zero = 0
    while cs and cs[0] == 0.0:
        cs.pop(0)
        n_zero += 1
    deg = len(cs) - 1
    if deg < 1:
        return np.zeros(n_zero, complex)
    monic = np.asarray(cs, float) / cs[-1]
    comp = np.zeros((deg, deg))
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    eig = np.linalg.eigvals(comp)
    return np.concatenate([eig, np.zeros(n_zero, complex)])


def companion_max_magnitude(coeffs_ascending) -> float:
    return float(np.max(np.abs(companion_roots(coeffs_ascending))))


def normal_interval_mass(lo: float, hi: float, n: int = 4001) -> float:
    """Probability a standard normal lands in (lo, hi), by Simpson quadrature.

    Independent of math.erf; n odd grid points, error far below 1e-12 for
    the unit-width intervals used here.
    """
    xs = np.linspace(lo, hi, n)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    h = (hi - lo) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


def constant_delay_trajectory(eta, a, tau, variant, m, steps, x0=1.0):
    """Reference trajectory of the one-dimensional delay recurrence.

    Direct translation of the update rules with pre-history filled by x0 and
    zero initial velocities; returns x_0 .. x_steps inclusive.
    """
    xs = [float(x0)] * (tau + 2)  # xs[-k] conventions: index t + tau + 1
    vs = [0.0] * (tau + 2)
    out = [float(x0)]
    for t in range(steps):
        i = len(xs) - 1  # index of x_t
        x_t = xs[i]
        x_del = xs[i - tau]
        if variant == "plain":
            x_next = x_t - eta * a * x_del
            v_next = 0.0
        elif variant == "momentum":
            v_next = m * vs[-1] - eta * (1.0 - m) * a * x_del
            x_next = x_t + v_next
        elif variant == "shifted":
            v_next = m * vs[i - tau] - eta * (1.0 - m) * a * x_del
            x_next = x_t + v_next
        else:
            raise ValueError(variant)
        xs.append(x_next)
        vs.append(v_next)
        out.append(x_next)
    return out


def grid_threshold(stable_fn, lo: float, hi: float, steps: int = 200_000) -> float:
    """Brute-force threshold scan: finest eta in [lo, hi] still stable.

    Linear sweep, no bisection, so it shares no machinery with the library's
    threshold search.
    """
    etas = np.linspace(lo, hi, steps)
    last = lo
    for eta in etas:
        if stable_fn(float(eta)):
            last = float(eta)
        else:
            break
    return last


def dominant_power_eig(mat: np.ndarray) -> float:
    """Top eigenvalue via dense symmetric eigensolve (oracle for power iteration)."""
    return float(np.linalg.eigvalsh(mat)[-1])


def momentum_pmf_transition(eta, a, m, delays, probs) -> np.ndarray:
    """Transition matrix of the expected heavy-ball recurrence under a delay pmf.

    Translated from the update rule ``v' = m v - eta (1-m) a sum_k p_k
    x_{t-k}``, ``x' = x + v'`` on the state ``(x_t, x_{t-1}, ..., x_{t-K},
    v_t)`` with ``K`` the largest delay: the state window plus the velocity,
    with no polynomial involved.
    """
    big_k = max(delays)
    n = big_k + 2
    vel = n - 1
    rows = [[0.0] * n for _ in range(n)]
    c = eta * (1.0 - m) * a
    # the new velocity, and the new iterate: x_t plus the new velocity
    rows[vel][vel] = m
    for k, p in zip(delays, probs):
        rows[vel][k] -= c * p
    rows[0] = list(rows[vel])
    rows[0][0] += 1.0
    # the window shifts by one step
    for i in range(1, big_k + 1):
        rows[i][i - 1] = 1.0
    return np.array(rows)


def spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))
