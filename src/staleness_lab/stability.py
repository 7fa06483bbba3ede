"""Step-size thresholds: where stale-gradient descent stops converging.

For the plain variant with constant delay the boundary is known in closed
form: the recurrence is stable exactly when ``eta * a < 2 sin(pi / (4 tau +
2))``.  Its reciprocal is nearly linear in the delay, ``1 / (eta* a) ~=
(2 tau + 1) / pi``, which is the rescaling rule in ``scale_lr``.  That rule
linearises the sine, so it overshoots the exact edge by ``x / sin(x) - 1``
with ``x = pi / (4 tau + 2)``: 57% at tau 0, 4.7% at tau 1, 0.14% at tau 8.

Every characteristic polynomial here is linear in ``k = eta*a``:
``P(z) = A(z) + k B(z)``.  A root sits on the unit circle at ``z = e^(i
theta)`` exactly when ``k = -A/B`` there, so the boundary is the smallest
positive value of ``-A/B`` over the angles where it is real (Neimark's
D-decomposition).  The closed form is this crossing for the plain variant,
at ``theta = pi / (2 tau + 1)``.  For everything else (momentum variants,
random delays) :func:`numeric_threshold` finds the crossing numerically and
certifies the resulting step-size bracket with the argument principle; it
never solves for roots.  Both ends of the bracket are counted in one pass,
as two rows of one coefficient table: one real FFT evaluates them at the
even angles, and one exponential table at the few angles around the
crossing and wherever the phase still turns fast.

Every ``A`` here is ``(z - 1) C`` with ``|C| >= 1 - m`` on the unit circle,
and ``|B| <= 1 - m`` there, so a crossing at angle theta has ``k >= 2
sin(theta / 2)``.  The search bisects the lowest-angle sign change of ``Im
(-A conj(B))`` first, drops every other one whose lower angle puts that
bound above the best ``k`` so far, and bisects only those left, each along
the path a guess of its crossing predicts: an evaluation confirms as many
levels as the guess gets right, and at least one.
:func:`threshold_curve` runs a sweep's searches as one batch: the crossing
brackets of all its delays are bisected together, in blocks of at most
``BRACKET_BLOCK`` brackets, so a bisection round costs one round of numpy
calls for the whole sweep.  A block stacks its delays' polynomials once,
and each round of its picks is one evaluation of ``A`` and one of ``B``.
Each row equals the search of its delay alone, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .charpoly import (DelayModel, _check_delay, _check_positive, _check_rel_tol, _check_variant,
                       _sum_by_exponent, as_delay, char_poly_terms)
from .errors import NoConvergence, NoThreshold

BRACKET_START = 1e-6
# A search's first probe, as a multiple of its start: the grid point three
# doublings reach.  In a trajectory search each probe below costs twice the
# one above it, and under the single flip those below are stable anyway.
FIRST_PROBE = 8.0

# The certificate counts roots on circles just off the unit circle, so a
# bracket end whose root sits exactly on it still counts on the right side.
CERT_MARGIN = 1e-12
MAX_PHASE_STEP = math.pi / 4
MAX_REFINE = 32
# Most entries (terms x angles) of one exponential table in the
# certificate, 1 MB: a dense polynomial is evaluated a few angles at a time.
CERT_TABLE = 1 << 16
# The certificate's cluster around a crossing, in units of the grid step
# pi / n: -1, -1/8, ..., -8^-MAX_REFINE, 0, 8^-MAX_REFINE, ..., 1/8, 1.
_CLUSTER = np.concatenate([-(8.0 ** -np.arange(MAX_REFINE + 1)), [0.0],
                           8.0 ** -np.arange(MAX_REFINE, -1, -1)])
# Where a refined step's seven inner angles sit: it is cut into eighths.
_EIGHTHS = np.arange(1, 8) / 8.0
NEAR_ZERO_STEPS = 20
# Above this many terms a polynomial is evaluated by Horner's rule.
DENSE_TERMS = 8
# Most crossing brackets one batched bisection carries, and most angles
# one of its evaluations takes.  A block's exponential tables (terms x
# angles, under 1 MB) stay in cache.
BRACKET_BLOCK = 1 << 12
# Relative slack on the bound k >= 2 sin(theta / 2) when brackets are cut.
CUT_SLACK = 1e-9

METHOD_BISECTION = "bisection"
METHOD_SIMULATION = "simulation"


@dataclass(frozen=True)
class ThresholdResult:
    """A located stability boundary in step size.

    ``bracket`` is the final (stable, unstable) eta pair and ``lo <= eta_star
    < hi``: ``eta_star`` is its midpoint, or ``lo`` where the ends are
    adjacent floats and the midpoint rounds onto ``hi``, the end certified
    unstable.  ``hi - lo <= tolerance * eta_star`` holds on return, since
    ``tolerance`` is at least float resolution, ``2**-52``; a subnormal
    ``eta_star`` (a curvature near the float maximum) is the only miss.  The
    bracket is closed, and ``lo`` may lie on the boundary itself: at tau 0
    the crossing value is exact and ``lo`` can land on it, with a root at
    ``z = -1``.  From a polynomial, ``hi`` is certified unstable up to the
    ``CERT_MARGIN`` (1e-12) radius slack of the winding counts and up to the
    rounding of the float coefficients: all its roots may still lie inside
    the unit circle, one of them within 1e-12 of it.  The certificate only
    accepts or refuses the bracket; no field comes from its counts.
    ``max_root_residual`` is the scaled residual ``|P(e^(i theta*))| / sum
    |c_k|`` of the crossing root at ``crossing_angle`` theta*; both are NaN
    when the boundary came from simulation, not the polynomial.
    """

    eta_star: float
    method: str
    bracket: tuple[float, float]
    tolerance: float
    variant: str
    m: float
    a: float
    delay: DelayModel
    max_root_residual: float = math.nan
    crossing_angle: float = math.nan


def analytic_threshold_plain(a: float, tau: int) -> float:
    """Exact threshold ``(2 / a) sin(pi / (4 tau + 2))`` for the plain variant.

    At ``tau = 0`` this is the familiar ``2 / a``; the delay shrinks the
    usable step size roughly in proportion to ``1 / (2 tau + 1)``.
    """
    a = _check_positive("a", a)
    tau = _check_delay(tau)
    return (2.0 / a) * math.sin(math.pi / (4 * tau + 2))


def taylor_inverse_threshold(tau: int) -> float:
    """First-order reciprocal threshold ``(2 tau + 1) / pi``.

    Undefined at ``tau = 0``: the expansion is around large delay and the
    delay-free case needs no approximation.
    """
    tau = _check_delay(tau)
    if tau < 1:
        raise ValueError("the linear approximation needs tau >= 1")
    return (2 * tau + 1) / math.pi


def scale_lr(eta0: float, tau: int) -> float:
    """Rescale a delay-free step size for training under delay ``tau``.

    ``eta0 * pi / (4 (tau + 0.5))``: the ratio of the delayed to undelayed
    threshold, with the sine linearized.  With ``x = pi / (4 tau + 2)`` the
    exact ratio is ``sin(x)``, so the result overshoots the exact edge by
    ``x / sin(x) - 1``: 57% at tau 0, where ``scale_lr(eta0, 0)`` is
    ``(pi / 2) eta0``, 4.7% at tau 1 and 0.14% at tau 8.  A step at the
    delay-free edge, rescaled to tau 0 or 1, is unstable; eta0 must sit at
    least that far inside its own edge for the rescaled step to be stable.
    """
    eta0 = _check_positive("eta0", eta0)
    tau = _check_delay(tau)
    return eta0 * math.pi / (4.0 * (tau + 0.5))


def _bisect_eta(stable, a: float, start: float, rel_tol: float, **fields) -> ThresholdResult:
    """Bracket and bisect a stability boundary along eta: the one tail of
    every threshold search, and the one place a :class:`ThresholdResult`
    (its other ``fields`` given) is built.

    ``stable(eta)`` must flip from True to False exactly once as eta grows.
    The first probe is ``FIRST_PROBE * start / a`` on the grid ``start / a *
    2^j``.  If stable, the search doubles on until a probe is unstable; if
    not, it scans up from ``start / a`` and stops short of the first probe.
    A first probe or doubling that overflows to inf refuses the curvature by
    name (a subnormal ``a`` included) before ``stable`` sees it.  Then it
    bisects until the bracket is narrower than ``rel_tol`` times its
    midpoint, ``0.5 * (lo + hi)`` or, where that sum overflows, ``0.5 * lo
    + 0.5 * hi``.  The bracket is the final (stable, unstable) pair: the
    full scan's, unless a grid point below the first probe is unstable or
    undecided while the first probe is stable.  ``eta_star`` is the last
    midpoint, or ``lo`` where the ends are adjacent floats and it rounds
    onto ``hi``.  Shared by the crossing search here and the trajectory
    searches built on simulators, which start higher, since classifying a
    nearly-motionless run takes forever.

    The doubling needs no cap.  The crossing search's predicate fails once
    ``eta*a`` passes its finite ``k*``.  Every trajectory probe starts from
    the top eigenvector with a constant pre-history and zero velocity, so
    its first step maps ``x0`` to ``(1 - eta*a*(1-m)) x0``, for plain,
    momentum and shifted updates, pmf-weighted and sampled delays and
    round-robin servers alike.  A probe with ``eta*a*(1-m) > blowup_factor
    + 1`` therefore diverges on step 1, and the doubling ends by then.
    """
    # a product, so that it overflows to inf exactly as the doubling does
    first = FIRST_PROBE * (start / a)
    eta_lo, eta = (first, 2.0 * first) if first < math.inf and stable(first) else (None, start / a)
    # the doubling above the first probe or the scan below it, neither at inf
    while eta != first and max(eta, first) < math.inf and stable(eta):
        eta_lo, eta = eta, 2.0 * eta
    if max(eta, first) == math.inf:
        raise ValueError(f"a = {a!r} is too small: its step sizes overflow to inf")
    if eta_lo is None:
        raise NoThreshold("unstable already at the smallest probe; nothing to bracket")
    eta_hi = eta

    # midpoints of finite ends are finite
    while True:
        mid = 0.5 * (eta_lo + eta_hi)
        if mid == math.inf:
            mid = 0.5 * eta_lo + 0.5 * eta_hi
        if eta_hi - eta_lo <= rel_tol * mid or not eta_lo < mid < eta_hi:
            break  # within the tolerance, or float resolution exhausted
        eta_lo, eta_hi = (mid, eta_hi) if stable(mid) else (eta_lo, mid)
    return ThresholdResult(eta_star=mid if mid < eta_hi else eta_lo, bracket=(eta_lo, eta_hi),
                           tolerance=rel_tol, a=a, **fields)


def _grid_size(degree: int) -> int:
    return 8 * (degree + 1) + 64


class _CirclePoly:
    """``sum_e c_e z^e`` evaluated on the unit circle ``z = e^(i theta)``.

    The per-term constants are computed once per polynomial: a few terms
    become ``i e`` and ``c_e`` columns, so a call takes one exponential
    table over (terms x angles) and adds its rows up by exponent in the
    order given, starting from zero.  Many terms (a delay pmf) are
    evaluated by Horner's rule instead.  A stack of polynomials
    (:meth:`stacked`) evaluates each angle with its own polynomial.
    """

    def __init__(self, terms):
        acc = {e: c for e, c in _sum_by_exponent(terms).items() if c != 0.0}
        self.exps = np.array(list(acc), dtype=np.int64)
        self.coefs = np.array(list(acc.values()), dtype=float)
        self.dense = None
        if len(acc) > DENSE_TERMS:
            self.dense = np.zeros(int(self.exps.max()) + 1)
            self.dense[self.exps] = self.coefs
            return
        self.jexps = 1j * self.exps[:, None]
        self.column = self.coefs[:, None]

    @classmethod
    def stacked(cls, polys) -> "_CirclePoly":
        """Unit-circle polynomials of one kind, all sparse or all dense, as
        one: a call with ``owner`` evaluates angle ``i`` with
        ``polys[owner[i]]``.

        Padding moves no bisection step.  A sparse polynomial's missing rows
        are exact zeros added last, which at most turn a sum of -0.0 into
        +0.0, and the bisection only asks whether ``Im w > 0``.  A dense
        one's missing top coefficients are zeros, which Horner's rule carries
        as an exact zero until the polynomial's own top coefficient is added.
        """
        stack = cls.__new__(cls)
        if polys[0].dense is None:
            stack.dense = None
            stack.jexps = _pad([p.jexps[:, 0] for p in polys], complex)
            stack.column = _pad([p.coefs for p in polys], float)
        else:
            # a (coefficients x polynomials) table, gathered per coefficient
            # at each call: never one coefficient per angle
            stack.dense = _pad([p.dense for p in polys], float)
        return stack

    def __call__(self, theta: np.ndarray, owner: np.ndarray | None = None) -> np.ndarray:
        if self.dense is None:
            column, jexps = self.column, self.jexps
            if owner is not None:  # a stack's (terms x polynomials) tables, a column an angle
                column, jexps = column[:, owner], jexps[:, owner]
            return _add_rows(column * np.exp(jexps * theta))
        z = np.exp(1j * theta)
        coefs = iter(self.dense[::-1])
        if owner is not None:
            coefs = (c[owner] for c in coefs)
        out = np.empty(theta.shape, complex)
        out[...] = next(coefs)
        # the product goes to its own buffer: numpy rounds a one-element
        # complex product computed in place differently
        zout = np.empty_like(out)
        for c in coefs:
            np.multiply(out, z, out=zout)
            np.add(zout, c, out=out)
        return out


def _pad(columns, dtype) -> np.ndarray:
    """The 1-D ``columns`` side by side, zero below the shorter ones."""
    table = np.zeros((max(len(c) for c in columns), len(columns)), dtype)
    for j, c in enumerate(columns):
        table[:len(c), j] = c
    return table


def _add_rows(table: np.ndarray) -> np.ndarray:
    """The rows of ``table`` added up in order, starting from zero.  Not
    ``table.sum(axis=0)``: numpy sums a one-angle ``(k, 1)`` table pairwise
    once ``k >= 4``, and the bits move; it adds in order for ``k <= 3`` and
    for every ``(k, 2, n)`` table, as in :class:`_BracketEnds`."""
    out = np.zeros(table.shape[1:], complex)
    for row in table:
        out += row
    return out


class _Split:
    """``P(z) = A(z) + k B(z)`` for one variant and delay model, ``k = eta*a``."""

    def __init__(self, variant: str, m: float, delay: DelayModel):
        self.variant, self.m, self.delay = variant, m, delay
        self.terms = char_poly_terms(variant, m, delay)
        self.degree = max(e for e, _, _ in self.terms)
        self.a = _CirclePoly((e, fixed) for e, fixed, _ in self.terms)
        self.b = _CirclePoly((e, per_k) for e, _, per_k in self.terms)
        self.kind = (self.a.dense is None, self.b.dense is None)

    @classmethod
    def stacked(cls, splits) -> "_Split":
        """Splits of one kind (:attr:`kind`) as one: :meth:`w` with
        ``owner`` evaluates angle ``i`` with ``splits[owner[i]]``."""
        stack = cls.__new__(cls)
        stack.a = _CirclePoly.stacked([s.a for s in splits])
        stack.b = _CirclePoly.stacked([s.b for s in splits])
        return stack

    def w(self, theta: np.ndarray, owner: np.ndarray | None = None) -> np.ndarray:
        """``-A conj(B)`` at the angles ``theta``, from one evaluation of
        each, real and positive where a root of ``A + k B`` sits on the
        circle for ``k = Re w / |B|^2``; ``owner`` names each angle's split
        in a stack."""
        return -self.a(theta, owner) * np.conj(self.b(theta, owner))

    def at(self, k: float) -> _CirclePoly:
        return _CirclePoly((e, fixed + k * per_k) for e, fixed, per_k in self.terms)


def _phase_resolved(f, theta: np.ndarray, vals: np.ndarray):
    """Refine the samples ``vals`` of complex functions, one a row, at the
    ascending angles ``theta``: every step that turns a row's phase by more
    than ``pi / 4`` is cut into eighths, with ``f(angles)`` giving every row
    at the new angles, until none does, so no near-zero of a row (a root
    close to the circle) can slip between two samples.  A row stops at a
    step that float resolution cannot cut, and after ``MAX_REFINE`` checks.

    Returns the new angles and values, one array of each a round, each value
    from its own step's row; each row's phase turn over ``theta``, added up
    step by step as the steps resolve; and whether each row resolved, every
    step below the bound (none can where the row vanishes on the circle).
    """
    rows = len(vals)
    # np.multiply, not ``*``: numpy may swap the operands of ``a * temp``, and
    # its FMA complex product need not commute (see roots._aberth)
    step = np.angle(np.multiply(vals[:, 1:], np.conj(vals[:, :-1])))
    wide = np.abs(step) > MAX_PHASE_STEP
    turn, failed = np.where(wide, 0.0, step).sum(axis=1), np.zeros(rows, bool)
    row, at = np.nonzero(wide)
    lo, hi, f_lo, f_hi = theta[at], theta[at + 1], vals[row, at], vals[row, at + 1]
    thetas, values = [], []
    # the samples were the first of MAX_REFINE checks
    for _ in range(MAX_REFINE - 1):
        if not row.size:
            break
        inner = lo[:, None] + (hi - lo)[:, None] * _EIGHTHS
        edges = np.concatenate([lo[:, None], inner, hi[:, None]], axis=1)
        stuck = ~(edges[:, 1:] > edges[:, :-1]).all(axis=1)
        if stuck.any():  # float resolution exhausted: the row stops
            failed[row[stuck]] = True
            live = ~failed[row]
            row, inner, edges = row[live], inner[live], edges[live]
            f_lo, f_hi = f_lo[live], f_hi[live]
            if not row.size:
                break
        f_inner = f(inner.ravel()).reshape(rows, *inner.shape)[row, np.arange(row.size)]
        thetas.append(inner.ravel())
        values.append(f_inner.ravel())
        f_edges = np.concatenate([f_lo[:, None], f_inner, f_hi[:, None]], axis=1)
        row = np.repeat(row, 8)
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        f_lo, f_hi = f_edges[:, :-1].ravel(), f_edges[:, 1:].ravel()
        step = np.angle(np.multiply(f_hi, np.conj(f_lo)))
        wide = np.abs(step) > MAX_PHASE_STEP
        turn += np.bincount(row, np.where(wide, 0.0, step), minlength=rows)
        row, lo, hi, f_lo, f_hi = row[wide], lo[wide], hi[wide], f_lo[wide], f_hi[wide]
    failed[row] = True  # still turning too far at the last check
    return thetas, values, turn, ~failed


def _scan(split: _Split) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The brackets of every sign change of ``Im w`` on the crossing grid,
    as their lower and upper angles and ``Im w`` at each.

    The grid holds ``8 (deg + 1) + 64`` angles in ``(0, pi]``, refined
    wherever the phase of ``A`` turns fast.
    """
    n = _grid_size(split.degree)
    # A vanishes at theta = 0 (the root z = 1 of k = 0), and slow modes (m
    # near 1) cross inside the first grid cell, so the grid also steps
    # towards 0 geometrically.  The refinement follows A alone: a zero of B
    # on the circle cannot be resolved, and no root crosses there (P = A at
    # such a point for every k).
    grid = np.pi * np.concatenate([0.5 ** np.arange(NEAR_ZERO_STEPS, 0, -1),
                                   np.arange(1, n + 1)]) / n
    a_val = split.a(grid)
    thetas, values, _, _ = _phase_resolved(lambda t: split.a(t)[None], grid, a_val[None])
    grid, a_val = np.concatenate([grid, *thetas]), np.concatenate([a_val, *values])
    order = np.argsort(grid)
    grid, a_val = grid[order], a_val[order]
    im = (-a_val * np.conj(split.b(grid))).imag
    pos = im > 0.0
    # a boolean test, not a product of signs: a zero that falls exactly on
    # a grid point must still open a bracket
    idx = np.flatnonzero(pos[:-1] != pos[1:])
    return grid[idx], grid[idx + 1], im[idx], im[idx + 1]


def _bisect_brackets(split: _Split, searches: list[int] | None, scans: list) -> list[np.ndarray]:
    """Bisect the brackets of several searches of one kind to float
    resolution, together; the lower ends, one array per search.  ``split``
    is a lone search's (``searches`` None) or a stack, with ``searches``
    naming the split of the stack that each of ``scans`` belongs to.

    Each round guesses every active bracket's crossing ``g`` (:func:`_guess`)
    and takes the midpoints ``0.5 * (lo + hi)`` that a one-step bisection
    visits if every angle below ``g`` keeps the lower end's sign, up to float
    exhaustion and at most ``BRACKET_BLOCK`` angles a round (at least one a
    bracket).  One :meth:`_Split.w` call evaluates every path, and each walk
    applies the real decisions along its own, up to and including the first
    that differs from the prediction: past it the path was formed from a
    wrong end.  Every applied decision is the one-step bisection's at the
    same midpoint, so each bracket moves as it would alone and one level at
    a time, bit for bit, for any guess.  The guess only sets how many levels
    a call confirms, and each call confirms at least one.  A bracket whose
    midpoint is one of its ends is exhausted and leaves the active set.
    """
    counts = [len(scan[0]) for scan in scans]
    lo, hi, f_lo, f_hi = (np.concatenate(parts).tolist() for parts in zip(*scans))
    owners = None if searches is None else np.repeat(searches, counts)
    active = [i for i in range(len(lo)) if lo[i] < 0.5 * (lo[i] + hi[i]) < hi[i]]
    while active:
        room = max(1, BRACKET_BLOCK // len(active))
        guesses = [_guess(lo[i], hi[i], f_lo[i], f_hi[i]) for i in active]
        # in Python floats: after the cut a search carries about one
        # bracket, and a numpy call per level would cost more than it saves
        paths = []
        for i, g in zip(active, guesses):
            a, b, path = lo[i], hi[i], []
            while len(path) < room and a < (mid := 0.5 * (a + b)) < b:
                path.append(mid)
                a, b = (mid, b) if mid < g else (a, mid)
            paths.append(path)
        sizes = [len(path) for path in paths]
        owner = None if owners is None else np.repeat(owners[active], sizes)
        f = split.w(np.array(list(itertools.chain(*paths))), owner).imag.tolist()
        at, left = 0, []
        for i, g, path in zip(active, guesses, paths):
            for mid, f_mid in zip(path, f[at:at + len(path)]):
                # up wherever Im w has the sign of the lower end
                up = (f_mid > 0.0) == (f_lo[i] > 0.0)
                if up:
                    lo[i], f_lo[i] = mid, f_mid
                else:
                    hi[i], f_hi[i] = mid, f_mid
                if up != (mid < g):
                    break
            at += len(path)
            if lo[i] < 0.5 * (lo[i] + hi[i]) < hi[i]:
                left.append(i)
        active = left
    return np.split(np.array(lo), np.cumsum(counts)[:-1])


def _guess(lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Where ``Im w`` crosses zero in ``(lo, hi)``, by regula falsi on its
    values ``f_lo`` and ``f_hi`` at the ends, which lie on either side of
    zero, so their difference is never zero."""
    return lo + (hi - lo) * f_lo / (f_lo - f_hi)


def _picks(split: _Split, searches: list[int] | None,
           lows: list[np.ndarray]) -> list[tuple[float, float] | NoThreshold]:
    """Each search's smallest positive ``k`` over its bisected angles
    ``lows`` and ``theta = pi``, and its angle, from one evaluation of ``A``
    and one of ``B``; ``split`` and ``searches`` are as in
    :func:`_bisect_brackets`.  ``A`` and ``B`` are taken as real at pi, as
    they are exactly, so a ``B`` that vanishes there offers no candidate."""
    thetas = [np.append(lo, np.pi) for lo in lows]
    sizes = [t.size for t in thetas]
    owner = None if searches is None else np.repeat(searches, sizes)
    theta = np.concatenate(thetas)
    ends = list(itertools.accumulate(sizes, initial=0))
    a_val, b_val = split.a(theta, owner), split.b(theta, owner)
    for j in ends[1:]:  # each search's last angle is pi
        a_val.imag[j - 1] = b_val.imag[j - 1] = 0.0
    w = -a_val * np.conj(b_val)
    return [_least_k(t, w[i:j], b_val[i:j]) for t, i, j in zip(thetas, ends, ends[1:])]


def _least_k(theta: np.ndarray, w: np.ndarray,
             b_val: np.ndarray) -> tuple[float, float] | NoThreshold:
    """The smallest positive ``k = Re w / |B|^2`` over ``theta``, and its angle."""
    with np.errstate(divide="ignore", invalid="ignore"):
        k = w.real / (b_val.real**2 + b_val.imag**2)
    ok = np.flatnonzero(np.isfinite(k) & (k > 0.0))
    if not ok.size:
        return NoThreshold("stable at every step size: no root ever reaches the unit circle")
    best = ok[np.argmin(k[ok])]
    return float(k[best]), float(theta[best])


def _crossings(splits: list[_Split]) -> list[tuple[float, float] | NoThreshold]:
    """Each split's smallest positive ``k = -A/B`` on the unit circle, where
    ``w = -A conj(B)`` is real, and its angle, in order, or its NoThreshold
    in place; the certificate (:func:`_certified`) shows it is the boundary.

    Every ``A`` here is ``(z - 1) C`` with ``|C| >= 1 - m`` on the unit
    circle, and ``|B| <= 1 - m`` there (``C = z^K`` plain, ``z^(K-1) (z - m)``
    momentum, or ``z - m`` at tau 0, ``z^(K+1) - m`` shifted), so a crossing
    at angle theta has ``k >= |e^(i theta) - 1| = 2 sin(theta / 2)``.  Each
    search first bisects only its lowest-angle bracket and picks ``k_c``
    over it and ``theta = pi``, with ``A`` and ``B`` taken as real there
    (none if ``B(-1) = 0``); a bracket whose lower angle has ``2 sin(theta_lo
    / 2) > k_c (1 + CUT_SLACK)`` cannot hold a smaller ``k`` and is dropped.
    Only the brackets left are bisected, and the pick is made again over
    them and the first, so it equals the pick over every bracket.  A search
    with at most one bracket, or none left after the cut, picks once.

    Splits of one kind (sparse or dense ``A`` and ``B``) share both rounds
    of bisection and of picks, in blocks of whole searches holding at most
    ``BRACKET_BLOCK`` brackets in their scans; a search with more brackets
    than that is bisected alone.  A bisection round evaluates every active
    bracket's guessed path in one call of at most ``BRACKET_BLOCK`` angles,
    or one per bracket of a search with more (:func:`_bisect_brackets`).  A
    block stacks its splits once for every call, and each round of its
    picks is one evaluation of ``A`` and one of ``B`` (:func:`_picks`).
    """
    found = [None] * len(splits)
    kinds: dict[tuple[bool, bool], list[int]] = {}
    for i, split in enumerate(splits):
        kinds.setdefault(split.kind, []).append(i)

    def flush(block):
        # one stack serves the block's every call; a lone search needs none
        stack, searches = splits[block[0][0]], None
        if len(block) > 1:
            stack = _Split.stacked([splits[i] for i, _ in block])
            searches = list(range(len(block)))
        firsts = _bisect_brackets(stack, searches, [tuple(part[:1] for part in scan) for _, scan in block])
        left = []
        for j, ((i, scan), pick) in enumerate(zip(block, _picks(stack, searches, firsts))):
            found[i] = pick
            k_c = math.inf if isinstance(pick, NoThreshold) else pick[0]
            keep = 2.0 * np.sin(0.5 * scan[0][1:]) <= k_c * (1.0 + CUT_SLACK)
            if keep.any():
                left.append((j, tuple(part[1:][keep] for part in scan)))
        if left:
            serves = None if searches is None else [j for j, _ in left]
            lows = _bisect_brackets(stack, serves, [rest for _, rest in left])
            picks = _picks(stack, serves, [np.concatenate([firsts[j], lo]) for (j, _), lo in zip(left, lows)])
            for (j, _), pick in zip(left, picks):
                found[block[j][0]] = pick

    for indices in kinds.values():
        block, size = [], 0
        for i in indices:
            scan = _scan(splits[i])
            if block and size + len(scan[0]) > BRACKET_BLOCK:
                flush(block)
                block, size = [], 0
            block.append((i, scan))
            size += len(scan[0])
        flush(block)
    return found


class _BracketEnds:
    """``A + k B`` at both ends of a bracket, each on its certificate circle:
    the stable end ``k_lo`` on ``|z| = 1 + CERT_MARGIN``, the unstable end
    ``k_hi`` on ``|z| = 1 - CERT_MARGIN``.

    The ends are the two rows of one real coefficient table, ``c_e
    radius^e``, each end's terms summed by exponent as :meth:`_Split.at`
    sums them, so that ``z = e^(i theta)`` puts each row on its circle.  One
    real FFT of the table gives both rows at the even angles (:meth:`even`),
    and one exponential table gives them at any other angles (a call),
    adding each row's terms up in the order :meth:`_Split.at`'s polynomial
    does.
    """

    def __init__(self, split: _Split, k_lo: float, k_hi: float):
        self.n = _grid_size(split.degree)
        self.table = np.zeros((2, split.degree + 1))
        for row, k, radius in zip(self.table, (k_lo, k_hi), (1.0 + CERT_MARGIN, 1.0 - CERT_MARGIN)):
            acc = _sum_by_exponent((e, fixed + k * per_k) for e, fixed, per_k in split.terms)
            exps = np.array(list(acc))
            row[exps] = np.array(list(acc.values())) * radius**exps
        # both ends have the terms' exponents, in the same order
        self.coefs, self.jexps = self.table[:, exps].T[:, :, None], 1j * exps[:, None, None]

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Both rows at the angles ``theta``, one row each, from exponential
        tables of at most ``CERT_TABLE`` entries."""
        step = max(1, CERT_TABLE // len(self.jexps))
        # a sum over the first axis adds the terms up in order, as _add_rows
        parts = [(self.coefs * np.exp(self.jexps * theta[i:i + step])).sum(axis=0)
                 for i in range(0, theta.size, step)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def even(self) -> tuple[np.ndarray, np.ndarray]:
        """The even angles ``2 pi j / M`` in ``[0, pi]`` and both rows there.

        ``M`` is the smallest power of two with ``M >= 2 (n - 1)``, ``n = 8
        (deg + 1) + 64``, so the angles are at least as dense as ``n`` evenly
        spaced ones on ``[0, pi]``, and ``0`` and ``pi`` are among them.
        """
        half = 1 << (self.n - 2).bit_length()
        # the FFT adds up c_e e^(-i theta e): the conjugate of each row
        vals = np.conj(np.fft.rfft(self.table, 2 * half))
        return np.pi * np.arange(half + 1) / half, vals

    def grid(self, theta_hint: float) -> tuple[np.ndarray, np.ndarray]:
        """The even angles, joined by a geometric cluster ``theta_hint +- (pi
        / n) 8^-j`` for ``j = 0..MAX_REFINE`` clipped to ``[0, pi]``, in
        ascending order without repeats, and both rows there.

        The finest offsets round onto ``theta_hint`` itself.  A bracket end
        sits within ``rel_tol`` of the crossing, so one root is that close to
        the circle at theta*; the cluster samples the fast phase turn there
        up front instead of leaving it to level after level of refinement.
        The grid holds every even angle, so a count is as certain with any
        hint: the crossing angle only saves refinement.
        """
        theta, vals = self.even()
        cluster = np.clip(theta_hint + (np.pi / self.n) * _CLUSTER, 0.0, np.pi)
        # the few even angles inside the cluster's span are sorted in with
        # it, once each, and evaluated with it: near the crossing, where a
        # row is smallest, the exponential table rounds as split.at's does
        i, j = np.searchsorted(theta, cluster[0]), np.searchsorted(theta, cluster[-1], "right")
        span = np.sort(np.concatenate([theta[i:j], cluster]))
        span = span[np.concatenate([[True], span[1:] > span[:-1]])]
        return (np.concatenate([theta[:i], span, theta[j:]]),
                np.concatenate([vals[:, :i], self(span), vals[:, j:]], axis=1))


def _certified(split: _Split, a: float, rel_tol: float, k_star: float,
               theta_star: float) -> ThresholdResult:
    """The eta bracket around the crossing ``k_star``, certified, as a result."""
    p = split.at(k_star)
    residual = abs(p(np.array([theta_star]))[0]) / math.fsum(abs(p.coefs))
    found = _bisect_eta(lambda eta: eta * a <= k_star, a, BRACKET_START, rel_tol,
                        method=METHOD_BISECTION, variant=split.variant, m=split.m,
                        delay=split.delay, max_root_residual=float(residual),
                        crossing_angle=theta_star)
    k_lo, k_hi = (eta * a for eta in found.bracket)
    ends = _BracketEnds(split, k_lo, k_hi)
    _, _, turns, resolved = _phase_resolved(ends, *ends.grid(theta_star))
    for k, ok in zip((k_lo, k_hi), resolved):
        if not ok:
            raise NoConvergence(f"winding number at eta*a = {k!r} did not resolve")
    # roots inside each end's circle, by the argument principle: real
    # coefficients make the lower half circle mirror the upper one, so the
    # turn over [0, pi] is half the count
    inside_lo, inside_hi = (round(float(t) / np.pi) for t in turns)
    if inside_lo != split.degree or inside_hi >= split.degree:
        raise NoConvergence(
            f"crossing at eta*a = {k_star!r} failed its certificate: "
            f"{inside_lo} of {split.degree} roots inside at the stable end, "
            f"{inside_hi} at the unstable end"
        )
    return found


def _searches(variant: str, a: float, delays, m: float,
              rel_tol: float) -> list[ThresholdResult | NoThreshold | NoConvergence]:
    """:func:`numeric_threshold` at each delay, in order, with the crossings
    of all of them bisected together (:func:`_crossings`); a failed search
    gives its NoThreshold or NoConvergence in place, and so does a delay
    whose step sizes overflow at this ``a``, subnormal ``a`` included: its
    ValueError refuses the curvature.  Bad arguments raise ValueError before
    any search starts.
    """
    a = _check_positive("a", a)
    rel_tol = _check_rel_tol("rel_tol", rel_tol)
    m = _check_variant(variant, m)
    splits = [_Split(variant, m, as_delay(d)) for d in delays]
    results = []
    for split, crossing in zip(splits, _crossings(splits)):
        if isinstance(crossing, NoThreshold):
            results.append(crossing)
            continue
        try:
            results.append(_certified(split, a, rel_tol, *crossing))
        except (NoThreshold, NoConvergence, ValueError) as exc:
            results.append(exc)
    return results


def numeric_threshold(
    variant: str,
    a: float,
    delay: DelayModel,
    m: float = 0.0,
    rel_tol: float = 1e-8,
) -> ThresholdResult:
    """Locate the step-size boundary from the unit-circle crossing.

    The crossing search (:func:`_crossings`) gives ``k* = eta* a``.  The
    returned bracket is the one bisection reaches with the predicate ``eta*a
    <= k*`` on the grid ``1e-6 * 2^j / a``: doubling eta from ``8e-6 / a``
    (scanning up from ``1e-6 / a`` if that probe is past ``k*``) until it
    passes ``k*``, then halving until the bracket is narrower than ``rel_tol``
    times its midpoint.  Before returning, the argument principle certifies
    it: every
    root lies inside ``|z| = 1 + 1e-12`` at the stable end, and at least one
    lies outside ``|z| = 1 - 1e-12`` at the unstable end.  (The margins let
    a bracket end sit exactly on the boundary.)  Both counts are made in one
    pass over one grid: the even angles ``2 pi j / M`` in ``[0, pi]``, with
    ``M`` the smallest power of two at least ``2 (n - 1)``, ``n = 8 (deg +
    1) + 64``, from one real FFT of both ends' coefficients, plus a
    geometric cluster around the crossing angle theta*, where each bracket
    end has a root within ``rel_tol`` of the circle; then every step whose
    phase turns by more than ``pi / 4`` is refined.  Random delays pair with
    plain and momentum, not shifted (``char_poly_terms``).  This is the
    one-delay case of the batched search behind :func:`threshold_curve`.

    Raises
    ------
    NoThreshold
        If no root of the polynomial ever reaches the unit circle.
    NoConvergence
        If the certificate fails: the crossing is not the boundary.
    ValueError
        If ``a`` is so small that the bracket's step sizes overflow to inf,
        subnormal ``a`` included.  In :func:`threshold_curve` such a delay's
        row fails in place.
    """
    found, = _searches(variant, a, [delay], m, rel_tol)
    if isinstance(found, Exception):
        raise found
    return found


@dataclass(frozen=True)
class CurveRow:
    """One threshold along a delay sweep; ``error`` set if the search failed."""

    x: float
    result: ThresholdResult | None
    error: str | None

    @property
    def inv_a_eta(self) -> float:
        if self.result is None:
            raise ValueError("failed row has no threshold")
        return 1.0 / (self.result.a * self.result.eta_star)


@dataclass(frozen=True)
class ThresholdCurve:
    """Thresholds across delays plus the least-squares line through
    ``1 / (a eta*)`` versus delay (or expected delay)."""

    rows: tuple[CurveRow, ...]
    slope: float
    intercept: float
    r_squared: float

    def to_csv(self) -> str:
        lines = ["tau_or_Etau,eta_star,inv_a_eta,method,max_root_residual"]
        for row in self.rows:
            if row.result is None:
                lines.append(f"{row.x!r},,,failed,")
            else:
                r = row.result
                lines.append(
                    f"{row.x!r},{r.eta_star!r},{row.inv_a_eta!r},{r.method},{r.max_root_residual!r}"
                )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def _fit_line(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    n = len(xs)
    if n < 2:
        return math.nan, math.nan, math.nan
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    if sxx == 0.0:
        return math.nan, math.nan, math.nan
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - ybar) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def threshold_curve(
    variant: str,
    a: float,
    delays,
    m: float = 0.0,
    rel_tol: float = 1e-8,
) -> ThresholdCurve:
    """:func:`numeric_threshold` across delays, and the fit of the reciprocal.

    ``delays`` may mix plain integers (constant delay) and DelayModel
    instances; the x coordinate is the delay or its expectation.  The
    searches run as one batch: the crossing brackets of every delay are
    bisected together, in blocks of at most ``BRACKET_BLOCK`` brackets, and
    each row equals the search of its delay alone.  A failed search marks
    its row and the sweep continues, a delay whose step sizes overflow at
    this ``a`` included; failed rows are excluded from the fit.
    """
    models = [as_delay(d) for d in delays]
    rows = []
    for model, found in zip(models, _searches(variant, a, models, m, rel_tol)):
        x = float(model.expected_delay())
        if isinstance(found, ThresholdResult):
            rows.append(CurveRow(x=x, result=found, error=None))
        else:
            rows.append(CurveRow(x=x, result=None, error=str(found)))
    good = [r for r in rows if r.result is not None]
    slope, intercept, r2 = _fit_line([r.x for r in good], [r.inv_a_eta for r in good])
    return ThresholdCurve(rows=tuple(rows), slope=slope, intercept=intercept, r_squared=r2)
