"""Characteristic polynomials of gradient descent with stale updates.

A worker that applies a gradient computed ``tau`` steps ago turns the usual
one-dimensional contraction ``x_{t+1} = x_t - eta*a*x_t`` into a delay
recurrence ``x_{t+1} = x_t - eta*a*x_{t-tau}``.  Substituting ``x_t = z^t``
gives a polynomial in ``z`` whose root magnitudes decide stability.  This
module builds those polynomials for the optimizer variants we study:

* plain:            ``z^(tau+1) - z^tau + eta*a``
* momentum:         ``z^(tau+1) - (1+m) z^tau + m z^(tau-1) + eta*(1-m)*a``
* shifted momentum: ``z^(tau+2) - z^(tau+1) + (eta*(1-m)*a - m) z + m``
* random delay:     ``z^(K+1) - (1+m) z^K + m z^(K-1) + eta*(1-m)*a * sum_k p_k z^(K-k)``

where ``a`` is the curvature of the loss along the mode under study and the
random-delay form averages over a probability mass function on delays with
maximum support ``K`` (plain has no ``m`` terms).  A constant delay is that
pmf's point mass, so one term builder (``char_poly_terms``) builds plain and
momentum at any delay but momentum's ``tau = 0``.  Small ``tau`` makes
exponents collide (for example the ``m z^(tau-1)`` term lands on the
constant when ``tau = 1``), so builders accumulate coefficients by exponent
instead of writing to fixed slots.

Every one of these is linear in ``k = eta*a``: ``P(z) = A(z) + k B(z)``.
``char_poly_terms`` gives that split as sparse terms, the one description
of each polynomial that the builders and the threshold search share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

PROB_SUM_TOL = 1e-12
MAX_TAU = 10_000

PLAIN = "plain"
MOMENTUM = "momentum"
SHIFTED_MOMENTUM = "shifted"
VARIANTS = (PLAIN, MOMENTUM, SHIFTED_MOMENTUM)

# One term of a split polynomial: (exponent, coefficient in A, coefficient in B).
Term = tuple[int, float, float]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as ascending coefficients ``c0 + c1 z + ...``.

    Every coefficient must be finite.  Trailing zero coefficients (the high
    powers) are trimmed on construction so ``degree`` always refers to a
    nonzero leading coefficient.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(map(float, self.coeffs))
        if not all(map(math.isfinite, cs)):
            k = next(k for k, c in enumerate(cs) if not math.isfinite(c))
            raise ValueError(f"coefficient {k} is not finite ({cs[k]!r})")
        while len(cs) > 1 and cs[-1] == 0.0:
            cs = cs[:-1]
        if not cs or all(c == 0.0 for c in cs):
            raise ValueError("polynomial must have a nonzero coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class DelayModel:
    """Distribution of gradient staleness: a constant delay or a finite pmf.

    ``delays`` are distinct integers in ``[0, MAX_TAU]`` in ascending order
    and ``probs`` the matching masses, summing to 1 within ``PROB_SUM_TOL``.
    A constant delay is the single-entry point mass, and only it may be 0: a
    pmf's delays start at 1.
    """

    delays: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        delays = tuple(_check_delay(d) for d in self.delays)
        probs = tuple(float(p) for p in self.probs)
        if len(delays) != len(probs) or not delays:
            raise ValueError("delays and probs must be equal-length, non-empty")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValueError("delays must be strictly increasing")
        if len(delays) > 1 and delays[0] == 0:
            raise ValueError("pmf delays must be positive integers")
        if any(not 0.0 < p <= 1.0 for p in probs):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(math.fsum(probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def constant(cls, tau: int) -> "DelayModel":
        return cls((tau,), (1.0,))

    @classmethod
    def pmf(cls, entries) -> "DelayModel":
        """Build from ``{delay: prob}`` or an iterable of (delay, prob) pairs."""
        pairs = sorted((_check_delay(k), p) for k, p in dict(entries).items())
        return cls(tuple(k for k, _ in pairs), tuple(p for _, p in pairs))

    @property
    def is_constant(self) -> bool:
        return len(self.delays) == 1

    @property
    def tau(self) -> int:
        if not self.is_constant:
            raise ValueError("tau is only defined for a constant delay")
        return self.delays[0]

    @property
    def max_delay(self) -> int:
        return self.delays[-1]

    def expected_delay(self) -> float:
        return math.fsum(k * p for k, p in zip(self.delays, self.probs))


@dataclass(frozen=True)
class OptimizerSpec:
    """Optimizer variant plus its scalar hyperparameters.

    ``variant`` is one of ``plain`` (no momentum), ``momentum`` (a single
    central velocity) or ``shifted`` (each worker keeps its own velocity,
    so the velocity it reuses is as stale as the gradient).
    """

    variant: str
    eta: float
    m: float = 0.0

    def __post_init__(self) -> None:
        _check_positive("eta", self.eta)
        _check_variant(self.variant, self.m)


# What counts as a valid input, said once: every module checks its step
# sizes, curvatures, momenta, delays, counts and seeds with these.

def _check_positive(name: str, x: float) -> None:
    """Require ``0 < x < inf`` (a NaN fails)."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _check_rel_tol(name: str, x: float) -> None:
    """Require ``2**-52 <= x < inf`` (a NaN fails).  Adjacent floats at eta
    differ by at most ``2**-52 * eta``, so a bisection's bracket gets this
    narrow before float resolution stops it."""
    if not 2.0 ** -52 <= x < math.inf:
        raise ValueError(f"{name} must be finite and at least 2**-52, got {x!r}")


def _check_momentum(m: float, name: str = "m") -> None:
    if not 0.0 <= m < 1.0:
        raise ValueError(f"{name} must lie in [0, 1)")


def _check_integer(name: str, x) -> int:
    """An integer (numpy's included, bools not) as an ``int``."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _check_delay(tau, name: str = "tau") -> int:
    """A delay as an ``int``: an integer in ``[0, MAX_TAU]``."""
    tau = _check_integer(name, tau)
    if not 0 <= tau <= MAX_TAU:
        raise ValueError(f"{name} must be in [0, {MAX_TAU}], got {tau}")
    return tau


def _check_count(name: str, n) -> int:
    """A count (steps, workers, dimensions) as an ``int``: an integer >= 1."""
    n = _check_integer(name, n)
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    return n


def _check_seed(name: str, seed) -> int | None:
    """A seed as given: ``None`` (fresh entropy) or an integer >= 0 as an ``int``."""
    if seed is None:
        return None
    seed = _check_integer(name, seed)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer or None, got {seed}")
    return seed


def as_delay(delay) -> DelayModel:
    """A ``DelayModel`` as given; anything else as the constant delay it names."""
    return delay if isinstance(delay, DelayModel) else DelayModel.constant(delay)


def _check_variant(variant: str, m: float) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    _check_momentum(m)
    if variant == PLAIN and m != 0.0:
        raise ValueError("plain variant has no momentum; m must be 0")


def _check_pairing(variant: str, delay: DelayModel) -> None:
    """Shifted momentum reads a per-worker velocity, which only a constant delay drives."""
    if variant == SHIFTED_MOMENTUM and not delay.is_constant:
        raise ValueError("shifted momentum needs a constant delay: its velocities are per worker")


def char_poly_terms(variant: str, m: float, delay: DelayModel) -> tuple[Term, ...]:
    """Sparse terms of the characteristic polynomial split by the step size.

    Every polynomial here is linear in ``k = eta*a``: ``P(z) = A(z) + k B(z)``.
    Each term ``(exp, fixed, per_k)`` contributes ``fixed`` to ``A`` and
    ``per_k`` to ``B`` at ``z^exp``.  Terms may share an exponent (small
    delays make them collide); every consumer adds them up in this order
    (``_sum_by_exponent``).  Plain and momentum share one form at every
    delay but momentum's constant ``tau = 0``: ``z^(K+1) - (1+m) z^K + m
    z^(K-1) + (1-m) k sum_j p_j z^(K-j)``, a constant delay being its point
    mass; plain has no ``m`` term.  ``delay`` goes through ``as_delay``, and
    shifted momentum takes a constant delay only (``_check_pairing``).
    """
    _check_variant(variant, m)
    delay = as_delay(delay)
    _check_pairing(variant, delay)
    big_k = delay.max_delay
    if variant == SHIFTED_MOMENTUM:
        return ((big_k + 2, 1.0, 0.0), (big_k + 1, -1.0, 0.0), (1, -m, 1.0 - m), (0, m, 0.0))
    if variant == MOMENTUM and big_k == 0:
        # z^-1 would appear; multiplying through by z moves the gradient
        # term onto z, where it merges with the momentum term
        return ((2, 1.0, 0.0), (1, -(1.0 + m), 0.0), (1, 0.0, 1.0 - m), (0, m, 0.0))
    head = ((big_k + 1, 1.0, 0.0), (big_k, -(1.0 + m), 0.0))
    if variant == MOMENTUM:
        head += ((big_k - 1, m, 0.0),)
    return head + tuple((big_k - j, 0.0, (1.0 - m) * p) for j, p in zip(delay.delays, delay.probs))


def _sum_by_exponent(terms) -> dict[int, float]:
    """``(exp, coef)`` terms added up by exponent, in term order from zero."""
    acc: dict[int, float] = {}
    for exp, coef in terms:
        acc[exp] = acc.get(exp, 0.0) + coef
    return acc


def char_poly_plain(eta: float, a: float, tau: int) -> Polynomial:
    """``z^(tau+1) - z^tau + eta*a``, the plain stale-gradient polynomial.

    At ``tau = 0`` the two leading terms collide with the constant structure
    and the result degenerates to the familiar ``z - (1 - eta*a)``.
    """
    return char_poly(OptimizerSpec(PLAIN, eta), a, DelayModel.constant(tau))


def char_poly_momentum(eta: float, a: float, tau: int, m: float) -> Polynomial:
    """Heavy-ball variant with one central velocity buffer.

    ``z^(tau+1) - (1+m) z^tau + m z^(tau-1) + eta*(1-m)*a`` for ``tau >= 1``.
    At ``tau = 0`` that form would carry ``z^-1``; multiplying through by
    ``z`` gives the degree-2 polynomial ``z^2 - (1 + m - eta*(1-m)*a) z + m``
    (the gradient term shifts onto ``z`` and merges there).
    """
    return char_poly(OptimizerSpec(MOMENTUM, eta, m), a, DelayModel.constant(tau))


def char_poly_shifted(eta: float, a: float, tau: int, m: float) -> Polynomial:
    """Per-worker-velocity variant: ``z^(tau+2) - z^(tau+1) +
    (eta*(1-m)*a - m) z + m``.

    The velocity a worker reuses is as stale as its gradient, which moves the
    momentum feedback out to lag ``tau + 1`` and, unlike the central-velocity
    variant, lets larger ``m`` tolerate larger step sizes.
    """
    return char_poly(OptimizerSpec(SHIFTED_MOMENTUM, eta, m), a, DelayModel.constant(tau))


def char_poly_stochastic(eta: float, a: float, delay: DelayModel) -> Polynomial:
    """Expected-dynamics polynomial for a random delay drawn from ``delay``.

    With maximum support ``K`` this is ``z^(K+1) - z^K + eta*a * sum_k p_k
    z^(K-k)``.  A point mass is the constant-delay polynomial.
    """
    return char_poly(OptimizerSpec(PLAIN, eta), a, delay)


def char_poly(optimizer: OptimizerSpec, a: float, delay: DelayModel | int) -> Polynomial:
    """The polynomial of an optimizer/delay combination, from ``char_poly_terms``.

    ``delay`` is a ``DelayModel`` or an int, the constant delay it names.
    Shifted momentum with a random delay raises (``_check_pairing``).
    """
    _check_positive("a", a)
    eta = optimizer.eta
    acc = _sum_by_exponent((exp, fixed + eta * per_k * a) for exp, fixed, per_k
                           in char_poly_terms(optimizer.variant, optimizer.m, delay))
    coeffs = [0.0] * (max(acc) + 1)
    for exp, coef in acc.items():
        coeffs[exp] = coef
    return Polynomial(tuple(coeffs))


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def pmf_uniform(lo: int, hi: int) -> DelayModel:
    """Uniform delay on the integers ``lo..hi`` inclusive."""
    lo, hi = _check_delay(lo), _check_delay(hi)
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    n = hi - lo + 1
    return DelayModel.pmf((k, 1.0 / n) for k in range(lo, hi + 1))


def pmf_discrete_gaussian(mu: int) -> DelayModel:
    """Discretized normal delay centred on ``mu`` with unit width.

    Mass at ``k`` in ``1..2*mu`` is the normal probability of the interval
    ``(k-0.5, k+0.5)``, renormalized over the truncated support.  The mean
    sits within 1e-6 of ``mu`` once ``mu >= 6``; for smaller ``mu`` the
    dropped left tail biases it up by a visible but harmless amount.  The
    support must fit the delay bound: ``2 * mu <= MAX_TAU``.
    """
    mu = _check_delay(mu)
    if mu < 1:
        raise ValueError("mu must be a positive integer")
    _check_delay(2 * mu)
    raw = [_norm_cdf(k + 0.5 - mu) - _norm_cdf(k - 0.5 - mu) for k in range(1, 2 * mu + 1)]
    total = math.fsum(raw)
    # Far-tail intervals underflow to exactly zero mass; drop them rather
    # than carry entries the delay model cannot represent.
    return DelayModel.pmf(
        (k, raw[k - 1] / total) for k in range(1, 2 * mu + 1) if raw[k - 1] > 0.0
    )
