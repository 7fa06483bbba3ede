"""Time-domain simulation of stale-gradient dynamics on quadratic problems.

This is the trajectory view of the same systems the characteristic
polynomials describe: a run blows up exactly when the matching polynomial
has a root outside the unit circle, so the simulators double as an
independent check on the algebra.  Provided here: the deterministic
expectation dynamics, their sampled-gradient counterpart, threshold search
driven purely by simulation verdicts, escape-time tables, and a
power-iteration sharpness estimate.

All randomness flows through seeded generators; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import DelayModel, OptimizerSpec
from .errors import NoConvergence, UndecidedAtProbe
from .stability import METHOD_SIMULATION, ThresholdResult, _bisect_eta, _check_rel_tol

CONVERGED = "converged"
DIVERGED = "diverged"
UNDECIDED = "undecided"

MAX_STEPS_FLOOR = 100_000
# Step budget for threshold probes.  Bisection midpoints can land close
# enough to the boundary that the dominant mode needs several hundred
# thousand steps to gain (or shed) a factor of 1e6; this budget covers the
# worst probe the doubling-then-halving schedule can produce at tau <= 64
# with room to spare, and the search doubles it once more before giving up.
PROBE_STEPS = 1_000_000

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
COMPONENT_MEAN_TOL = 1e-10


class QuadraticProblem:
    """Quadratic objective ``0.5 (x - x*)' H (x - x*)``, possibly a mean of
    per-sample quadratics.

    Parameters
    ----------
    hessian : (d, d) array_like
        Symmetric positive semidefinite curvature matrix with at least one
        strictly positive eigenvalue.
    components : sequence of (d, d) array_like, optional
        Per-sample curvatures whose mean is ``hessian``; required by
        ``simulate_sgd``, ignored by the expectation dynamics.
    minimum : (d,) array_like, optional
        Location of the minimum; defaults to the origin.  Simulations track
        the offset from this point, so it never enters the arithmetic.
    """

    def __init__(self, hessian, components=None, minimum=None):
        H = np.array(hessian, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("hessian must be a square matrix")
        if not np.isfinite(H).all():
            raise ValueError("hessian entries must be finite")
        scale = max(1.0, float(np.abs(H).max()))
        if float(np.abs(H - H.T).max()) > SYMMETRY_TOL * scale:
            raise ValueError("hessian must be symmetric")
        eigvals, eigvecs = np.linalg.eigh(H)
        if float(eigvals[0]) < -PSD_TOL:
            raise ValueError(
                f"hessian must be positive semidefinite (smallest eigenvalue {eigvals[0]:.3e})"
            )
        if float(eigvals[-1]) <= 0.0:
            raise ValueError("need at least one positive eigenvalue (zero sharpness)")

        if components is not None:
            C = np.array(components, dtype=float)
            if C.ndim != 3 or C.shape[1:] != H.shape:
                raise ValueError("components must be a stack of matrices shaped like the hessian")
            if not np.isfinite(C).all():
                raise ValueError("component entries must be finite")
            if float(np.abs(C - np.transpose(C, (0, 2, 1))).max()) > SYMMETRY_TOL * scale:
                raise ValueError("every component must be symmetric")
            if float(np.abs(C.mean(axis=0) - H).max()) > COMPONENT_MEAN_TOL:
                raise ValueError("components must average to the hessian")
            C.setflags(write=False)
        else:
            C = None

        if minimum is None:
            x_star = np.zeros(H.shape[0])
        else:
            x_star = np.array(minimum, dtype=float)
            if x_star.shape != (H.shape[0],):
                raise ValueError("minimum must be a length-d vector")
            if not np.isfinite(x_star).all():
                raise ValueError("minimum entries must be finite")
        x_star.setflags(write=False)

        # Fix the top eigenvector's sign so initialization is reproducible.
        top = eigvecs[:, -1].copy()
        if top[int(np.argmax(np.abs(top)))] < 0:
            top = -top
        top.setflags(write=False)
        eigvals.setflags(write=False)
        H.setflags(write=False)

        self._hessian = H
        self._components = C
        self._minimum = x_star
        self._eigvals = eigvals
        self._top = top

    @classmethod
    def diagonal(cls, spectrum, components=None, minimum=None) -> "QuadraticProblem":
        """Problem with the given eigenvalues on the diagonal."""
        return cls(np.diag(np.asarray(spectrum, dtype=float)), components, minimum)

    @property
    def d(self) -> int:
        return self._hessian.shape[0]

    @property
    def hessian(self) -> np.ndarray:
        return self._hessian

    @property
    def components(self) -> np.ndarray | None:
        return self._components

    @property
    def minimum(self) -> np.ndarray:
        return self._minimum

    @property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending."""
        return self._eigvals

    def sharpness(self) -> float:
        """Largest eigenvalue of the hessian; the ``a`` of the 1-D theory."""
        return float(self._eigvals[-1])

    def top_eigvec(self) -> np.ndarray:
        """Unit eigenvector of the largest eigenvalue (deterministic sign)."""
        return self._top

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        n = "none" if self._components is None else str(self._components.shape[0])
        return f"QuadraticProblem(d={self.d}, sharpness={self.sharpness():.6g}, components={n})"


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation run.

    ``max_steps=None`` resolves to ``max(100 * (tau_max + 1), 100_000)``.
    ``init`` picks the starting offset: the top eigenvector of the hessian
    (excites the mode that loses stability first) or a seeded random unit
    vector.  Trace and state recording are off by default; ``record_every``
    thins the trace only, states are kept at every step.
    """

    optimizer: OptimizerSpec
    delay: DelayModel | int
    max_steps: int | None = None
    blowup_factor: float = 1e6
    decay_factor: float = 1e-6
    init: str = "top_eigvec"
    seed: int = 0
    record_every: int = 1
    record_trace: bool = False
    record_states: bool = False

    def __post_init__(self):
        if isinstance(self.delay, int):
            object.__setattr__(self, "delay", DelayModel.constant(self.delay))
        if not isinstance(self.optimizer, OptimizerSpec):
            raise TypeError("optimizer must be an OptimizerSpec")
        if not self.delay.is_constant and self.optimizer.variant != "plain":
            raise ValueError("random delays pair with the plain update only")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if not self.blowup_factor > 1.0 > self.decay_factor > 0.0:
            raise ValueError("need blowup_factor > 1 > decay_factor > 0")
        if self.init not in ("top_eigvec", "random_unit"):
            raise ValueError("init must be 'top_eigvec' or 'random_unit'")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")

    def resolved_max_steps(self) -> int:
        if self.max_steps is not None:
            return self.max_steps
        return max(100 * (self.delay.max_delay + 1), MAX_STEPS_FLOOR)


@dataclass(frozen=True, eq=False)
class SimVerdict:
    """Outcome of one simulated run.

    ``amplification`` is the final distance from the minimum over the
    initial one (inf when the state left floating-point range).  A diverged
    verdict always carries ``escape_step``, the first step whose distance
    exceeded ``blowup_factor`` times the initial.  ``trace`` holds
    ``(step, norm)`` pairs when requested, ``states`` the full trajectory as
    a read-only ``(steps + 1, d)`` array.  ``clipped_delays`` counts sampled
    delays that exceeded the elapsed steps and were shortened (always 0 for
    expectation runs).
    """

    status: str
    escape_step: int | None
    amplification: float
    steps: int
    trace: tuple[tuple[int, float], ...] | None = None
    states: np.ndarray | None = None
    clipped_delays: int = 0

    def __post_init__(self):
        if self.status not in (CONVERGED, DIVERGED, UNDECIDED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == DIVERGED and self.escape_step is None:
            raise ValueError("a diverged verdict must carry its escape step")


def _initial_vector(problem: QuadraticProblem, config: SimConfig) -> np.ndarray:
    if config.init == "top_eigvec":
        return problem.top_eigvec()
    rng = np.random.default_rng(config.seed)
    v = rng.standard_normal(problem.d)
    return v / float(np.linalg.norm(v))


def _freeze_states(states: list | None) -> np.ndarray | None:
    if states is None:
        return None
    arr = np.asarray(states, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    arr.setflags(write=False)
    return arr


def simulate_expectation(problem: QuadraticProblem, config: SimConfig) -> SimVerdict:
    """Run the deterministic (expected) delayed dynamics.

    Iterates the exact linear recurrence of the configured variant with a
    ring buffer of the last ``tau_max + 2`` states, pre-history filled with
    the initial point.  Random delays use the probability-weighted stale
    state and are limited to the plain variant.  Verdict rules: diverged on
    the first step whose distance from the minimum exceeds ``blowup_factor``
    times the initial distance (non-finite states count), converged after
    ``tau_max + 2`` consecutive steps below ``decay_factor`` times it,
    otherwise undecided at ``max_steps``.
    """
    y0 = _initial_vector(problem, config)
    if problem.d == 1:
        return _expectation_scalar(float(problem.hessian[0, 0]), float(y0[0]), config)
    return _expectation_vector(problem.hessian, y0, config)


def _expectation_scalar(h: float, y0: float, config: SimConfig) -> SimVerdict:
    """1-D fast path: plain floats, no array overhead.

    Threshold searches hammer this loop with million-step probes, so the
    three variant loops are written out flat with the verdict stanza inlined.
    """
    opt = config.optimizer
    delay = config.delay
    eta, m = opt.eta, opt.m
    max_steps = config.resolved_max_steps()
    L = delay.max_delay + 2
    window = L
    buf = [y0] * L
    n0 = abs(y0)
    hi = config.blowup_factor * n0
    lo = config.decay_factor * n0
    every = config.record_every
    trace = [(0, n0)] if config.record_trace else None
    states = [y0] if config.record_states else None

    status = UNDECIDED
    escape = None
    run = 0
    y = y0
    mag = n0
    t = 0

    if delay.is_constant:
        tau = delay.tau
        if opt.variant == "plain":
            # Gradient written as eta * (h * stale) rather than with a fused
            # constant so the sampled-gradient path can reproduce it bit for
            # bit when its components coincide.
            for t in range(1, max_steps + 1):
                y = y - eta * (h * buf[(t - 1 - tau) % L])
                buf[t % L] = y
                mag = abs(y)
                if states is not None:
                    states.append(y)
                if trace is not None and t % every == 0:
                    trace.append((t, mag))
                if not mag <= hi:  # non-finite lands here too
                    status, escape = DIVERGED, t
                    break
                if mag < lo:
                    run += 1
                    if run >= window:
                        status = CONVERGED
                        break
                else:
                    run = 0
        elif opt.variant == "momentum":
            ce = eta * (1.0 - m)
            v = 0.0
            for t in range(1, max_steps + 1):
                v = m * v - ce * (h * buf[(t - 1 - tau) % L])
                y = y + v
                buf[t % L] = y
                mag = abs(y)
                if states is not None:
                    states.append(y)
                if trace is not None and t % every == 0:
                    trace.append((t, mag))
                if not mag <= hi:
                    status, escape = DIVERGED, t
                    break
                if mag < lo:
                    run += 1
                    if run >= window:
                        status = CONVERGED
                        break
                else:
                    run = 0
        else:  # shifted: the velocity itself is read with the delay
            ce = eta * (1.0 - m)
            vbuf = [0.0] * L
            for t in range(1, max_steps + 1):
                j = (t - 1 - tau) % L
                v = m * vbuf[j] - ce * (h * buf[j])
                vbuf[t % L] = v
                y = y + v
                buf[t % L] = y
                mag = abs(y)
                if states is not None:
                    states.append(y)
                if trace is not None and t % every == 0:
                    trace.append((t, mag))
                if not mag <= hi:
                    status, escape = DIVERGED, t
                    break
                if mag < lo:
                    run += 1
                    if run >= window:
                        status = CONVERGED
                        break
                else:
                    run = 0
    else:
        pairs = list(zip(delay.delays, delay.probs))
        for t in range(1, max_steps + 1):
            acc = 0.0
            for k, p in pairs:
                acc += p * buf[(t - 1 - k) % L]
            y = y - eta * (h * acc)
            buf[t % L] = y
            mag = abs(y)
            if states is not None:
                states.append(y)
            if trace is not None and t % every == 0:
                trace.append((t, mag))
            if not mag <= hi:
                status, escape = DIVERGED, t
                break
            if mag < lo:
                run += 1
                if run >= window:
                    status = CONVERGED
                    break
            else:
                run = 0

    if trace is not None and trace[-1][0] != t:
        trace.append((t, mag))
    amp = mag / n0 if math.isfinite(mag) else math.inf
    return SimVerdict(
        status=status,
        escape_step=escape,
        amplification=amp,
        steps=t,
        trace=tuple(trace) if trace is not None else None,
        states=_freeze_states(states),
    )


def _expectation_vector(H: np.ndarray, y0: np.ndarray, config: SimConfig) -> SimVerdict:
    opt = config.optimizer
    delay = config.delay
    eta, m = opt.eta, opt.m
    max_steps = config.resolved_max_steps()
    L = delay.max_delay + 2
    window = L
    buf = [y0] * L
    n0 = float(np.linalg.norm(y0))
    hi = config.blowup_factor * n0
    lo = config.decay_factor * n0
    every = config.record_every
    trace = [(0, n0)] if config.record_trace else None
    states = [y0] if config.record_states else None

    status = UNDECIDED
    escape = None
    run = 0
    y = y0
    mag = n0
    t = 0
    variant = opt.variant
    ce = eta * (1.0 - m)
    v = np.zeros_like(y0)
    vbuf = [np.zeros_like(y0)] * L if variant == "shifted" else None
    pairs = None if delay.is_constant else list(zip(delay.delays, delay.probs))
    tau = delay.tau if delay.is_constant else 0

    for t in range(1, max_steps + 1):
        if pairs is None:
            j = (t - 1 - tau) % L
            g = H @ buf[j]
            if variant == "plain":
                y = y - eta * g
            elif variant == "momentum":
                v = m * v - ce * g
                y = y + v
            else:
                v = m * vbuf[j] - ce * g
                vbuf[t % L] = v
                y = y + v
        else:
            acc = None
            for k, p in pairs:
                term = p * buf[(t - 1 - k) % L]
                acc = term if acc is None else acc + term
            y = y - eta * (H @ acc)
        buf[t % L] = y
        mag = float(np.sqrt(y @ y))
        if states is not None:
            states.append(y)
        if trace is not None and t % every == 0:
            trace.append((t, mag))
        if not mag <= hi:
            status, escape = DIVERGED, t
            break
        if mag < lo:
            run += 1
            if run >= window:
                status = CONVERGED
                break
        else:
            run = 0

    if trace is not None and trace[-1][0] != t:
        trace.append((t, mag))
    amp = mag / n0 if math.isfinite(mag) else math.inf
    return SimVerdict(
        status=status,
        escape_step=escape,
        amplification=amp,
        steps=t,
        trace=tuple(trace) if trace is not None else None,
        states=_freeze_states(states),
    )


def simulate_sgd(problem: QuadraticProblem, config: SimConfig, seed: int = 0) -> SimVerdict:
    """Run the sampled-gradient dynamics.

    Each step applies the gradient of one uniformly drawn component at the
    stale state.  The delay is the configured constant, or drawn per step
    from the pmf; a drawn delay longer than the elapsed steps is clipped to
    the initial point and counted in ``clipped_delays``.  ``seed`` drives
    the gradient and delay draws (``config.seed`` only the random init).
    With all components equal the trajectory reproduces
    ``simulate_expectation`` exactly, arithmetic included.
    """
    if problem.components is None:
        raise ValueError("simulate_sgd needs a problem with components")
    C = problem.components
    N = C.shape[0]
    opt = config.optimizer
    delay = config.delay
    eta, m = opt.eta, opt.m
    variant = opt.variant
    max_steps = config.resolved_max_steps()

    rng = np.random.default_rng(seed)
    picks = rng.integers(0, N, size=max_steps)
    if delay.is_constant:
        draws = None
        tau = delay.tau
    else:
        draws = rng.choice(np.array(delay.delays), size=max_steps, p=np.array(delay.probs))
        tau = 0

    y0 = _initial_vector(problem, config)
    scalar = problem.d == 1
    L = delay.max_delay + 2
    window = L
    buf = [y0] * L
    n0 = float(np.linalg.norm(y0))
    hi = config.blowup_factor * n0
    lo = config.decay_factor * n0
    every = config.record_every
    trace = [(0, n0)] if config.record_trace else None
    states = [y0] if config.record_states else None

    status = UNDECIDED
    escape = None
    run = 0
    y = y0
    mag = n0
    t = 0
    clip = 0
    ce = eta * (1.0 - m)
    v = np.zeros_like(y0)
    vbuf = [np.zeros_like(y0)] * L if variant == "shifted" else None

    for t in range(1, max_steps + 1):
        if draws is None:
            k = tau
        else:
            k = int(draws[t - 1])
            if k > t - 1:
                k = t - 1
                clip += 1
        j = (t - 1 - k) % L
        g = C[int(picks[t - 1])] @ buf[j]
        if variant == "plain":
            y = y - eta * g
        elif variant == "momentum":
            v = m * v - ce * g
            y = y + v
        else:
            v = m * vbuf[j] - ce * g
            vbuf[t % L] = v
            y = y + v
        buf[t % L] = y
        # same norm expression as the matching expectation path, so verdict
        # boundaries are crossed on identical steps in the zero-noise case
        mag = abs(float(y[0])) if scalar else float(np.sqrt(y @ y))
        if states is not None:
            states.append(y)
        if trace is not None and t % every == 0:
            trace.append((t, mag))
        if not mag <= hi:
            status, escape = DIVERGED, t
            break
        if mag < lo:
            run += 1
            if run >= window:
                status = CONVERGED
                break
        else:
            run = 0

    if trace is not None and trace[-1][0] != t:
        trace.append((t, mag))
    amp = mag / n0 if math.isfinite(mag) else math.inf
    return SimVerdict(
        status=status,
        escape_step=escape,
        amplification=amp,
        steps=t,
        trace=tuple(trace) if trace is not None else None,
        states=_freeze_states(states),
        clipped_delays=clip,
    )


def empirical_threshold(
    problem: QuadraticProblem,
    variant: str,
    delay: DelayModel | int,
    m: float = 0.0,
    rel_tol: float = 0.02,
    probe_steps: int = PROBE_STEPS,
    blowup_factor: float = 1e6,
    decay_factor: float = 1e-6,
) -> ThresholdResult:
    """Stability boundary measured from trajectories alone.

    Bisects eta on the verdict of ``simulate_expectation`` (converged =
    stable), never consulting the characteristic polynomial, which makes it
    a genuinely independent cross-check of the root-based thresholds.  An
    undecided probe gets its step budget doubled once; if it stays
    undecided the search raises ``UndecidedAtProbe`` rather than guess.
    """
    _check_rel_tol(rel_tol)
    if isinstance(delay, int):
        delay = DelayModel.constant(delay)
    a = problem.sharpness()

    def stable(eta: float) -> bool:
        steps = probe_steps
        for _ in range(2):
            cfg = SimConfig(
                optimizer=OptimizerSpec(variant, eta, m),
                delay=delay,
                max_steps=steps,
                blowup_factor=blowup_factor,
                decay_factor=decay_factor,
                init="top_eigvec",
            )
            verdict = simulate_expectation(problem, cfg)
            if verdict.status != UNDECIDED:
                return verdict.status == CONVERGED
            steps *= 2
        raise UndecidedAtProbe(
            f"probe at eta = {eta!r} still undecided after {steps // 2} steps",
            eta=eta,
            max_steps=steps // 2,
        )

    # A probe can only be classified if its slowest mode moves within the
    # budget; near eta = 0 the decay rate is about eta * a per step, so the
    # doubling phase starts where classification costs a tenth of the budget.
    start_eta_a = 10.0 * math.log(1.0 / decay_factor) / probe_steps
    eta_lo, eta_hi = _bisect_eta(stable, a, rel_tol, start_eta_a=start_eta_a)
    return ThresholdResult(
        eta_star=0.5 * (eta_lo + eta_hi),
        method=METHOD_SIMULATION,
        bracket=(eta_lo, eta_hi),
        tolerance=rel_tol,
        variant=variant,
        m=m,
        a=a,
        delay=delay,
        max_root_residual=math.nan,
    )


@dataclass(frozen=True)
class EscapeCurve:
    """Escape step per step size; ``None`` means the run never blew up."""

    rows: tuple[tuple[float, int | None], ...]

    def to_csv(self) -> str:
        lines = ["eta,escape_step"]
        for eta, step in self.rows:
            lines.append(f"{eta!r},{'' if step is None else step}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def escape_time_curve(
    problem: QuadraticProblem,
    variant: str,
    delay: DelayModel | int,
    etas,
    m: float = 0.0,
    max_steps: int | None = None,
    blowup_factor: float = 1e6,
    decay_factor: float = 1e-6,
) -> EscapeCurve:
    """How fast instability bites: escape step for each step size.

    ``etas`` must be strictly ascending.  Rows below the threshold report
    ``None`` (converged or undecided runs never cross the blowup line).
    """
    etas = [float(e) for e in etas]
    if any(b <= a for a, b in zip(etas, etas[1:])):
        raise ValueError("etas must be strictly ascending")
    rows = []
    for eta in etas:
        cfg = SimConfig(
            optimizer=OptimizerSpec(variant, eta, m),
            delay=delay,
            max_steps=max_steps,
            blowup_factor=blowup_factor,
            decay_factor=decay_factor,
            init="top_eigvec",
        )
        verdict = simulate_expectation(problem, cfg)
        rows.append((eta, verdict.escape_step if verdict.status == DIVERGED else None))
    return EscapeCurve(rows=tuple(rows))


def power_iteration(
    matvec,
    d: int,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    seed: int | None = None,
) -> tuple[float, int]:
    """Largest eigenvalue of a symmetric PSD operator given only ``matvec``.

    Rayleigh-quotient estimates from a seeded random unit start.  Stops
    early when the eigen-residual is at tolerance (catches exact
    eigenvectors immediately), otherwise when successive estimates agree to
    ``tol`` relative.  Degenerate leading eigenvalues converge slowly but
    still report the shared value.

    Raises
    ------
    NoConvergence
        After ``max_iter`` steps; carries the last estimate in ``best``.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v = v / float(np.linalg.norm(v))
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = np.asarray(matvec(v), dtype=float)
        if w.shape != (d,):
            raise ValueError("matvec must return a length-d vector")
        prev = lam
        lam = float(v @ w)
        if float(np.linalg.norm(w - lam * v)) <= tol * max(1.0, abs(lam)):
            return lam, it
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, it  # start vector sits in the kernel
        v = w / nw
        if it > 1 and abs(lam - prev) < tol * max(1.0, abs(lam)):
            return lam, it
    raise NoConvergence(
        f"power iteration did not settle within {max_iter} iterations",
        best=lam,
        iterations=max_iter,
    )
