"""Asynchronous parameter-server emulation, closing the protocol-to-theory loop.

A deterministic event loop stands in for real asynchrony: each worker holds
a snapshot of the central parameters, and on every global step one worker
applies the gradient taken at its snapshot, then re-snapshots.  Round-robin
scheduling over W workers realizes a constant delay of exactly W - 1;
sampled-delay scheduling realizes a configured delay distribution.  The
update arithmetic matches the recurrences in ``dynamics`` expression for
expression, so round-robin trajectories reproduce the constant-delay
simulator bit for bit, not merely to tolerance.

Velocity placement follows the structural split between the two momentum
flavors: the standard variant keeps one central buffer at the server, the
shifted variant gives every worker its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import DelayModel, OptimizerSpec
from .dynamics import (
    CONVERGED,
    DIVERGED,
    PROBE_STEPS,
    UNDECIDED,
    QuadraticProblem,
    SimVerdict,
    _initial_vector,
    _freeze_states,
    SimConfig,
)
from .errors import UndecidedAtProbe
from .stability import METHOD_SIMULATION, ThresholdResult, _bisect_eta, _check_rel_tol


@dataclass(frozen=True)
class RoundRobin:
    """Workers take turns in a fixed cycle; induces constant delay W - 1."""

    n_workers: int

    def __post_init__(self):
        if not isinstance(self.n_workers, int) or self.n_workers < 1:
            raise ValueError("n_workers must be a positive integer")

    @property
    def max_delay(self) -> int:
        return self.n_workers - 1


@dataclass(frozen=True)
class SampledDelay:
    """Each step applies a gradient from ``k`` steps back, ``k`` drawn from a pmf.

    Draws longer than the elapsed history are clipped to the initial point
    and counted.  ``seed`` drives the delay draws only.
    """

    pmf: DelayModel
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.pmf, DelayModel) or self.pmf.is_constant:
            raise ValueError(
                "SampledDelay takes a pmf delay model; use RoundRobin for constant delays"
            )

    @property
    def max_delay(self) -> int:
        return self.pmf.max_delay


@dataclass(frozen=True, eq=False)
class PSRun:
    """One emulated run: applied delays, per-step norms, and the verdict.

    ``norms[t]`` is the distance from the minimum after global step ``t``
    (index 0 is the start); ``applied_delays[t - 1]`` the staleness of the
    gradient used at step ``t``.  Early-stopping on a verdict means both can
    be shorter than the requested step count.
    """

    scheduler: RoundRobin | SampledDelay
    steps: int
    applied_delays: tuple[int, ...]
    norms: tuple[float, ...]
    verdict: SimVerdict

    @property
    def clipped_delays(self) -> int:
        return self.verdict.clipped_delays


def _ps_verdict(status, escape, mag, n0, t, states, clip) -> SimVerdict:
    amp = mag / n0 if math.isfinite(mag) else math.inf
    return SimVerdict(
        status=status,
        escape_step=escape,
        amplification=amp,
        steps=t,
        trace=None,
        states=_freeze_states(states),
        clipped_delays=clip,
    )


def run_ps(
    problem: QuadraticProblem,
    scheduler: RoundRobin | SampledDelay,
    optimizer: OptimizerSpec,
    steps: int,
    seed: int = 0,
    mode: str = "expectation",
    blowup_factor: float = 1e6,
    decay_factor: float = 1e-6,
    init: str = "top_eigvec",
    init_seed: int = 0,
    record_states: bool = False,
) -> PSRun:
    """Emulate the parameter server for ``steps`` global steps.

    ``mode`` picks the gradient: ``"expectation"`` uses the full hessian,
    ``"sgd"`` a uniformly drawn component per step (components required;
    ``seed`` drives the draws).  The shifted variant needs per-worker
    velocity buffers and therefore a worker scheduler: combining it with
    ``SampledDelay`` raises.  Verdict rules are those of the simulators:
    diverged past ``blowup_factor`` times the initial distance, converged
    after ``tau_max + 2`` consecutive steps below ``decay_factor`` times it,
    else undecided.
    """
    if mode not in ("expectation", "sgd"):
        raise ValueError("mode must be 'expectation' or 'sgd'")
    if not isinstance(optimizer, OptimizerSpec):
        raise TypeError("optimizer must be an OptimizerSpec")
    if isinstance(scheduler, SampledDelay) and optimizer.variant == "shifted":
        raise ValueError("shifted momentum needs per-worker velocities; SampledDelay has no workers")
    if isinstance(scheduler, RoundRobin) and steps < scheduler.n_workers:
        raise ValueError("need at least one step per worker")
    if steps < 1:
        raise ValueError("steps must be positive")
    if mode == "sgd" and problem.components is None:
        raise ValueError("sgd mode needs a problem with components")

    cfg_probe = SimConfig(  # reuse the validation; init vector only
        optimizer=optimizer,
        delay=0,
        max_steps=steps,
        blowup_factor=blowup_factor,
        decay_factor=decay_factor,
        init=init,
        seed=init_seed,
    )
    y0 = _initial_vector(problem, cfg_probe)

    if mode == "expectation" and problem.d == 1:
        return _run_ps_scalar(
            problem, scheduler, optimizer, steps, float(y0[0]),
            blowup_factor, decay_factor, record_states,
        )
    return _run_ps_vector(
        problem, scheduler, optimizer, steps, y0, seed, mode,
        blowup_factor, decay_factor, record_states,
    )


def _sample_delays(scheduler: SampledDelay, steps: int) -> np.ndarray:
    rng = np.random.default_rng(scheduler.seed)
    pmf = scheduler.pmf
    return rng.choice(np.array(pmf.delays), size=steps, p=np.array(pmf.probs))


def _run_ps_scalar(problem, scheduler, opt, steps, y0, blowup, decay, record_states):
    """1-D expectation-mode loop on plain floats (threshold searches live here)."""
    h = float(problem.hessian[0, 0])
    eta, m = opt.eta, opt.m
    variant = opt.variant
    ce = eta * (1.0 - m)
    n0 = abs(y0)
    hi = blowup * n0
    lo = decay * n0
    window = scheduler.max_delay + 2

    applied: list[int] = []
    norms = [n0]
    states = [y0] if record_states else None
    status = UNDECIDED
    escape = None
    run = 0
    clip = 0
    y = y0
    mag = n0
    t = 0

    if isinstance(scheduler, RoundRobin):
        W = scheduler.n_workers
        snaps = [y0] * W            # dispatch-time snapshot per worker
        v = 0.0                     # central velocity (standard momentum)
        svel = [0.0] * W            # per-worker velocities (shifted)
        for t in range(1, steps + 1):
            w = (t - 1) % W
            g = h * snaps[w]
            if variant == "plain":
                y = y - eta * g
            elif variant == "momentum":
                v = m * v - ce * g
                y = y + v
            else:
                vw = m * svel[w] - ce * g
                svel[w] = vw
                y = y + vw
            snaps[w] = y            # re-snapshot right after own update
            applied.append(min(W - 1, t - 1))
            mag = abs(y)
            norms.append(mag)
            if states is not None:
                states.append(y)
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
        draws = _sample_delays(scheduler, steps)
        L = scheduler.max_delay + 2
        buf = [y0] * L
        v = 0.0
        for t in range(1, steps + 1):
            k = int(draws[t - 1])
            if k > t - 1:
                k = t - 1
                clip += 1
            g = h * buf[(t - 1 - k) % L]
            if variant == "plain":
                y = y - eta * g
            else:  # momentum with the central buffer
                v = m * v - ce * g
                y = y + v
            buf[t % L] = y
            applied.append(k)
            mag = abs(y)
            norms.append(mag)
            if states is not None:
                states.append(y)
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

    verdict = _ps_verdict(status, escape, mag, n0, t, states, clip)
    return PSRun(
        scheduler=scheduler,
        steps=t,
        applied_delays=tuple(applied),
        norms=tuple(norms),
        verdict=verdict,
    )


def _run_ps_vector(problem, scheduler, opt, steps, y0, seed, mode, blowup, decay, record_states):
    H = problem.hessian
    eta, m = opt.eta, opt.m
    variant = opt.variant
    ce = eta * (1.0 - m)
    n0 = float(np.linalg.norm(y0))
    hi = blowup * n0
    lo = decay * n0
    window = scheduler.max_delay + 2
    scalar = problem.d == 1

    if mode == "sgd":
        C = problem.components
        picks = np.random.default_rng(seed).integers(0, C.shape[0], size=steps)
    else:
        C = picks = None

    applied: list[int] = []
    norms = [n0]
    states = [y0] if record_states else None
    status = UNDECIDED
    escape = None
    run = 0
    clip = 0
    y = y0
    mag = n0
    t = 0

    round_robin = isinstance(scheduler, RoundRobin)
    if round_robin:
        W = scheduler.n_workers
        snaps = [y0] * W
        svel = [np.zeros_like(y0)] * W
    else:
        draws = _sample_delays(scheduler, steps)
        L = scheduler.max_delay + 2
        buf = [y0] * L
    v = np.zeros_like(y0)

    for t in range(1, steps + 1):
        if round_robin:
            w = (t - 1) % W
            y_del = snaps[w]
            k = min(W - 1, t - 1)
        else:
            k = int(draws[t - 1])
            if k > t - 1:
                k = t - 1
                clip += 1
            y_del = buf[(t - 1 - k) % L]
        g = (C[int(picks[t - 1])] if C is not None else H) @ y_del
        if variant == "plain":
            y = y - eta * g
        elif variant == "momentum":
            v = m * v - ce * g
            y = y + v
        else:
            vw = m * svel[w] - ce * g
            svel[w] = vw
            y = y + vw
        if round_robin:
            snaps[w] = y
        else:
            buf[t % L] = y
        applied.append(k)
        mag = abs(float(y[0])) if scalar else float(np.sqrt(y @ y))
        norms.append(mag)
        if states is not None:
            states.append(y)
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

    verdict = _ps_verdict(status, escape, mag, n0, t, states, clip)
    return PSRun(
        scheduler=scheduler,
        steps=t,
        applied_delays=tuple(applied),
        norms=tuple(norms),
        verdict=verdict,
    )


def ps_empirical_threshold(
    problem: QuadraticProblem,
    scheduler: RoundRobin | SampledDelay,
    variant: str,
    m: float = 0.0,
    rel_tol: float = 0.02,
    probe_steps: int = PROBE_STEPS,
    blowup_factor: float = 1e6,
    decay_factor: float = 1e-6,
) -> ThresholdResult:
    """Stability boundary of the emulated server, by bisection on verdicts.

    Same probe protocol as the simulator-based search: an undecided probe
    doubles its step budget once, then raises ``UndecidedAtProbe``.
    Expectation-mode gradients keep the predicate deterministic.
    """
    _check_rel_tol(rel_tol)
    a = problem.sharpness()

    def stable(eta: float) -> bool:
        steps = probe_steps
        for _ in range(2):
            run = run_ps(
                problem,
                scheduler,
                OptimizerSpec(variant, eta, m),
                steps,
                mode="expectation",
                blowup_factor=blowup_factor,
                decay_factor=decay_factor,
            )
            if run.verdict.status != UNDECIDED:
                return run.verdict.status == CONVERGED
            steps *= 2
        raise UndecidedAtProbe(
            f"probe at eta = {eta!r} still undecided after {steps // 2} steps",
            eta=eta,
            max_steps=steps // 2,
        )

    start_eta_a = 10.0 * math.log(1.0 / decay_factor) / probe_steps
    eta_lo, eta_hi = _bisect_eta(stable, a, rel_tol, start_eta_a=start_eta_a)
    if isinstance(scheduler, RoundRobin):
        delay = DelayModel.constant(scheduler.n_workers - 1)
    else:
        delay = scheduler.pmf
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


def delay_histogram(run: PSRun) -> tuple[tuple[int, float], ...]:
    """Empirical pmf of the delays a run actually applied.

    Round-robin runs drop the first ``W - 1`` entries: that is the warm-up
    ramp 0, 1, ..., W-2 before the cycle reaches its steady delay, and it
    would otherwise smear the point mass the scheduler is meant to realize.
    """
    delays = run.applied_delays
    if isinstance(run.scheduler, RoundRobin):
        delays = delays[run.scheduler.n_workers - 1:]
    if not delays:
        raise ValueError("run too short for a histogram")
    counts: dict[int, int] = {}
    for k in delays:
        counts[k] = counts.get(k, 0) + 1
    total = len(delays)
    return tuple((k, counts[k] / total) for k in sorted(counts))
