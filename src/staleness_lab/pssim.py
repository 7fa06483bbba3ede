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

The event loop advances a block of steps at a time, and the simulators'
verdict tracker judges each block by the rule ``simulate_expectation``
states.  A block may step past the verdict; nothing past the verdict step
is reported, neither norms, states, applied delays nor clipped draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .charpoly import DelayModel, OptimizerSpec
from .dynamics import (
    PROBE_STEPS,
    QuadraticProblem,
    SimConfig,
    SimVerdict,
    _initial_vector,
    _simulated_threshold,
    _track,
)
from .stability import ThresholdResult


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
    ``SampledDelay`` raises.  Verdict rules are those of
    ``simulate_expectation``, with a window of ``max_delay + 2`` steps.
    Runs are evaluated in blocks of steps; nothing past the verdict step is
    reported, and all draws are made up front for ``steps`` steps.
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

    n_slots, slots, draws = _schedule(scheduler, steps)
    if mode == "expectation" and problem.d == 1:
        # plain floats: the threshold searches run here
        y0 = float(y0[0])
        n0, h, mats = abs(y0), float(problem.hessian[0, 0]), None
    else:
        n0, h = float(np.linalg.norm(y0)), None
        if mode == "sgd":
            C = problem.components
            picks = np.random.default_rng(seed).integers(0, C.shape[0], size=steps)
            mats = map(C.__getitem__, picks)
        else:
            mats = repeat(problem.hessian)
    verdict, norms = _track(
        _event_loop(optimizer, y0, n_slots, slots, h, mats), y0, n0, scheduler.max_delay + 2,
        steps, blowup_factor, decay_factor, every=1, keep_states=record_states, draws=draws,
    )
    t = verdict.steps
    applied = np.minimum(scheduler.max_delay if draws is None else draws[:t], np.arange(t))
    return PSRun(
        scheduler=scheduler,
        steps=t,
        applied_delays=tuple(applied.tolist()),
        norms=tuple(norms),
        verdict=verdict,
    )


def _sample_delays(scheduler: SampledDelay, steps: int) -> np.ndarray:
    rng = np.random.default_rng(scheduler.seed)
    pmf = scheduler.pmf
    return rng.choice(np.array(pmf.delays), size=steps, p=np.array(pmf.probs))


def _schedule(scheduler, steps):
    """Snapshot slots, the slots a block of steps reads and writes, and any draws.

    ``slots(t, n)`` gives, for steps ``t + 1 .. t + n``, the snapshot each
    step reads and the one it overwrites.  Round robin keeps one snapshot
    per worker: at step ``t`` worker ``(t - 1) % W`` applies the gradient
    taken at its snapshot, then re-snapshots.  Sampled delays keep a ring of
    the last ``max_delay + 2`` central states and read the one ``k`` steps
    back, clipped to the start.
    """
    if isinstance(scheduler, RoundRobin):
        W = scheduler.n_workers

        def slots(t, n):
            workers = (np.arange(t, t + n) % W).tolist()
            return workers, workers

        return W, slots, None
    draws = _sample_delays(scheduler, steps)
    L = scheduler.max_delay + 2

    def slots(t, n):
        elapsed = np.arange(t, t + n)
        back = np.minimum(draws[t:t + n], elapsed)
        return ((elapsed - back) % L).tolist(), ((elapsed + 1) % L).tolist()

    return L, slots, draws


def _event_loop(opt: OptimizerSpec, y0, n_slots: int, slots, h, mats):
    """Block step function of the server's event loop.

    Each step reads a snapshot, applies the gradient taken there and writes
    the new central state to a snapshot, as ``slots`` directs.  1-D
    expectation runs pass the curvature ``h`` and step on plain floats;
    otherwise ``mats`` yields each step's matrix.  Standard momentum keeps
    one central velocity, the shifted variant one per worker.
    """
    eta, m = opt.eta, opt.m
    variant = opt.variant
    ce = eta * (1.0 - m)
    zero = 0.0 if mats is None else np.zeros_like(y0)
    snaps = [y0] * n_slots
    svel = [zero] * n_slots
    v, y, t = zero, y0, 0

    def advance(n):
        nonlocal v, y, t
        new = []
        for r, w in zip(*slots(t, n)):
            g = h * snaps[r] if mats is None else next(mats) @ snaps[r]
            if variant == "plain":
                y = y - eta * g
            elif variant == "momentum":
                v = m * v - ce * g
                y = y + v
            else:
                vw = m * svel[r] - ce * g
                svel[r] = vw
                y = y + vw
            snaps[w] = y
            new.append(y)
        t += n
        return new

    return advance


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

    def run(eta, steps):
        return run_ps(
            problem,
            scheduler,
            OptimizerSpec(variant, eta, m),
            steps,
            mode="expectation",
            blowup_factor=blowup_factor,
            decay_factor=decay_factor,
        ).verdict.status

    if isinstance(scheduler, RoundRobin):
        delay = DelayModel.constant(scheduler.n_workers - 1)
    else:
        delay = scheduler.pmf
    return _simulated_threshold(run, problem.sharpness(), variant, m, delay,
                                rel_tol, probe_steps, decay_factor)


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
