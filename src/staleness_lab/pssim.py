"""Asynchronous parameter-server emulation, closing the protocol-to-theory loop.

Each worker holds a snapshot of the central parameters, and on every global
step one worker applies the gradient taken at its snapshot, then
re-snapshots.  Under round-robin scheduling over W workers a step reads the
snapshot taken W steps back: a constant delay of exactly W - 1, so
round-robin runs reproduce the constant-delay simulator bit for bit.
Sampled-delay scheduling realizes a delay distribution: each step reads the
state a drawn number of steps back.  Every run is a ``SimConfig`` with the
delay its scheduler realizes, started by ``dynamics._run`` as every
simulator run is.  The threshold search is the simulators' one
(``dynamics._simulated_threshold``) on that delay and its lags, so a
round-robin search is the constant-delay search at ``W - 1``.  This module
only schedules, validates and reports.

Velocity placement follows the structural split between the two momentum
flavors: the standard variant keeps one central buffer at the server, the
shifted variant gives every worker its own, read with the delay, so it
needs a worker scheduler (``charpoly._check_pairing``).

Runs advance a block of steps at a time, and the simulators' verdict
tracker judges each block by the rule ``simulate_expectation`` states.  A
block may step past the verdict; nothing past the verdict step is reported,
neither norms, states, applied delays nor clipped draws.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .charpoly import DelayModel, OptimizerSpec, _check_count, _check_delay, _check_seed
from .dynamics import (
    BLOWUP_FACTOR,
    DECAY_FACTOR,
    PROBE_STEPS,
    QuadraticProblem,
    SimConfig,
    SimVerdict,
    _run,
    _simulated_threshold,
)
from .stability import ThresholdResult


@dataclass(frozen=True)
class RoundRobin:
    """Workers take turns in a fixed cycle; induces constant delay W - 1."""

    n_workers: int

    def __post_init__(self):
        n_workers = _check_count("n_workers", self.n_workers)
        _check_delay(n_workers - 1, "n_workers - 1")
        object.__setattr__(self, "n_workers", n_workers)

    @property
    def max_delay(self) -> int:
        return self.n_workers - 1


@dataclass(frozen=True)
class SampledDelay:
    """Each step applies a gradient from ``k`` steps back, ``k`` drawn from a pmf.

    A draw longer than the elapsed history reads the start, and is counted.
    ``seed`` drives the delay draws only.
    """

    pmf: DelayModel
    seed: int | None = 0

    def __post_init__(self):
        if not isinstance(self.pmf, DelayModel) or self.pmf.is_constant:
            raise ValueError(
                "SampledDelay takes a pmf delay model; use RoundRobin for constant delays"
            )
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))


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


def run_ps(
    problem: QuadraticProblem,
    scheduler: RoundRobin | SampledDelay,
    optimizer: OptimizerSpec,
    steps: int,
    seed: int | None = 0,
    mode: str = "expectation",
    blowup_factor: float = BLOWUP_FACTOR,
    decay_factor: float = DECAY_FACTOR,
    init: str = "top_eigvec",
    init_seed: int | None = 0,
    record_states: bool = False,
) -> PSRun:
    """Emulate the parameter server for ``steps`` global steps.

    ``mode`` picks the gradient: ``"expectation"`` uses the full hessian,
    ``"sgd"`` a uniformly drawn component per step (components required;
    ``seed`` drives the draws).  The shifted variant needs per-worker
    velocity buffers and therefore a worker scheduler: its ``SimConfig``
    refuses a ``SampledDelay``.  Verdict rules are those of
    ``simulate_expectation``, with a window of ``max_delay + 2`` steps.
    Runs are evaluated in blocks of steps; nothing past the verdict step is
    reported.  Like a simulator run, the run is a ``SimConfig`` started by
    ``dynamics._run``: round robin at the constant delay ``W - 1``, sampled
    delays at their pmf with per-step lags.  A ``SampledDelay``'s delays
    (from its own seed) and sgd-mode component picks (from ``seed``) are
    drawn one block at a time, each from its own generator that continues
    across the blocks: the same draws as one draw for all ``steps``, so a
    run that ends early draws only what it stepped.
    """
    steps = _check_count("steps", steps)
    seed = _check_seed("seed", seed)
    if mode not in ("expectation", "sgd"):
        raise ValueError("mode must be 'expectation' or 'sgd'")
    delay, lag_seed = _realized(scheduler, steps)
    config = SimConfig(optimizer, delay, steps, blowup_factor, decay_factor, init=init,
                       seed=_check_seed("init_seed", init_seed), record_states=record_states)
    if mode == "sgd" and problem.components is None:
        raise ValueError("sgd mode needs a problem with components")
    pick_seed = np.random.SeedSequence(seed) if mode == "sgd" else None
    (verdict,), norms, draws = _run(problem, [config], pick_seed, lag_seed, every=1)
    t = verdict.steps
    applied = np.minimum(scheduler.max_delay if draws is None else draws, np.arange(t))
    return PSRun(
        scheduler=scheduler,
        steps=t,
        applied_delays=tuple(applied.tolist()),
        norms=tuple(norms),
        verdict=verdict,
    )


def _realized(scheduler: RoundRobin | SampledDelay, steps: int):
    """The delay a scheduler realizes over ``steps`` steps, and the seed of its lags.

    Round robin over W workers is the constant delay ``W - 1`` with no lags,
    and needs at least one step per worker.  Sampled delays are their pmf,
    with lags drawn from ``SeedSequence(seed)``, so that a seed of None
    draws lags too.
    """
    if isinstance(scheduler, SampledDelay):
        return scheduler.pmf, np.random.SeedSequence(scheduler.seed)
    if steps < scheduler.n_workers:
        raise ValueError("need at least one step per worker")
    return DelayModel.constant(scheduler.max_delay), None


def ps_empirical_threshold(
    problem: QuadraticProblem,
    scheduler: RoundRobin | SampledDelay,
    variant: str,
    m: float = 0.0,
    rel_tol: float = 0.02,
    probe_steps: int = PROBE_STEPS,
    blowup_factor: float = BLOWUP_FACTOR,
    decay_factor: float = DECAY_FACTOR,
) -> ThresholdResult:
    """Stability boundary of the emulated server, by bisection on verdicts.

    The simulators' search (``dynamics._simulated_threshold``) run on the
    delay and lags the scheduler realizes: round robin over W workers is
    the constant-delay search at ``W - 1``, sampled delays probe with the
    scheduler's drawn lags.  An undecided probe doubles its step budget
    once, then raises ``UndecidedAtProbe``; a curvature whose step sizes
    overflow raises ValueError.  Expectation-mode gradients keep the
    predicate deterministic, and a probe records nothing but its verdict.
    """
    delay, lag_seed = _realized(scheduler, _check_count("probe_steps", probe_steps))
    return _simulated_threshold(problem, variant, delay, m, rel_tol, probe_steps, blowup_factor,
                                decay_factor, lag_seed)


def delay_histogram(run: PSRun) -> tuple[tuple[int, float], ...]:
    """Empirical pmf of the delays a run actually applied.

    Round-robin runs drop the first ``W - 1`` entries: that is the warm-up
    ramp 0, 1, ..., W-2 before the cycle reaches its steady delay, and it
    would otherwise smear the point mass the scheduler is meant to realize.
    A run that ends inside the warm-up has no steady-state delays, and its
    histogram is empty.
    """
    delays = run.applied_delays
    if isinstance(run.scheduler, RoundRobin):
        delays = delays[run.scheduler.n_workers - 1:]
    counts = Counter(delays)
    total = len(delays)
    return tuple((k, counts[k] / total) for k in sorted(counts))
