"""Time-domain simulation of stale-gradient dynamics on quadratic problems.

This is the trajectory view of the same systems the characteristic
polynomials describe: a run blows up exactly when the matching polynomial
has a root outside the unit circle, so the simulators double as an
independent check on the algebra.  Provided here: the deterministic
expectation dynamics, their sampled-gradient counterpart, threshold search
driven purely by simulation verdicts, escape-time tables, and a
power-iteration sharpness estimate.  A ``SimConfig`` describes every run,
simulator or parameter-server (``pssim``); ``_run`` starts each one and
builds its verdict and trace, every probe of the one trajectory search
(``_simulated_threshold``) included, and steps a group of 1-D runs
(``_simulate_many``) as the columns of one array.

All randomness flows through seeded generators; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .charpoly import (DelayModel, OptimizerSpec, _check_count, _check_pairing, _check_positive,
                       _check_rel_tol, _check_seed, _check_variant, as_delay)
from .errors import NoConvergence, UndecidedAtProbe
from .stability import METHOD_SIMULATION, ThresholdResult, _bisect_eta

CONVERGED = "converged"
DIVERGED = "diverged"
UNDECIDED = "undecided"

MAX_STEPS_FLOOR = 100_000
# Step budget for threshold probes.  Bisection midpoints can land close
# enough to the boundary that the dominant mode needs several hundred
# thousand steps to gain (or shed) a factor of 1e6; this budget covers the
# worst probe the schedule (first probe, doubling, then halving;
# ``stability._bisect_eta``) can produce at tau <= 64 with room to spare,
# and the search doubles it once more before giving up.
PROBE_STEPS = 1_000_000
# Simulations step in blocks that double up to this many steps.  The steps
# a block runs past its verdict are thrown away, so the cap bounds that waste.
BLOCK_CAP = 4096
# Runs on one 1-D problem step together as the columns of one array
# (``_simulate_many``) only at constant delays of at least this.  A group
# pays for every numpy pass of tau + 1 steps, a few microseconds, until its
# longest run ends; the float loop pays 43 (plain) or 79 (shifted) ns a
# step.  Best of 3 on a 2-core Intel Xeon, the verify grid's groups of 11
# plain runs went 1.4 -> 2.0, 2.0 -> 2.1, 3.1 -> 2.3 and 5.2 -> 2.9 ms at
# tau 8, 16, 32 and 64, and its groups of 33 shifted runs 22 -> 26,
# 40 -> 29, 70 -> 35 and 133 -> 47 ms.  Escape curves make groups too: 20
# rows from 0.5 to 1.5 eta* gain (tau 32: plain 9.0-9.7 -> 5.4-5.5, shifted m 0.5
# 31-32 -> 15-17 ms), but 2 to 4 rows that all converge lose up to 3 ms.
LOCKSTEP_MIN_TAU = 16
# Default verdict lines, as multiples of the initial distance from the minimum.
BLOWUP_FACTOR = 1e6
DECAY_FACTOR = 1e-6

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
COMPONENT_MEAN_TOL = 1e-10


class QuadraticProblem:
    """Quadratic objective ``0.5 x' H x`` with its minimum at the origin,
    possibly a mean of per-sample quadratics.

    Parameters
    ----------
    hessian : (d, d) array_like
        Symmetric positive semidefinite curvature matrix with at least one
        strictly positive eigenvalue.
    components : sequence of (d, d) array_like, optional
        Per-sample curvatures whose mean is ``hessian``; required by
        ``simulate_sgd``, ignored by the expectation dynamics.
    """

    def __init__(self, hessian, components=None):
        H = np.array(hessian, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.size == 0:
            raise ValueError("hessian must be a non-empty square matrix")
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
            if C.ndim != 3 or C.shape[1:] != H.shape or len(C) == 0:
                raise ValueError("components must be a non-empty stack of matrices shaped like "
                                 "the hessian")
            if not np.isfinite(C).all():
                raise ValueError("component entries must be finite")
            if float(np.abs(C - np.transpose(C, (0, 2, 1))).max()) > SYMMETRY_TOL * scale:
                raise ValueError("every component must be symmetric")
            if float(np.abs(C.mean(axis=0) - H).max()) > COMPONENT_MEAN_TOL:
                raise ValueError("components must average to the hessian")
            C.setflags(write=False)
        else:
            C = None

        # Fix the top eigenvector's sign so initialization is reproducible.
        top = eigvecs[:, -1].copy()
        if top[int(np.argmax(np.abs(top)))] < 0:
            top = -top
        top.setflags(write=False)
        eigvals.setflags(write=False)
        H.setflags(write=False)

        self._hessian = H
        self._components = C
        self._eigvals = eigvals
        self._top = top

    @classmethod
    def diagonal(cls, spectrum) -> "QuadraticProblem":
        """Problem with the given eigenvalues on the diagonal."""
        return cls(np.diag(np.asarray(spectrum, dtype=float)))

    @property
    def d(self) -> int:
        return self._hessian.shape[0]

    @property
    def hessian(self) -> np.ndarray:
        return self._hessian

    @property
    def components(self) -> np.ndarray | None:
        return self._components

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
    """Knobs for one run, of a simulator or of the parameter server.

    ``max_steps=None`` becomes ``max(100 * (max_delay + 1), MAX_STEPS_FLOOR)``
    when the config is made, so ``dataclasses.replace`` with a new delay
    keeps the old budget unless it passes ``max_steps=None``.
    ``init`` picks the starting offset: the top eigenvector of the hessian
    (excites the mode that loses stability first) or a seeded random unit
    vector.  Trace and state recording are off by default; ``record_every``
    thins the trace only, states are kept at every step.  A server run's
    delay is its scheduler's.  Every run takes any delay but shifted
    momentum, which takes a constant one (``charpoly._check_pairing``).
    """

    optimizer: OptimizerSpec
    delay: DelayModel | int
    max_steps: int | None = None
    blowup_factor: float = BLOWUP_FACTOR
    decay_factor: float = DECAY_FACTOR
    init: str = "top_eigvec"
    seed: int | None = 0
    record_every: int = 1
    record_trace: bool = False
    record_states: bool = False

    def __post_init__(self):
        object.__setattr__(self, "delay", as_delay(self.delay))
        if not isinstance(self.optimizer, OptimizerSpec):
            raise TypeError("optimizer must be an OptimizerSpec")
        _check_pairing(self.optimizer.variant, self.delay)
        object.__setattr__(self, "max_steps", max(100 * (self.delay.max_delay + 1), MAX_STEPS_FLOOR)
                           if self.max_steps is None else _check_count("max_steps", self.max_steps))
        if not self.blowup_factor > 1.0 > self.decay_factor > 0.0:
            raise ValueError("need blowup_factor > 1 > decay_factor > 0")
        if self.init not in ("top_eigvec", "random_unit"):
            raise ValueError("init must be 'top_eigvec' or 'random_unit'")
        object.__setattr__(self, "record_every", _check_count("record_every", self.record_every))
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))


@dataclass(frozen=True, eq=False)
class SimVerdict:
    """Outcome of one simulated run.

    ``amplification`` is the final distance from the minimum over the
    initial one (inf when the state left floating-point range).  A diverged
    verdict always carries ``escape_step``, the first step whose distance
    exceeded ``blowup_factor`` times the initial.  ``trace`` holds
    ``(step, norm)`` pairs when requested, ``states`` the full trajectory as
    a read-only ``(steps + 1, d)`` array.  ``clipped_delays`` counts sampled
    delays that reached back past the start, which the run reads there
    (always 0 for expectation runs).
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


def _float_block(values: list) -> np.ndarray:
    """A list of Python floats as a read-only float64 column, bit for bit.

    ``struct`` copies each native double as it stands, about three times as
    fast as ``np.fromiter`` on a list of floats.
    """
    return np.ndarray((len(values), 1), float, struct.pack(f"{len(values)}d", *values))


def _norms(block, rows: bool) -> np.ndarray:
    """Distances from the minimum of a block of states, one column a run.

    A 1-D run's distances are ``|y|``, so sampled and expectation runs cross
    the verdict lines on the same steps.  A wider run's states are the
    block's ``rows``, their distances from ``Y[:, None, :] @ Y[:, :, None]``,
    the same dot-product call as ``y @ y`` on one state.
    """
    if not rows:
        return np.abs(block)
    return np.sqrt((block[:, None, :] @ block[:, :, None]).reshape(-1, 1))


def _verdict_ends(mags, lo, hi, window, carry):
    """The verdict rule on one block of distances, for one run per column.

    ``mags`` holds the block's distances, one row a step and one column a
    run, and ``carry`` each run's steps below ``lo`` at the end of the last
    block.  A run ends on its first step whose distance is not at most
    ``hi`` (a non-finite one diverges) or on the step that completes
    ``window`` steps in a row below ``lo``.  Returns each run's end as an
    index into the block (-1 where the run goes on) and its steps below
    ``lo`` at the block's end.
    """
    i = np.arange(len(mags)).reshape(-1, 1)
    # the last step not below lo, each run's carry putting it before the block
    last = np.maximum.accumulate(np.where(mags < lo, -1 - carry, i), axis=0)
    ends = ~(mags <= hi) | (last <= i - window)
    return np.where(ends.any(axis=0), ends.argmax(axis=0), -1), i[-1] - last[-1]


def _verdict(ended: bool, mag: float, n0: float, lo: float, steps: int, **fields) -> SimVerdict:
    """The verdict of a run that stopped after ``steps`` steps at distance ``mag``.

    A run the rule ended converged if it stopped below ``lo`` and diverged
    at its last step otherwise; a run that did not end is undecided.
    """
    status, escape = UNDECIDED, None
    if ended:
        status, escape = (CONVERGED, None) if mag < lo else (DIVERGED, steps)
    amplification = mag / n0 if math.isfinite(mag) else math.inf
    return SimVerdict(status, escape, amplification, steps, **fields)


def _track(advance, y0, n0, width, window, max_steps, blowup_factor, decay_factor,
           every=0, keep_states=False):
    """Run ``width`` simulations from ``y0`` (at distance ``n0``) to their verdicts.

    ``advance(n, cols)`` keeps only the columns ``cols`` names (indices into
    its last block's; ``None`` keeps all), steps them ``n`` more and returns
    the block of states, one column a 1-D run, or one row a step of one
    wider run.  Blocks start at ``window`` steps and double up to
    ``BLOCK_CAP``, at most ``8 * BLOCK_CAP`` states in all: full blocks of
    the verify grid's 33 columns cost the battery about 2 MB of peak RSS.
    The verdict rule (``_verdict_ends``) is ``simulate_expectation``'s.  A
    block whose distances all lie in ``[lo, hi]`` (one ``min`` and one
    ``max``; a NaN fails both) can reach no verdict and ends with no step
    below ``lo``, so it skips the scan; the runs whose verdicts fall in a
    block leave the array at its end.  A lone run also records its
    distances at steps 0, ``every``, ``2 * every``, ... and its last, and
    with ``keep_states`` every state, cut at its verdict.  Returns the
    verdicts in column order and those distances (``None`` at ``every`` 0).
    """
    hi = blowup_factor * n0
    lo = decay_factor * n0
    rows = isinstance(y0, np.ndarray) and y0.size > 1
    states = [np.reshape(y0, (1, -1))] if keep_states else None
    norms = [n0] if every else None
    stops = [None] * width  # each run's (ended, last distance, steps), once it stops
    live = list(range(width))  # the run of each column in the array
    carry = 0  # each column's steps below lo at the end of the last block
    cols = None
    cap = max(1, 8 * BLOCK_CAP // width)
    t = 0
    size = min(window, BLOCK_CAP)
    # past a divergence a block steps on until its states overflow
    with np.errstate(over="ignore", invalid="ignore"):
        while live and t < max_steps:
            n = min(size, max_steps - t, cap)
            block = advance(n, cols)
            mags = _norms(block, rows)
            cols = None
            if lo <= mags.min() and mags.max() <= hi:
                carry = 0  # a quiet block: no verdict, and no step below lo
            else:
                ends, carry = _verdict_ends(mags, lo, hi, window, carry)
                going = []
                for c, e in enumerate(ends.tolist()):
                    if e < 0:
                        going.append(c)
                    else:
                        stops[live[c]] = (True, float(mags[e, c]), t + e + 1)
                if len(going) < len(live):
                    live = [live[c] for c in going]
                    if live:
                        cols, carry = going, carry[going]
                        cap = max(1, 8 * BLOCK_CAP // len(live))
            if states is not None:
                states.append(block)
            if norms is not None:
                norms.extend(mags[(-1 - t) % every::every, 0].tolist())
            t += n
            size = min(2 * size, BLOCK_CAP)
    if live:
        for run, mag in zip(live, (mags[-1] if cols is None else mags[-1, cols]).tolist()):
            stops[run] = (False, mag, t)
    if norms is None and states is None:
        return [_verdict(ended, mag, n0, lo, steps) for ended, mag, steps in stops], None
    [(ended, mag, steps)] = stops  # a lone run's records, cut at its verdict
    if norms is not None:
        del norms[steps // every + 1:]
        if steps % every:
            norms.append(mag)
    if states is not None:
        states = np.concatenate(states)[:steps + 1]
        states.setflags(write=False)
    return [_verdict(ended, mag, n0, lo, steps, states=states)], norms


def _start(problem: QuadraticProblem, config: SimConfig) -> np.ndarray:
    """The state a run starts from: the top eigenvector, or a seeded random unit vector."""
    if config.init == "random_unit":
        y0 = np.random.default_rng(config.seed).standard_normal(problem.d)
        return y0 / float(np.linalg.norm(y0))
    return problem.top_eigvec()


def _run(problem: QuadraticProblem, configs, pick_seed=None, lag_seed=None, every=0):
    """Start the runs ``configs`` describe and track them to their verdicts.

    Every run, simulator or server, starts here, at its config's ``init``
    (``_start``).  Several configs are 1-D runs that share all but ``eta``
    and ``m`` (``_simulate_many``), stepped as the columns of one array; a
    lone run is a group of one.  With ``lag_seed`` each step reads the state
    a drawn lag back (``_schedule``), without it a pmf delay reads the
    probability-weighted state; ``pick_seed`` is as ``_engine`` takes it.
    Returns the verdicts in config order, a lone run's with its trace if it
    records one, that run's distances every ``every`` steps (its
    ``record_every`` if it records a trace; ``None`` at 0) and the sampled
    delays of the steps it took (``None`` without ``lag_seed``).
    """
    first = configs[0]
    if first.record_trace:
        every = first.record_every
    lags = draws = None
    if lag_seed is not None:
        lags, draws = _schedule(first.delay, lag_seed)
    advance, y0, n0 = _engine(problem, configs, pick_seed, lags)
    verdicts, norms = _track(
        advance, y0, n0, len(configs), first.delay.max_delay + 2, first.max_steps,
        first.blowup_factor, first.decay_factor, every, first.record_states,
    )
    if draws is not None:
        draws = np.concatenate(draws)[:verdicts[0].steps]
        clipped = int(np.count_nonzero(draws > np.arange(len(draws))))
        verdicts = [replace(verdicts[0], clipped_delays=clipped)]
    if first.record_trace:
        trace = tuple(zip(_trace_steps(verdicts[0].steps, every), norms))
        verdicts = [replace(verdicts[0], trace=trace)]
    return verdicts, norms, draws


def _trace_steps(steps: int, every: int) -> list[int]:
    """The steps a trace records: 0, ``every``, ``2 * every``, ... and ``steps``."""
    grid = list(range(0, steps + 1, every))
    if grid[-1] != steps:
        grid.append(steps)
    return grid


def simulate_expectation(problem: QuadraticProblem, config: SimConfig) -> SimVerdict:
    """Run the deterministic (expected) delayed dynamics.

    Iterates the exact linear recurrence of the configured variant, with the
    pre-history filled with the initial point.  Random delays use the
    probability-weighted stale state, for plain and momentum.
    Verdict rules: diverged on the first step whose distance from the
    minimum is not at most ``blowup_factor`` times the initial distance
    (non-finite states count), converged on the step that completes
    ``tau_max + 2`` consecutive steps below ``decay_factor`` times it,
    otherwise undecided at ``max_steps``.  Runs are evaluated in blocks of
    steps; nothing past the verdict step is reported.  The run starts
    through ``_run``.
    """
    return _run(problem, [config])[0][0]


def _simulate_many(problem: QuadraticProblem, configs) -> list[SimVerdict]:
    """``[simulate_expectation(problem, c) for c in configs]``, bit for bit.

    On a 1-D problem, the configs of a plain or shifted update at a constant
    delay of at least ``LOCKSTEP_MIN_TAU`` that record nothing fall into
    groups that share the update, the delay, the step budget, the verdict
    lines and the start; ``_run`` starts a group of two or more as one, its
    runs stepped as the columns of one array.  Every other config runs
    through ``simulate_expectation``.
    """
    groups: dict[tuple, list[int]] = {}
    if problem.d == 1:
        for i, c in enumerate(configs):
            if (c.optimizer.variant in ("plain", "shifted") and c.delay.is_constant
                    and c.delay.tau >= LOCKSTEP_MIN_TAU and not (c.record_trace or c.record_states)):
                key = (c.optimizer.variant, c.delay.tau, c.max_steps, c.blowup_factor,
                       c.decay_factor, float(_start(problem, c)[0]))
                groups.setdefault(key, []).append(i)
    grouped = {}
    for members in groups.values():
        if len(members) > 1:
            grouped.update(zip(members, _run(problem, [configs[i] for i in members])[0]))
    return [grouped.get(i) or simulate_expectation(problem, c) for i, c in enumerate(configs)]


def _engine(problem: QuadraticProblem, configs, pick_seed=None, lags=None):
    """The step function of the runs ``configs`` describe, their start and its distance.

    With ``pick_seed`` each step's gradient is that of a uniformly drawn
    component, the picks drawn block by block from
    ``np.random.default_rng(pick_seed)``; otherwise it is the hessian's.
    ``lags`` is as ``_block_steps`` takes it.  A lone 1-D run on the
    hessian steps on plain floats (``_scalar_steps``); several 1-D runs
    step on ``_block_steps`` as columns, each with its own ``eta`` and
    ``m`` and the curvature taken elementwise, so each state is the rounded
    result of the float loop's update; every other run steps on
    ``_block_steps``, bit-identical to stepping with ``M @ s``.
    """
    first = configs[0]
    opt, delay = first.optimizer, first.delay
    y0 = _start(problem, first)
    if pick_seed is None and problem.d == 1:
        y, h = float(y0[0]), float(problem.hessian[0, 0])
        if len(configs) == 1:
            return _scalar_steps(h, y, opt, delay, lags), y, abs(y)
        eta = np.array([c.optimizer.eta for c in configs])
        m = np.array([c.optimizer.m for c in configs])
        return _block_steps(np.full(len(configs), y), opt.variant, eta, m, delay, h), y, abs(y)
    M, picks = problem.hessian, None
    if pick_seed is not None:
        M, rng = problem.components, np.random.default_rng(pick_seed)

        def picks(n):
            return rng.integers(0, M.shape[0], size=n)

    return (_block_steps(y0, opt.variant, opt.eta, opt.m, delay, M, picks, lags), y0,
            float(np.linalg.norm(y0)))


def _schedule(pmf: DelayModel, seed):
    """The lags of a sampled-delay run, drawn block by block, and the draws.

    ``lags(n)`` draws the delays of the next ``n`` steps from
    ``np.random.default_rng(seed)``, appends them to ``draws`` and returns
    them.  A step reads the state ``k`` steps back; before the start, the
    engines' pre-history holds the start.  One generator continues across
    the blocks, so the draws are those of a single draw for the whole run,
    and a run that ends early draws only the blocks it stepped.
    """
    rng = np.random.default_rng(seed)
    support, probs = np.array(pmf.delays), np.array(pmf.probs)
    draws = []

    def lags(n):
        draws.append(rng.choice(support, size=n, p=probs))
        return draws[-1]

    return lags, draws


def _scalar_steps(h: float, y0: float, opt: OptimizerSpec, delay: DelayModel, lags=None):
    """Block step function of the 1-D dynamics, on plain floats.

    ``hist`` holds the last ``max_delay + 1`` states, oldest first, so a
    constant-delay block reads its stale states in order from the front
    while it appends the new ones.  With ``lags`` each step reads the state
    its lag names, as in ``_block_steps``; a pmf without them reads the
    probability-weighted state (plain or momentum: shifted takes a constant
    delay only).  Threshold searches hammer these loops with million-step
    probes, so each update has its own flat loop.  A block's states go to
    the tracker as one float64 column.
    """
    eta, m = opt.eta, opt.m
    ce = eta * (1.0 - m)
    variant = opt.variant
    keep = delay.max_delay + 1
    hist = [y0] * keep
    vel = [0.0] * keep  # shifted: the velocity is read with the delay too
    pairs = None if delay.is_constant or lags is not None else [
        (-1 - k, p) for k, p in zip(delay.delays, delay.probs)]
    v = 0.0

    def advance(n, cols=None):  # a lone run: there are no columns to drop
        nonlocal v
        y = hist[-1]
        if lags is not None:
            reads = (np.arange(keep - 1, keep - 1 + n) - lags(n)).tolist()
            if variant == "plain":
                for r in reads:
                    y = y - eta * (h * hist[r])
                    hist.append(y)
            else:
                for r in reads:
                    v = m * v - ce * (h * hist[r])
                    y = y + v
                    hist.append(y)
        elif pairs is not None and variant == "plain":
            for _ in range(n):
                acc = 0.0
                for i, p in pairs:
                    acc += p * hist[i]
                y = y - eta * (h * acc)
                hist.append(y)
        elif pairs is not None:
            for _ in range(n):
                acc = 0.0
                for i, p in pairs:
                    acc += p * hist[i]
                v = m * v - ce * (h * acc)
                y = y + v
                hist.append(y)
        elif variant == "plain":
            # Gradient written as eta * (h * stale) rather than with a fused
            # constant so the sampled-gradient path can reproduce it bit for
            # bit when its components coincide.
            for s in islice(hist, n):
                y = y - eta * (h * s)
                hist.append(y)
        elif variant == "momentum":
            for s in islice(hist, n):
                v = m * v - ce * (h * s)
                y = y + v
                hist.append(y)
        else:
            for s, u in zip(islice(hist, n), islice(vel, n)):
                v = m * u - ce * (h * s)
                vel.append(v)
                y = y + v
                hist.append(y)
        new = _float_block(hist[keep:])
        del hist[:-keep], vel[:-keep]
        return new

    return advance


def _block_steps(y0: np.ndarray, variant: str, eta, m, delay: DelayModel, M, picks=None,
                 lags=None):
    """Block step function on arrays, for the expectation, sampled and server dynamics.

    A step's gradient is ``M @ s``, with ``M`` the hessian or the component
    of a stack that ``picks`` names, at the stale state ``s``: the one
    ``delay.tau`` steps back, the probability-weighted state over the pmf,
    or the one ``lags`` steps back.  ``picks(n)`` and ``lags(n)`` give the
    indices and lags of the next ``n`` steps, called once per block in step
    order, so a run draws only the blocks it steps.  A lag that reaches
    back past the start reads the pre-history, which holds the start.
    Steps go in spans of ``min_delay + 1``, so every state a span reads
    exists before it starts, and a span's gradients are one stacked matvec,
    ``np.matmul(M, S[:, :, None])``.  Plain and shifted then take their
    states from one ``np.subtract.accumulate`` or ``np.add.accumulate``;
    momentum keeps its per-step velocity recurrence.  Every span is
    stacked, one step long at ``min_delay`` 0.  Each element is the rounded
    result of the per-step update, so the run is bit-identical to stepping
    with ``M @ s``.

    Several 1-D runs of one update and delay step as the columns of the
    state when ``M`` is their shared curvature ``h``, a float taken
    elementwise (``h * s``, the float loop's gradient), and ``eta`` and
    ``m`` hold one value a column; that takes no ``picks``.
    ``advance(n, cols)`` first keeps only the columns ``cols`` names.
    """
    ce = eta * (1.0 - m)
    keep = delay.max_delay + 1
    elementwise = np.ndim(M) == 0
    tau = delay.delays[0]  # the constant delay, or the shortest of a pmf's
    span = tau + 1
    pairs = None if delay.is_constant or lags is not None else list(zip(delay.delays, delay.probs))
    hist = np.tile(y0, (keep, 1))  # the last keep states, oldest first
    vel = np.zeros_like(hist)  # shifted: the velocity is read with the delay too
    v = vel[-1]

    def advance(n, cols=None):
        nonlocal hist, vel, v, eta, m, ce
        if cols is not None:
            hist, vel, v, eta, m, ce = (x[..., cols] for x in (hist, vel, v, eta, m, ce))
        P = None if picks is None else picks(n)
        back = tau if lags is None else lags(n)
        # row keep + j holds the state after step t + j + 1, which reads
        # row keep - 1 + j - lag
        Y = np.concatenate((hist, np.empty((n, hist.shape[1]))))
        V = np.concatenate((vel, np.empty_like(Y[keep:]))) if variant == "shifted" else None
        for s in range(0, n, span):
            e = min(s + span, n)
            if pairs is not None:
                S = None
                for k, p in pairs:
                    term = p * Y[keep - 1 - k + s:keep - 1 - k + e]
                    S = term if S is None else S + term
            else:
                rows = (slice(keep - 1 - back + s, keep - 1 - back + e) if lags is None
                        else np.arange(keep - 1 + s, keep - 1 + e) - back[s:e])
                S = Y[rows]
            if elementwise:
                G = M * S
            else:
                G = np.matmul(M if P is None else M[P[s:e]], S[:, :, None])[:, :, 0]
            new = Y[keep - 1 + s:keep + e]  # the state before the span, then its states
            if variant == "plain":
                np.multiply(eta, G, out=new[1:])
                np.subtract.accumulate(new, axis=0, out=new)
                continue
            if variant == "momentum":
                for j, cg in enumerate(ce * G, 1):
                    v = m * v - cg
                    new[j] = v
            else:
                u = V[keep + s:keep + e]  # m * (velocity read) - ce * G, in place
                np.subtract(np.multiply(m, V[rows], out=u), np.multiply(ce, G, out=G), out=u)
                new[1:] = u
            np.add.accumulate(new, axis=0, out=new)
        if V is not None:
            vel = V[n:]
        hist = Y[n:]
        return Y[keep:]

    return advance


def simulate_sgd(problem: QuadraticProblem, config: SimConfig, seed: int | None = 0) -> SimVerdict:
    """Run the sampled-gradient dynamics.

    Each step applies the gradient of one uniformly drawn component at the
    stale state.  The delay is the configured constant, or drawn per step
    from the pmf; a drawn delay longer than the elapsed steps reads the
    start and is counted in ``clipped_delays``.  ``seed`` drives the
    gradient and delay draws (``config.seed`` only the random init):
    the picks come from ``np.random.SeedSequence(seed)``, the delays from a
    second generator spawned from it; a seed of ``None`` draws both from
    fresh entropy.  Both are drawn one block at a time, the same draws as
    one draw each for all ``max_steps``, so a run that ends early draws only
    what it stepped and its trajectory does not depend on ``max_steps``.  The run steps on
    ``_block_steps`` at any dimension.  With all components equal the
    trajectory reproduces ``simulate_expectation`` exactly, arithmetic
    included.
    """
    if problem.components is None:
        raise ValueError("simulate_sgd needs a problem with components")
    pick_seed = np.random.SeedSequence(_check_seed("seed", seed))
    lag_seed = None if config.delay.is_constant else pick_seed.spawn(1)[0]
    return _run(problem, [config], pick_seed, lag_seed)[0][0]


def _simulated_threshold(problem, variant, delay, m, rel_tol, probe_steps,
                         lag_seed=None) -> ThresholdResult:
    """Bisect eta on the verdicts of trajectories: the one trajectory search.

    Each probe is a ``SimConfig`` at ``delay`` and the library's verdict lines,
    started by ``_run`` from the top eigenvector with expectation gradients; with
    ``lag_seed`` every probe reads the same drawn lags (a server's sampled delays),
    without it a pmf delay reads the probability-weighted state.  Converged counts
    as stable.  An undecided probe gets its step budget doubled once; if it stays
    undecided the search raises ``UndecidedAtProbe`` rather than guess.
    """
    rel_tol = _check_rel_tol("rel_tol", rel_tol)
    probe_steps = _check_count("probe_steps", probe_steps)
    m = _check_variant(variant, m)

    def stable(eta: float) -> bool:
        for steps in (probe_steps, 2 * probe_steps):
            config = SimConfig(OptimizerSpec(variant, eta, m), delay, steps)
            status = _run(problem, [config], None, lag_seed)[0][0].status
            if status != UNDECIDED:
                return status == CONVERGED
        raise UndecidedAtProbe(
            f"probe at eta = {eta!r} still undecided after {steps} steps",
            eta=eta,
            max_steps=steps,
        )

    # A probe can only be classified if its slowest mode moves within the
    # budget; near eta = 0 the decay rate is about eta * a per step, so the
    # grid starts where classification costs a tenth of the budget, and its
    # first probe, ``FIRST_PROBE`` times higher, costs about 1/80 of it.
    a = problem.sharpness()
    start_eta_a = 10.0 * math.log(1.0 / DECAY_FACTOR) / probe_steps
    return _bisect_eta(stable, a, start_eta_a, rel_tol, method=METHOD_SIMULATION,
                       variant=variant, m=m, delay=delay)


def empirical_threshold(
    problem: QuadraticProblem,
    variant: str,
    delay: DelayModel | int,
    m: float = 0.0,
    rel_tol: float = 0.02,
    probe_steps: int = PROBE_STEPS,
) -> ThresholdResult:
    """Stability boundary measured from trajectories alone.

    Bisects eta on run verdicts (converged = stable), never consulting the
    characteristic polynomial, which makes it a genuinely independent
    cross-check of the root-based thresholds.  Each probe is the run
    ``simulate_expectation`` makes of its ``SimConfig`` at the library's
    verdict lines (``_simulated_threshold``, with no lags).  An undecided
    probe gets its step budget doubled once; if it stays undecided the
    search raises ``UndecidedAtProbe`` rather than guess.  A curvature so
    small that a probe's step size overflows to inf, a subnormal one
    included, raises ValueError naming it before any probe runs at inf.
    """
    return _simulated_threshold(problem, variant, as_delay(delay), m, rel_tol, probe_steps)


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
    blowup_factor: float = BLOWUP_FACTOR,
    decay_factor: float = DECAY_FACTOR,
) -> EscapeCurve:
    """How fast instability bites: escape step for each step size.

    ``etas`` must be non-empty and strictly ascending, and the rows' runs step through
    ``_simulate_many``.  A row whose run converges or is undecided reports ``None``.
    """
    etas = [float(e) for e in etas]
    if not etas:
        raise ValueError("etas must name at least one step size")
    if any(b <= a for a, b in zip(etas, etas[1:])):
        raise ValueError("etas must be strictly ascending")
    configs = [SimConfig(OptimizerSpec(variant, eta, m), delay, max_steps, blowup_factor,
                         decay_factor) for eta in etas]
    verdicts = _simulate_many(problem, configs)
    return EscapeCurve(rows=tuple((eta, v.escape_step) for eta, v in zip(etas, verdicts)))


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
    d = _check_count("d", d)
    tol = _check_positive("tol", tol)
    max_iter = _check_count("max_iter", max_iter)
    rng = np.random.default_rng(_check_seed("seed", seed))
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
