"""The benchmark's workloads, the operations they time and the checks on them.

A workload is a fixed list of operations built from the seed.  One round
runs every operation once; a run repeats whole rounds, so every round does
the same work and fails the same operations.  Each workload also names the
``staleness-lab`` commands it runs as subprocesses, with a check for each.

The seed picks the curvature ``a`` from the powers of two 1/4 .. 4 and, where
the workload has them, the random rotation of the vector problem, the
SGD and sampled-delay draws and the order of the operations.  Scaling ``a``
by a power of two scales every step size by the inverse power exactly, so
every seed does the same floating-point work: probe counts, root sweeps and
step counts are identical across seeds and runs.

Calls into the program go through its module attributes
(``stability.numeric_threshold``, not a name imported here), so the per-layer
wrappers of ``tracer`` see them.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from speed import SpeedClock
from staleness_lab import acceptance, dynamics, pssim, stability
from staleness_lab.charpoly import DelayModel, OptimizerSpec, pmf_discrete_gaussian, pmf_uniform
from staleness_lab.dynamics import QuadraticProblem, SimConfig, SimVerdict
from staleness_lab.errors import NoConvergence, NoThreshold, UndecidedAtProbe
from staleness_lab.pssim import PSRun, RoundRobin, SampledDelay
from staleness_lab.stability import ThresholdResult

# Errors that mean "this operation failed", as opposed to a crash.
OP_FAILURES = (NoThreshold, NoConvergence, UndecidedAtProbe)

# Slack on the oracle's spectral radius at a bracket end, and the relative
# widening of the bracket at which the oracle must be strictly on each side.
RADIUS_SLACK = 1e-9
BRACKET_WIDEN = 1e-4


@dataclass(frozen=True)
class Op:
    """One timed operation; ``units`` counts the work a completed one did."""

    name: str
    call: Callable[[], object]
    units: Callable[[object], int]
    may_fail: bool = False


@dataclass
class Record:
    op: Op
    result: object
    error: Exception | None
    seconds: float  # reference seconds (see ``speed``)


@dataclass(frozen=True)
class CliCommand:
    """A ``staleness-lab`` invocation; ``check(workdir, proc)`` lists problems."""

    layer: str
    args: tuple[str, ...]
    check: Callable


def _one(_result) -> int:
    return 1


def _steps(result) -> int:
    return result.steps


def _none(_result) -> int:
    return 0


def digest(result):
    """What must repeat bit for bit when an operation is run again."""
    if isinstance(result, ThresholdResult):
        return (result.eta_star, result.bracket)
    if isinstance(result, SimVerdict):
        return (result.status, result.steps, result.amplification)
    if isinstance(result, PSRun):
        return (result.steps, result.verdict.status, hash(result.norms),
                hash(result.applied_delays))
    return result


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _seed_curvature(rng: random.Random) -> float:
    return 2.0 ** rng.randint(-2, 2)


class Workload:
    name = ""
    warm_up_op = ""
    untouched: tuple[str, ...] = ()  # per-layer counts that must stay 0
    cli_passes = 2  # times the command list runs; cli_s is the median over all

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.ops: list[Op] = []

    def run_round(self, clock: SpeedClock) -> list[Record]:
        records = []
        for op in self.ops:
            clock.start()
            try:
                result, error = op.call(), None
            except OP_FAILURES as exc:
                result, error = None, exc
            records.append(Record(op, result, error, clock.stop()))
        return records

    def warm_up(self) -> None:
        """Run one cheap operation so lazy imports and first-call costs settle."""
        next(op for op in self.ops if op.name == self.warm_up_op).call()

    def check(self, records: list[Record]) -> list[str]:
        raise NotImplementedError

    def cli_commands(self) -> list[CliCommand]:
        raise NotImplementedError


# ------------------------------------------------------------ threshold sweep

class ThresholdSweep(Workload):
    """Threshold searches: polynomial build, root solve, bisection; no simulation.

    Plain, momentum and shifted variants with m in {0.5, 0.9}, uniform and
    discrete-Gaussian delay pmfs, and delays from 0 to 256 (polynomial
    degree 1 to 257).  Momentum and shifted at tau 0, m = 0.9 have their
    boundary at eta*a = 38, above the search cap of 16, so they fail on
    every run; they use a = 1 whatever the seed.
    """

    name = "threshold-sweep"
    warm_up_op = "plain/m=0.0/tau=1"
    untouched = ("dynamics.runs", "pssim.runs")
    SIZES = {
        "full": dict(plain=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
                     momentum=(0, 1, 2, 4, 8, 16, 32, 64),
                     uniform=(2, 8, 32, 64), gauss=(2, 8, 32), cli_taus="0..48"),
        "tiny": dict(plain=(0, 1, 4, 16), momentum=(0, 1, 4),
                     uniform=(2, 8), gauss=(2,), cli_taus="0..4"),
    }
    MS = (0.5, 0.9)

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        rng = random.Random(seed)
        self.a = _seed_curvature(rng)
        sz = self.SIZES[size]
        self.cli_taus = sz["cli_taus"]
        specs = [("plain", 0.0, tau, self.a) for tau in sz["plain"]]
        for variant in ("momentum", "shifted"):
            for m in self.MS:
                for tau in sz["momentum"]:
                    # the tau-0 boundary 2(1+m)/(1-m) passes the cap from m = 0.8
                    a = 1.0 if tau == 0 and m >= 0.8 else self.a
                    specs.append((variant, m, tau, a))
        specs += [("plain", 0.0, ("uniform", b), self.a) for b in sz["uniform"]]
        specs += [("plain", 0.0, ("gauss", mu), self.a) for mu in sz["gauss"]]
        rng.shuffle(specs)
        self.specs = {}
        for variant, m, delay, a in specs:
            if isinstance(delay, int):
                model, label = DelayModel.constant(delay), f"tau={delay}"
            elif delay[0] == "uniform":
                model, label = pmf_uniform(1, delay[1]), f"uniform=1..{delay[1]}"
            else:
                model, label = pmf_discrete_gaussian(delay[1]), f"gauss={delay[1]}"
            name = f"{variant}/m={m}/{label}"
            self.specs[name] = (variant, m, model, a)
            self.ops.append(Op(
                name,
                lambda v=variant, a=a, d=model, m=m: stability.numeric_threshold(v, a, d, m=m),
                _one,
                may_fail=isinstance(delay, int) and delay == 0 and m >= 0.8,
            ))

    def check(self, records):
        errors = []
        eta_a = {}
        for rec in records:
            variant, m, delay, a = self.specs[rec.op.name]
            if rec.error is not None:
                if not (rec.op.may_fail and isinstance(rec.error, NoThreshold)):
                    errors.append(f"{rec.op.name}: unexpected {rec.error!r}")
                continue
            r = rec.result
            lo, hi = r.bracket
            if not (lo < hi and hi - lo <= r.tolerance * r.eta_star):
                errors.append(f"{rec.op.name}: bracket {r.bracket} wider than rel_tol")
            if delay.is_constant:
                tau = delay.tau
                eta_a[(variant, m, tau)] = r.eta_star * a
                if variant == "plain":
                    want = oracles.plain_closed_form(a, tau)
                elif tau == 0:
                    want = oracles.momentum_tau0_closed_form(a, m)
                else:
                    want = None
                if want is not None:
                    if _rel(r.eta_star, want) > r.tolerance:
                        errors.append(f"{rec.op.name}: eta* {r.eta_star!r} vs closed form {want!r}")
                    continue
            lags = list(zip(delay.delays, delay.probs))

            def rho(eta):
                return oracles.spectral_radius(variant, eta, a, m, lags)

            if not (rho(lo) <= 1.0 + RADIUS_SLACK and rho(hi) >= 1.0 - RADIUS_SLACK):
                errors.append(f"{rec.op.name}: bracket {r.bracket} does not straddle radius 1")
            if not (rho(lo * (1 - BRACKET_WIDEN)) < 1.0 < rho(hi * (1 + BRACKET_WIDEN))):
                errors.append(f"{rec.op.name}: boundary not within {BRACKET_WIDEN} of the bracket")
        errors += self._check_directions(eta_a)
        return errors

    def _check_directions(self, eta_a):
        """Momentum lowers eta* as m grows; the shifted variant raises it.

        At tau = 1 the momentum boundary is eta*a = 1 for every m, so there
        the momentum order is only required to be non-increasing.
        """
        errors = []
        taus = sorted({tau for (v, _, tau) in eta_a if v == "momentum" and tau >= 1})
        for tau in taus:
            plain = eta_a.get(("plain", 0.0, tau))
            if plain is None:
                continue
            mom = [plain] + [eta_a[("momentum", m, tau)] for m in self.MS]
            shf = [plain] + [eta_a[("shifted", m, tau)] for m in self.MS]
            strict = tau >= 2
            for hi_, lo_ in zip(mom, mom[1:]):
                if not (lo_ < hi_ if strict else lo_ <= hi_ * (1 + 1e-7)):
                    errors.append(f"tau={tau}: momentum eta* does not fall with m: {mom}")
                    break
            if any(not lo_ < hi_ for lo_, hi_ in zip(shf, shf[1:])):
                errors.append(f"tau={tau}: shifted eta* does not rise with m: {shf}")
        return errors

    def cli_commands(self):
        cmds = []
        for variant, m in (("plain", 0.0), ("momentum", 0.5), ("shifted", 0.5)):
            args = ["threshold", "--variant", variant, "--m", repr(m), "--a", repr(self.a),
                    "--tau", self.cli_taus, "--out", f"{variant}.csv", "--svg", f"{variant}.svg"]
            cmds.append(CliCommand("threshold", tuple(args),
                                   lambda wd, proc, v=variant, m=m: self._check_cli(wd, proc, v, m)))
        return cmds

    def _check_cli(self, workdir: Path, proc, variant: str, m: float) -> list[str]:
        if proc.returncode != 0:
            return [f"threshold {variant} exited {proc.returncode}: {proc.stderr[-300:]!r}"]
        with open(workdir / f"{variant}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        lo_s, hi_s = self.cli_taus.split("..")
        taus = list(range(int(lo_s), int(hi_s) + 1))
        errors = []
        if [int(float(r["tau_or_Etau"])) for r in rows] != taus:
            errors.append(f"threshold {variant}: CSV rows do not cover tau {self.cli_taus}")
        for row in rows:
            tau, eta = int(float(row["tau_or_Etau"])), float(row["eta_star"])
            if variant == "plain" or tau == 0:
                want = (oracles.plain_closed_form(self.a, tau) if variant == "plain"
                        else oracles.momentum_tau0_closed_form(self.a, m))
                if _rel(eta, want) > 1e-8:
                    errors.append(f"threshold {variant} tau={tau}: {eta!r} vs closed form {want!r}")
                continue
            lags = [(tau, 1.0)]
            below = oracles.spectral_radius(variant, eta * (1 - 1e-5), self.a, m, lags)
            above = oracles.spectral_radius(variant, eta * (1 + 1e-5), self.a, m, lags)
            if not below < 1.0 < above:
                errors.append(f"threshold {variant} tau={tau}: {eta!r} is not the boundary")
        svg = (workdir / f"{variant}.svg").read_text(encoding="utf-8")
        if "<svg" not in svg or "</svg>" not in svg:
            errors.append(f"threshold {variant}: SVG chart is malformed")
        manifest = json.loads((workdir / f"{variant}.csv.manifest.json").read_text())
        if manifest.get("command") != "threshold":
            errors.append(f"threshold {variant}: manifest names {manifest.get('command')!r}")
        return errors


# ------------------------------------------------------------------- simulate

class Simulate(Workload):
    """Every simulator path and the parameter-server emulator; no polynomial.

    Fixed-length runs use a step size so small (eta*a = 1e-5) that no run
    converges or diverges before its step budget, so each does exactly its
    budget of steps.  Two verdict runs sit at 0.95 and 1.05 times the closed
    form, and three trajectory-only threshold searches complete the round.
    """

    name = "simulate"
    warm_up_op = "sim.verdict_above"
    untouched = ("charpoly.calls", "roots.calls", "stability.searches")
    SIZES = {
        "full": dict(scalar=300_000, pmf=200_000, vector=20_000, tau=16, vector_tau=8,
                     empirical=(4, 16), cli_sim=6_000_000, cli_ps=600_000),
        "tiny": dict(scalar=3_000, pmf=2_000, vector=300, tau=4, vector_tau=2,
                     empirical=(4,), cli_sim=20_000, cli_ps=5_000),
    }
    SLOW_ETA_A = 1e-5
    CLI_ETA_A = 1e-6  # the commands run longer than the in-process runs
    DIM = 8
    PS_PMF = (1, 16)

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        rng = random.Random(seed)
        self.a = a = _seed_curvature(rng)
        sz = self.sz = self.SIZES[size]
        tau, vtau = sz["tau"], sz["vector_tau"]
        self.eta = self.SLOW_ETA_A / a

        self.p1 = QuadraticProblem([[a]])
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((self.DIM, self.DIM)))
        hess = q @ np.diag(a * np.linspace(1.0, 0.1, self.DIM)) @ q.T
        hess = 0.5 * (hess + hess.T)
        self.pv = QuadraticProblem(hess)
        self.pc = QuadraticProblem(hess, components=np.stack([hess] * 4))
        self.ps_pmf = pmf_uniform(*self.PS_PMF)

        def opt(variant, m=0.0, eta=self.eta):
            return OptimizerSpec(variant, eta, m)

        self.configs = {
            "sim.scalar_plain": (self.p1, SimConfig(opt("plain"), tau, max_steps=sz["scalar"])),
            "sim.scalar_momentum": (self.p1, SimConfig(opt("momentum", 0.5), tau, max_steps=sz["scalar"])),
            "sim.scalar_shifted": (self.p1, SimConfig(opt("shifted", 0.5), tau, max_steps=sz["scalar"])),
            "sim.scalar_pmf": (self.p1, SimConfig(opt("plain"), pmf_uniform(1, 8), max_steps=sz["pmf"])),
            "sim.vector_plain": (self.pv, SimConfig(opt("plain"), vtau, max_steps=sz["vector"])),
            "sim.vector_momentum": (self.pv, SimConfig(opt("momentum", 0.5), vtau, max_steps=sz["vector"])),
            "sim.vector_shifted": (self.pv, SimConfig(opt("shifted", 0.5), vtau, max_steps=sz["vector"])),
        }
        star = oracles.plain_closed_form(a, tau)
        self.verdicts = {
            "sim.verdict_below": (SimConfig(opt("plain", eta=0.95 * star), tau), "converged"),
            "sim.verdict_above": (SimConfig(opt("plain", eta=1.05 * star), tau), "diverged"),
        }
        self.ps_runs = {
            "ps.round_robin_plain": (self.p1, RoundRobin(tau + 1), opt("plain"), sz["scalar"], "expectation"),
            "ps.round_robin_shifted": (self.p1, RoundRobin(tau + 1), opt("shifted", 0.5), sz["scalar"], "expectation"),
            "ps.sampled": (self.p1, SampledDelay(self.ps_pmf, seed=seed), opt("plain"), sz["pmf"], "expectation"),
            "ps.sgd": (self.pc, RoundRobin(vtau + 1), opt("plain"), sz["vector"], "sgd"),
        }
        ops = []
        for name, (prob, cfg) in self.configs.items():
            ops.append(Op(name, lambda p=prob, c=cfg: dynamics.simulate_expectation(p, c), _steps))
        ops.append(Op("sim.sgd", lambda: dynamics.simulate_sgd(
            self.pc, self.configs["sim.vector_plain"][1], seed=seed), _steps))
        for name, (cfg, _) in self.verdicts.items():
            ops.append(Op(name, lambda c=cfg: dynamics.simulate_expectation(self.p1, c), _steps))
        for name, (prob, sched, o, steps, mode) in self.ps_runs.items():
            ops.append(Op(name, lambda p=prob, s=sched, o=o, n=steps, md=mode:
                          pssim.run_ps(p, s, o, n, seed=seed, mode=md), _steps))
        for t in sz["empirical"]:
            ops.append(Op(f"search.empirical_tau={t}", lambda t=t: dynamics.empirical_threshold(
                self.p1, "plain", DelayModel.constant(t), rel_tol=0.005), _none))
        ops.append(Op("search.ps_empirical_w=5", lambda: pssim.ps_empirical_threshold(
            self.p1, RoundRobin(5), "plain", rel_tol=0.005), _none))
        rng.shuffle(ops)
        self.ops = ops

    def check(self, records):
        errors = []
        got = {}
        for rec in records:
            if rec.error is not None:
                errors.append(f"{rec.op.name}: unexpected {rec.error!r}")
            else:
                got[rec.op.name] = rec.result
        if errors:
            return errors
        y0v = self.pv.top_eigvec()
        if np.linalg.norm(self.pv.hessian @ y0v - self.a * y0v) > 1e-9 * self.a:
            errors.append("vector problem: start vector is not the top eigenvector")
        for name, (prob, cfg) in self.configs.items():
            v = got[name]
            if v.status != "undecided" or v.steps != cfg.max_steps:
                errors.append(f"{name}: {v.status} after {v.steps} steps, want the full {cfg.max_steps}")
                continue
            opt = cfg.optimizer
            want = oracles.amplification_after(
                opt.variant, opt.eta, prob.hessian, opt.m,
                list(zip(cfg.delay.delays, cfg.delay.probs)),
                prob.top_eigvec(), cfg.max_steps)
            if _rel(v.amplification, want) > 1e-9:
                errors.append(f"{name}: amplification {v.amplification!r}, matrix power {want!r}")
        for name, (_, status) in self.verdicts.items():
            if got[name].status != status:
                errors.append(f"{name}: {got[name].status}, closed form says {status}")
        if digest(got["sim.sgd"]) != digest(got["sim.vector_plain"]):
            errors.append("sim.sgd with equal components differs from the expectation run")
        for name in ("ps.round_robin_plain", "ps.round_robin_shifted", "ps.sgd"):
            errors += self._check_round_robin(name, got[name])
        errors += self._check_sampled(got["ps.sampled"])
        for t in self.sz["empirical"]:
            r = got[f"search.empirical_tau={t}"]
            if _rel(r.eta_star, oracles.plain_closed_form(self.a, t)) > 0.02:
                errors.append(f"empirical tau={t}: {r.eta_star!r} not within 2% of closed form")
        r = got["search.ps_empirical_w=5"]
        if _rel(r.eta_star, oracles.plain_closed_form(self.a, 4)) > 0.02:
            errors.append(f"ps empirical W=5: {r.eta_star!r} not within 2% of closed form")
        return errors

    def _check_round_robin(self, name, run):
        """Round robin over W workers is constant delay W - 1, bit for bit."""
        prob, sched, opt, steps, mode = self.ps_runs[name]
        ref_prob = self.pv if mode == "sgd" else prob
        every = 1 if mode == "sgd" else 8
        ref = dynamics.simulate_expectation(ref_prob, SimConfig(
            opt, sched.n_workers - 1, max_steps=steps, record_trace=True, record_every=every))
        if run.steps != ref.steps or run.verdict.status != ref.status:
            return [f"{name}: {run.verdict.status} at {run.steps}, constant delay "
                    f"{ref.status} at {ref.steps}"]
        if any(run.norms[t] != norm for t, norm in ref.trace):
            return [f"{name}: norms differ from the constant-delay run"]
        return []

    def _check_sampled(self, run):
        prob, sched, opt, steps, _ = self.ps_runs["ps.sampled"]
        errors = []
        delays = run.applied_delays
        if run.steps != steps or run.verdict.status != "undecided":
            errors.append(f"ps.sampled: {run.verdict.status} after {run.steps} of {steps} steps")
        lo, hi = self.PS_PMF
        if any(not (min(lo, t) <= k <= hi and k <= t) for t, k in enumerate(delays)):
            errors.append("ps.sampled: applied delay outside the pmf support")
        tail = delays[hi:]  # past the start, where no draw is clipped
        p = 1.0 / (hi - lo + 1)
        sigma = math.sqrt(p * (1 - p) / len(tail))
        for k in range(lo, hi + 1):
            if abs(tail.count(k) / len(tail) - p) > 6 * sigma:
                errors.append(f"ps.sampled: delay {k} drawn with frequency far from {p}")
        replay = oracles.replay_sampled_plain(opt.eta, self.a, 1.0, delays)
        worst = max(abs(g - w) / max(w, 1e-300) for g, w in zip(run.norms, replay))
        if len(replay) != len(run.norms) or worst > 1e-12:
            errors.append(f"ps.sampled: norms differ from a replay of its delays ({worst:.1e})")
        return errors

    def cli_commands(self):
        tau, n_sim, n_ps = self.sz["tau"], self.sz["cli_sim"], self.sz["cli_ps"]
        self.cli_eta = self.CLI_ETA_A / self.a
        eta = repr(self.cli_eta)
        sim = ("simulate", "--a", repr(self.a), "--eta", eta, "--tau", str(tau),
               "--steps", str(n_sim), "--record-every", "100", "--seed", str(self.seed),
               "--out", "sim")
        ps = ("ps", "--workers", str(tau + 1), "--a", repr(self.a), "--eta", eta,
              "--steps", str(n_ps), "--seed", str(self.seed), "--out", "ps")
        return [CliCommand("simulate", sim, lambda wd, proc: self._check_cli(wd, proc, "sim", n_sim)),
                CliCommand("ps", ps, lambda wd, proc: self._check_cli(wd, proc, "ps", n_ps))]

    def _check_cli(self, workdir: Path, proc, kind: str, steps: int) -> list[str]:
        if proc.returncode != 0:
            return [f"{kind} exited {proc.returncode}: {proc.stderr[-300:]!r}"]
        out = workdir / kind
        verdict = json.loads((out / "verdict.json").read_text())
        if verdict["status"] != "undecided" or verdict["steps"] != steps:
            return [f"{kind}: verdict {verdict['status']} after {verdict['steps']} of {steps}"]
        table = (out / ("trace.csv" if kind == "sim" else "trajectory.csv")).read_text().split()
        last_step, last_norm = table[-1].split(",")
        want = oracles.amplification_after(
            "plain", self.cli_eta, [[self.a]], 0.0, [(self.sz["tau"], 1.0)], [1.0], steps)
        errors = []
        if int(last_step) != steps or _rel(float(last_norm), want) > 1e-9:
            errors.append(f"{kind}: final norm {last_norm} at {last_step}, matrix power {want!r}")
        if kind == "ps" and len(table) != steps + 2:
            errors.append(f"ps: trajectory has {len(table) - 2} steps, want {steps}")
        return errors


# --------------------------------------------------------------------- verify

class Verify(Workload):
    """The acceptance battery, run in-process the way the test suite runs it.

    One operation is one criterion; the battery's inputs are fixed by its own
    hard-coded seeds, so the workload seed does not change them.  It is the
    only workload that runs the root solver on dense, cold-started random
    polynomials (the root-finder criterion).
    """

    name = "verify"
    cli_passes = 3
    TINY = ("taylor-accuracy", "momentum-direction", "power-iteration")
    # The command runs a part of the battery that touches every layer: the
    # whole battery already runs in process, and running it twice would
    # double the length of a run.
    CLI = ("exact-threshold", "taylor-accuracy", "inverse-linear", "momentum-direction",
           "ps-equivalence", "power-iteration")

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        known = [name for name, _, _ in acceptance.CRITERIA]
        self.names = known if size == "full" else list(self.TINY)
        self.cli_names = self.CLI if size == "full" else self.TINY
        self.ops = [Op(name, None, _one) for name in self.names]

    def warm_up(self) -> None:
        acceptance.run_criteria(names=["taylor-accuracy"])

    def run_round(self, clock: SpeedClock) -> list[Record]:
        times = {}

        def timed(name, func):
            def criterion(ctx, out_dir):
                clock.start()
                try:
                    return func(ctx, out_dir)
                finally:
                    times[name] = clock.stop()
            return criterion

        original = acceptance.CRITERIA
        acceptance.CRITERIA = [(n, timed(n, f), b) for n, f, b in original]
        try:
            results = acceptance.run_criteria(names=self.names)
        finally:
            acceptance.CRITERIA = original
        ops = {op.name: op for op in self.ops}
        return [Record(ops[name], (ok, detail), None, times[name])
                for name, ok, detail in results]

    def check(self, records):
        errors = []
        if [r.op.name for r in records] != self.names:
            errors.append(f"battery ran {[r.op.name for r in records]}, want {self.names}")
        for rec in records:
            ok, detail = rec.result
            if not ok:
                errors.append(f"criterion {rec.op.name} failed: {detail}")
        return errors

    def cli_commands(self):
        args = ("verify", "--only", ",".join(self.cli_names), "--out", "artifacts")
        return [CliCommand("verify", args, self._check_cli)]

    def _check_cli(self, workdir: Path, proc) -> list[str]:
        n = len(self.cli_names)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or last != f"{n}/{n} criteria passed":
            return [f"verify exited {proc.returncode}: {last!r}"]
        errors = []
        with open(workdir / "artifacts" / "taylor_accuracy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["tau"]) for r in rows] != list(range(1, 65)):
            errors.append("taylor_accuracy.csv does not cover tau 1..64")
        for r in rows:
            tau = int(r["tau"])
            exact = 1.0 / (2.0 * math.sin(math.pi / (4 * tau + 2)))
            taylor = (2 * tau + 1) / math.pi
            got = float(r["inverse_exact"]), float(r["taylor"]), float(r["abs_err"])
            if (_rel(got[0], exact) > 1e-12 or _rel(got[1], taylor) > 1e-12
                    or abs(got[2] - abs(exact - taylor)) > 1e-12):
                errors.append(f"taylor_accuracy.csv tau={tau}: {got} vs {exact!r}, {taylor!r}")
        return errors


WORKLOADS = {cls.name: cls for cls in (ThresholdSweep, Simulate, Verify)}
