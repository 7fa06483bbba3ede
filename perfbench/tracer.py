"""Per-layer counters and timers, installed around the program's public functions.

``LayerTrace.install()`` replaces each traced function with a wrapper in
every loaded ``staleness_lab`` module that binds it, so calls made between
modules (``stability`` calling ``roots.all_roots``, ``acceptance`` calling
``dynamics.simulate_expectation``) are seen too.  The returned callable puts
the originals back.  Wrappers only count and time; arguments and results pass
through untouched.

Each wrapped call is a span.  A span adds its duration to the span that
encloses it, so a threshold search's self time is its duration minus the
time spent building polynomials and in the root solver it called.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Degree buckets of the root solver: per-call overhead dominates the small
# ones, Aberth's O(deg^2) sweeps the large ones.
ROOT_BUCKETS = (("small", 64), ("mid", 256), ("large", None))

SIM_PATHS = ("scalar_plain", "scalar_momentum", "scalar_shifted", "scalar_pmf", "vector", "sgd")
PS_PATHS = ("round_robin", "sampled", "sgd")
SEARCH_KINDS = ("plain", "momentum", "shifted", "pmf")

# Every per-layer metric a traced round reports, with its unit.  Times are
# per round; counts are per round and repeat exactly for identical inputs.
LAYER_UNITS = {
    "charpoly.calls": "count",
    "charpoly.ms": "ms",
    "roots.calls": "count",
    "roots.sweeps": "count",
    "roots.sweeps_per_call": "count",
    "roots.warm_calls": "count",
    "roots.ms": "ms",
    **{f"roots.ms_per_call.{b}": "ms" for b, _ in ROOT_BUCKETS},
    "stability.searches": "count",
    "stability.probes": "count",
    "stability.probes_per_search": "count",
    "stability.self_ms": "ms",
    **{f"stability.search_ms.{k}": "ms" for k in SEARCH_KINDS},
    "dynamics.runs": "count",
    "dynamics.steps": "count",
    **{f"dynamics.steps_per_s.{p}": "1/s" for p in SIM_PATHS},
    "dynamics.empirical.probes": "count",
    "dynamics.empirical.retries": "count",
    "dynamics.empirical.ms": "ms",
    "pssim.runs": "count",
    "pssim.steps": "count",
    **{f"pssim.steps_per_s.{p}": "1/s" for p in PS_PATHS},
    "pssim.threshold.probes": "count",
    "pssim.threshold.ms": "ms",
}

COUNT_METRICS = tuple(k for k, u in LAYER_UNITS.items() if u == "count")


def _bucket(degree: int) -> str:
    for name, top in ROOT_BUCKETS:
        if top is None or degree <= top:
            return name
    raise AssertionError("unreachable")


def _nonzero_degree(poly) -> int:
    k = 0
    while poly.coeffs[k] == 0.0:
        k += 1
    return poly.degree - k


class LayerTrace:
    """Accumulates raw per-layer sums; ``snapshot()`` turns them into metrics."""

    def __init__(self):
        self.raw: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # [start, seconds in child spans]
        self._charpoly_depth = 0
        self._search = None  # the enclosing trajectory search, if any

    def reset(self) -> None:
        self.raw = defaultdict(float)

    # --------------------------------------------------------------- spans
    def _enter(self) -> None:
        self._stack.append([perf_counter(), 0.0])

    def _leave(self) -> tuple[float, float]:
        start, child = self._stack.pop()
        dur = perf_counter() - start
        if self._stack:
            self._stack[-1][1] += dur
        return dur, child

    # ------------------------------------------------------------ wrappers
    def _wrap_charpoly(self, orig):
        def charpoly_span(*args, **kwargs):
            if self._charpoly_depth:  # char_poly calling the variant it dispatches to
                return orig(*args, **kwargs)
            self._charpoly_depth += 1
            self._enter()
            try:
                return orig(*args, **kwargs)
            finally:
                dur, _ = self._leave()
                self._charpoly_depth -= 1
                self.raw["charpoly.calls"] += 1
                self.raw["charpoly.ms"] += dur * 1e3

        return charpoly_span

    def _wrap_all_roots(self, orig):
        def all_roots_span(p, *args, **kwargs):
            start = kwargs.get("start", args[2] if len(args) > 2 else None)
            self._enter()
            result = None
            try:
                result = orig(p, *args, **kwargs)
                return result
            finally:
                dur, _ = self._leave()
                raw = self.raw
                bucket = _bucket(p.degree)
                raw["roots.calls"] += 1
                raw["roots.ms"] += dur * 1e3
                raw[f"roots.calls.{bucket}"] += 1
                raw[f"roots.ms.{bucket}"] += dur * 1e3
                if result is not None:
                    raw["roots.sweeps"] += result.iterations
                if start is not None and len(start) == _nonzero_degree(p):
                    raw["roots.warm_calls"] += 1

        return all_roots_span

    def _wrap_numeric_threshold(self, orig):
        def search_span(variant, a, delay, *args, **kwargs):
            constant = isinstance(delay, int) or delay.is_constant
            kind = variant if constant else "pmf"
            roots_before = self.raw["roots.calls"]
            self._enter()
            finished = False
            try:
                result = orig(variant, a, delay, *args, **kwargs)
                finished = True
                return result
            finally:
                dur, child = self._leave()
                raw = self.raw
                # every probe solves one polynomial; a finished search
                # solves one more at its midpoint for the residual
                raw["stability.probes"] += raw["roots.calls"] - roots_before - finished
                raw["stability.searches"] += 1
                raw["stability.self_ms"] += (dur - child) * 1e3
                raw[f"stability.search_ms.{kind}"] += dur * 1e3

        return search_span

    def _wrap_simulator(self, orig, sgd: bool):
        def sim_span(problem, config, *args, **kwargs):
            self._enter()
            try:
                verdict = orig(problem, config, *args, **kwargs)
            finally:
                dur, _ = self._leave()
            if sgd:
                path = "sgd"
            elif problem.d > 1:
                path = "vector"
            elif not config.delay.is_constant:
                path = "scalar_pmf"
            else:
                path = f"scalar_{config.optimizer.variant}"
            raw = self.raw
            raw["dynamics.runs"] += 1
            raw["dynamics.steps"] += verdict.steps
            raw[f"dynamics.steps.{path}"] += verdict.steps
            raw[f"dynamics.seconds.{path}"] += dur
            self._count_probe("dynamics.empirical", config.optimizer.eta)
            return verdict

        return sim_span

    def _wrap_run_ps(self, orig):
        def ps_span(problem, scheduler, optimizer, steps, *args, **kwargs):
            mode = kwargs.get("mode", args[1] if len(args) > 1 else "expectation")
            self._enter()
            try:
                run = orig(problem, scheduler, optimizer, steps, *args, **kwargs)
            finally:
                dur, _ = self._leave()
            if mode == "sgd":
                path = "sgd"
            elif hasattr(scheduler, "n_workers"):
                path = "round_robin"
            else:
                path = "sampled"
            raw = self.raw
            raw["pssim.runs"] += 1
            raw["pssim.steps"] += run.steps
            raw[f"pssim.steps.{path}"] += run.steps
            raw[f"pssim.seconds.{path}"] += dur
            self._count_probe("pssim.threshold", optimizer.eta)
            return run

        return ps_span

    def _count_probe(self, prefix: str, eta: float) -> None:
        search = self._search
        if search is None or search[0] != prefix:
            return
        # a repeated eta is the same probe with its step budget doubled
        if eta == search[1]:
            self.raw[f"{prefix}.retries"] += 1
        else:
            self.raw[f"{prefix}.probes"] += 1
            search[1] = eta

    def _wrap_trajectory_search(self, orig, prefix: str):
        def traj_span(*args, **kwargs):
            outer = self._search
            self._search = [prefix, None]
            self._enter()
            try:
                return orig(*args, **kwargs)
            finally:
                dur, _ = self._leave()
                self._search = outer
                self.raw[f"{prefix}.ms"] += dur * 1e3

        return traj_span

    # --------------------------------------------------------------- setup
    def install(self):
        """Wrap the traced functions everywhere they are bound; return an undo."""
        from staleness_lab import charpoly, dynamics, pssim, roots, stability

        plan = [(getattr(charpoly, n), self._wrap_charpoly) for n in (
            "char_poly", "char_poly_plain", "char_poly_momentum",
            "char_poly_shifted", "char_poly_stochastic",
        )]
        plan += [
            (roots.all_roots, self._wrap_all_roots),
            (stability.numeric_threshold, self._wrap_numeric_threshold),
            (dynamics.simulate_expectation, lambda f: self._wrap_simulator(f, sgd=False)),
            (dynamics.simulate_sgd, lambda f: self._wrap_simulator(f, sgd=True)),
            (dynamics.empirical_threshold,
             lambda f: self._wrap_trajectory_search(f, "dynamics.empirical")),
            (pssim.run_ps, self._wrap_run_ps),
            (pssim.ps_empirical_threshold,
             lambda f: self._wrap_trajectory_search(f, "pssim.threshold")),
        ]
        wrapped = {id(orig): (orig, make(orig)) for orig, make in plan}
        undo = []
        for name, module in list(sys.modules.items()):
            if name != "staleness_lab" and not name.startswith("staleness_lab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))

        def uninstall():
            for module, attr, value in undo:
                setattr(module, attr, value)

        return uninstall

    # ------------------------------------------------------------- metrics
    def snapshot(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since ``reset()``."""
        raw = self.raw
        out = {name: float(raw.get(name, 0.0)) for name in LAYER_UNITS}

        def ratio(num, den):
            return num / den if den else 0.0

        out["roots.sweeps_per_call"] = ratio(raw["roots.sweeps"], raw["roots.calls"])
        for b, _ in ROOT_BUCKETS:
            out[f"roots.ms_per_call.{b}"] = ratio(raw[f"roots.ms.{b}"], raw[f"roots.calls.{b}"])
        out["stability.probes_per_search"] = ratio(
            raw["stability.probes"], raw["stability.searches"]
        )
        for p in SIM_PATHS:
            out[f"dynamics.steps_per_s.{p}"] = ratio(
                raw[f"dynamics.steps.{p}"], raw[f"dynamics.seconds.{p}"]
            )
        for p in PS_PATHS:
            out[f"pssim.steps_per_s.{p}"] = ratio(
                raw[f"pssim.steps.{p}"], raw[f"pssim.seconds.{p}"]
            )
        return out
