#!/usr/bin/env python3
"""Benchmark for staleness-lab: fixed workloads, end-to-end and per-layer metrics.

One workload, one run (what a comparison between two commits repeats)::

    python3 perfbench/run.py --workload threshold-sweep --seed 1 --seconds 10 --trace 0

The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
check passed.

Every workload, each run in fresh processes with seeds 1..N, summarised with
medians and quartiles into ``BENCH_<label>.json`` at the repository root::

    python3 perfbench/run.py --label baseline --runs 5

The program is imported from ``src/`` next to this directory, and its command
line runs from there through ``timed_cli.py``; nothing needs installing.  All
files a run writes go to a scratch directory under the repository root that
is removed when the run ends.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the benchmark drives all load from
# a single process and the reference machine has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("threshold-sweep", "simulate", "verify")
SETUP_STARTS = 9  # fresh interpreters per run; setup_s is their median
STARTUP_PROBES = 3  # no-work CLI invocations per traced run
CLI_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ``staleness_lab`` from this checkout's ``src/``, or exit nonzero."""
    package = SRC / "staleness_lab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no staleness_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import staleness_lab

    if Path(staleness_lab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported staleness_lab from {staleness_lab.__file__}")
    return staleness_lab


def program_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(workdir)
    env.pop("STALENESS_LAB_SEED", None)
    return env


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# -------------------------------------------------------------- one workload

@dataclass
class Round:
    wall: float  # reference seconds, the sum of the operations'
    ops: list  # (name, reference seconds, units, failed) per operation
    layers: dict | None


def run_rounds(workload, seconds: float, reference, clock, tracer=None):
    """Run whole rounds until ``seconds`` of wall time have passed (at least one).

    ``reference`` holds the digests of the first round ever run; every later
    round must reproduce them.  Returns the rounds, the first round's records
    (when this call ran it) and the mismatches found.
    """
    from workloads import digest

    rounds, first, errors = [], None, []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        records = workload.run_round(clock)
        layers = tracer.snapshot() if tracer is not None else None
        rounds.append(Round(sum(r.seconds for r in records), [
            (r.op.name, r.seconds, 0 if r.error else r.op.units(r.result), r.error is not None)
            for r in records
        ], layers))
        digests = [(r.op.name, type(r.error).__name__ if r.error else digest(r.result))
                   for r in records]
        if not reference:
            reference.extend(digests)
            first = records
        elif digests != reference:
            errors.append("a round's results differ from the first round's")
        del records
        if perf_counter() - start >= seconds:
            return rounds, first, errors


def time_setup(args, workdir: Path, env, clock) -> list[float]:
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_STARTS):
        clock.start()
        proc = subprocess.run(probe, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        times.append(clock.stop())
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{proc.stderr}")
    return times


def run_cli(args, workdir: Path, env, clock):
    """Run one ``staleness-lab`` command; return its reference seconds and process.

    The command's own process times its import and run (``timed_cli.py``),
    sampling the speed of the core it runs on; the interpreter start before
    that is the rest of the wall time seen here.
    """
    report = workdir / "cli-time.json"
    clock.start(sample=False)  # samples here would run inside the command's own span
    proc = subprocess.run([sys.executable, str(HERE / "timed_cli.py"), str(report), *args],
                          cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    seconds = clock.stop()
    if report.is_file():
        inside = json.loads(report.read_text())
        report.unlink()
        start = max(clock.walls[-1] - inside["wall_s"], 0.0)
        seconds = inside["reference_s"] + start / clock.slowdowns[-1]
    return seconds, proc


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The speed samples then run on the core that does the work, also while a
    child process does it, and the time they take is time the child did not
    run, which ``SpeedClock`` leaves out of the span.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def run_workload(args) -> int:
    pin_to_one_cpu()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


def _run_workload(args, workdir: Path) -> int:
    import_program()
    tempfile.tempdir = str(workdir)  # the battery's scratch files stay in the checkout
    env = program_env(workdir)

    import tracer as tracing
    import workloads
    from speed import SpeedClock
    from staleness_lab import acceptance

    clock = SpeedClock()
    try:
        setup = time_setup(args, workdir, env, clock)

        workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
        workload.warm_up()
        reference: list = []
        rounds, first, errors = run_rounds(workload, args.seconds, reference, clock)
        traced = []
        if args.trace:
            trace = tracing.LayerTrace()
            uninstall = trace.install()
            try:
                traced, _, more = run_rounds(workload, args.seconds, reference, clock, trace)
            finally:
                uninstall()
            errors += more
        errors += workload.check(first)

        cli_times: dict[str, list[float]] = {}
        for cmd in workload.cli_commands() * workload.cli_passes:
            seconds, proc = run_cli(cmd.args, workdir, env, clock)
            cli_times.setdefault(cmd.layer, []).append(seconds)
            errors += cmd.check(workdir, proc)
        startup = []
        if args.trace:
            for _ in range(STARTUP_PROBES):
                seconds, proc = run_cli(["--version"], workdir, env, clock)
                startup.append(seconds)
                if proc.returncode != 0:
                    errors.append(f"staleness-lab --version exited {proc.returncode}")
    finally:
        clock.close()

    every = rounds + traced
    attempted = sum(len(r.ops) for r in every)
    failed = sum(f for r in every for *_, f in r.ops)
    if args.trace:
        values = layer_metrics(traced, rounds, cli_times, startup,
                               [name for name, _, _ in acceptance.CRITERIA], errors)
        values["machine.slowdown"] = median(clock.slowdowns)
        errors += [f"{name} should be 0 on this workload, got {values[name]}"
                   for name in workload.untouched if values[name] != 0]
        units = {name: tracing.LAYER_UNITS.get(name, "ratio" if name == "machine.slowdown" else "s")
                 for name in values}
    else:
        values = end_to_end_metrics(rounds, setup, cli_times)
        units = END_TO_END_UNITS

    for problem in errors:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload:16s} {name:34s} {value:14.6g} {units[name]}")
    print(f"{args.workload:16s} attempted {attempted}, failed {failed}, "
          f"correct {not errors}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if not errors else 1


def end_to_end_metrics(rounds, setup, cli_times) -> dict[str, float]:
    op_seconds = [s for r in rounds for _, s, _, _ in r.ops]
    units = sum(u for r in rounds for _, _, u, _ in r.ops)
    unit_seconds = sum(s for r in rounds for _, s, u, _ in r.ops if u)
    return {
        "setup_s": median(setup),
        "wall_s": median([r.wall for r in rounds]),
        "work_per_s": units / unit_seconds,
        "op_ms_p50": median(op_seconds) * 1e3,
        "cli_s": median([s for times in cli_times.values() for s in times]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


CLI_LAYERS = ("threshold", "simulate", "ps", "verify")


def layer_metrics(traced, untraced, cli_times, startup, criteria, errors) -> dict[str, float]:
    """Per-layer metrics of the traced rounds: medians of times, counts of one round."""
    import tracer as tracing

    values = {}
    for name in tracing.LAYER_UNITS:
        per_round = [r.layers[name] for r in traced]
        if name in tracing.COUNT_METRICS and len(set(per_round)) > 1:
            errors.append(f"{name} differs between identical rounds: {per_round}")
        values[name] = median(per_round)
    for criterion in criteria:
        values[f"acceptance.{criterion}.s"] = median(
            [s for r in traced for name, s, _, _ in r.ops if name == criterion])
    values["cli.startup.s"] = median(startup)
    for layer in CLI_LAYERS:
        values[f"cli.{layer}.s"] = median(cli_times.get(layer, []))
    values["trace.overhead_s"] = (median([r.wall for r in traced])
                                  - median([r.wall for r in untraced]))
    return values


# ------------------------------------------------------------- all workloads

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_suite(args) -> int:
    import_program()
    import numpy

    me = str(Path(__file__).resolve())
    report = {
        "label": args.label,
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seconds": args.seconds,
        "size": args.size,
        "runs": args.runs,
        "workloads": {},
    }
    ok = True
    for workload in WORKLOAD_NAMES:
        results = []
        for trace, seeds in ((0, range(1, args.runs + 1)), (1, (1,))):
            for seed in seeds:
                cmd = [sys.executable, me, "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--size", args.size]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                sys.stderr.write(proc.stderr)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
                    ok = False
                    continue
                results.append((trace, seed, json.loads(lines[-1])))
        entry = {"runs": [{"trace": t, "seed": s, **r} for t, s, r in results]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            chosen = [r for t, _, r in results if t == trace]
            if not chosen:
                continue
            summary = {}
            for name, metric in chosen[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in chosen]
                q1, q3 = quartiles(values)
                summary[name] = {"median": median(values), "q1": q1, "q3": q3,
                                 "unit": metric["unit"], "n": len(values)}
            entry[key] = summary
        untraced = [r for t, _, r in results if t == 0]
        entry["attempted"] = sum(r["attempted"] for r in untraced)
        entry["failed"] = sum(r["failed"] for r in untraced)
        entry["correct"] = all(r["correct"] for _, _, r in results)
        ok = ok and entry["correct"]
        report["workloads"][workload] = entry
        for name, s in entry.get("end_to_end", {}).items():
            print(f"{workload:16s} {name:12s} median {s['median']:12.6g} {s['unit']:5s} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        print(f"{workload:16s} attempted {entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def setup_probe(args) -> int:
    """Import the program and build the workload's inputs, then exit."""
    import_program()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.size)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at smoke-test size")
    parser.add_argument("--label", help="run every workload and write BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.label:
        return run_suite(args)
    if not args.workload:
        parser.error("give --workload, or --label to run every workload")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
