"""Alternating benchmark pairs: a base revision against the working tree.

    python tools/pairs.py [--base REV] [--workloads W ...] [--pairs N] [--seconds S] [--keep]

Run from anywhere in the repository.  Two fresh trees go into one temporary
directory: ``base/`` from ``git archive REV`` (default HEAD) and ``change/``
from the files ``git ls-files -co --exclude-standard`` names in the working
tree.  Neither is byte-compiled, and every run gets
``PYTHONDONTWRITEBYTECODE=1``: each process compiles what it imports, as a
run from a fresh checkout without bytecode caches does, and neither tree
gains caches between runs.  The tool refuses to start when ``perfbench/`` or
``BENCHMARK.json`` differ between the trees, since the comparison would then
measure two benchmarks.

For seeds 1..N it runs ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` in each tree, and flips which side runs first on every seed, so
that an order effect falls on both sides alike.  The defaults are every
workload of ``BENCHMARK.json``, 10 pairs and its ``run_seconds``.  For each
workload and end-to-end metric it prints the base's median [q1, q3], the
change's, the relative change, in how many pairs the change read worse, and
one verdict (``summarize``).  Every run that exits nonzero, is not correct
or has failed operations is listed, and the exit code is then 1.  Nothing
is written into the repository, and the temporary directory is removed
unless ``--keep`` is given.  Only the standard library is used, and pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's runs, paired by position (seed).

    The verdict is ``gain`` when the change read better in at least nine
    tenths of the pairs and its median is better by more than the base's
    interquartile range; ``worse`` when its median is worse by more than
    ``bound``, relative to the base's; ``unresolved`` when the base's
    interquartile range over its median is wider than ``bound`` and not
    every change run beats every base run; ``flat`` otherwise.  A tie in a
    pair counts as neither better nor worse.
    """
    sign = 1.0 if better == "higher" else -1.0  # sign * (y - x) > 0: y reads better
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    iqr = bq3 - bq1
    if wins >= 0.9 * len(base) and sign * (cmed - bmed) > iqr:
        verdict = "gain"
    elif -sign * (cmed - bmed) > bound * abs(bmed):
        verdict = "worse"
    elif iqr > bound * abs(bmed) and not all(sign * (c - b) > 0 for b in base for c in change):
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {"base": (bmed, bq1, bq3), "change": (cmed, cq1, cq3),
            "rel": (cmed - bmed) / bmed if bmed else 0.0, "worse_pairs": losses,
            "pairs": len(base), "verdict": verdict}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def build(tmp: Path, rev: str) -> dict[str, Path]:
    """The base and change trees under ``tmp``, as source only.

    Raises SystemExit when their benchmarks differ."""
    trees = {side: tmp / side for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as archive:
        archive.extractall(trees["base"], filter="data")
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the working tree is skipped
            dst = trees["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    if _benchmark_files(trees["base"]) != _benchmark_files(trees["change"]):
        raise SystemExit("perfbench/ or BENCHMARK.json differ between the trees")
    return trees


def _benchmark_files(tree: Path) -> dict[str, bytes]:
    files = [tree / "BENCHMARK.json", *(tree / "perfbench").rglob("*")]
    return {str(p.relative_to(tree)): p.read_bytes() for p in files if p.is_file()}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """One benchmark run: its last JSON line, or None, and what was wrong with it."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"exit {proc.returncode}, no JSON line; stderr: {proc.stderr.strip()[-300:]}"
    problems = [f"exit {proc.returncode}"] if proc.returncode else []
    if not result.get("correct"):
        problems.append("not correct")
    if result.get("failed"):
        problems.append(f"failed {result['failed']} of {result.get('attempted')}")
    return result, ", ".join(problems)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--keep", action="store_true", help="keep the temporary trees")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = build(tmp, args.base)
        values = {}  # (workload, side) -> metric -> one value a seed
        bad = []
        for workload in args.workloads:
            for seed in range(1, args.pairs + 1):
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    result, problem = run_once(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: {problem or 'ok'}", file=sys.stderr)
                    if problem:
                        bad.append(f"{workload} seed {seed} {side}: {problem}")
                    for name, metric in (result or {}).get("metrics", {}).items():
                        values.setdefault((workload, side), {}).setdefault(name, []).append(
                            metric["value"])
        for workload in args.workloads:
            for metric in bench["end_to_end"]:
                base, change = (values.get((workload, side), {}).get(metric["name"], [])
                                for side in SIDES)
                if not base or len(base) != len(change):
                    print(f"{workload:16s} {metric['name']:12s} missing runs")
                    continue
                s = summarize(base, change, metric["better"], metric["bound"])
                (bm, b1, b3), (cm, c1, c3) = s["base"], s["change"]
                print(f"{workload:16s} {metric['name']:12s} {bm:.4g} [{b1:.4g}, {b3:.4g}] -> "
                      f"{cm:.4g} [{c1:.4g}, {c3:.4g}]  {s['rel']:+.1%}  "
                      f"worse in {s['worse_pairs']}/{s['pairs']}  {s['verdict']}")
        for line in bad:
            print(f"BAD RUN: {line}")
        return 1 if bad else 0
    finally:
        if args.keep:
            print(f"trees kept in {tmp}", file=sys.stderr)
        else:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
