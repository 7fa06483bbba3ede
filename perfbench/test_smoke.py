"""Smoke tests of the benchmark: every workload at tiny size, with all checks on.

Run with ``python3 -m pytest perfbench/test_smoke.py``.  Each test starts the
runner as a subprocess, the way a comparison between two commits runs it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]

# operations per tiny round, and how many of them fail on every round
TINY_ROUND = {"threshold-sweep": (19, 2), "simulate": (16, 0), "verify": (3, 0)}


def bench(root: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(bench(ROOT, workload, seed=2, trace=0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    per_round, fails = TINY_ROUND[workload]
    assert res["attempted"] % per_round == 0
    assert res["failed"] * per_round == fails * res["attempted"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_seeds(workload):
    first, second = (result(bench(ROOT, workload, seed=s, trace=1)) for s in (3, 4))
    for res in (first, second):
        assert res["correct"] is True
        assert {k: v["unit"] for k, v in res["metrics"].items()} == PER_LAYER
    assert [first["metrics"][c]["value"] for c in COUNTS] == \
        [second["metrics"][c]["value"] for c in COUNTS]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], seed=1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_timed_cli_behaves_as_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    report = tmp_path / "time.json"

    def timed(*args):
        return subprocess.run([sys.executable, str(HERE / "timed_cli.py"), str(report), *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)

    ok = timed("--version")
    direct = subprocess.run([sys.executable, "-m", "staleness_lab.cli", "--version"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert ok.returncode == direct.returncode == 0
    assert ok.stdout == direct.stdout
    times = json.loads(report.read_text())
    assert times["wall_s"] > 0 and times["reference_s"] > 0
    assert timed("threshold", "--no-such-option").returncode == 2
