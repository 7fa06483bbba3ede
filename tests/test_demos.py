"""Every demo runs on its own, and the demos print the same thing on every run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import staleness_lab

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo -> the files it says it writes under demo_out/
WRITES = {
    "escape_times": ["escape_times.csv", "escape_times.svg"],
    "momentum_directions": [],
    "parameter_server": [],
    "random_delays": ["random_delays.svg", "random_delays_gaussian.csv",
                      "random_delays_uniform.csv"],
    "sharpness_scaling": [],
    "threshold_vs_delay": ["threshold_vs_delay.csv", "threshold_vs_delay.svg"],
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("name", WRITES)
def test_demo_runs_as_a_script(tmp_path, name):
    # as a user runs it: a fresh process, its own argv, output under the cwd
    env = dict(os.environ)
    src = str(Path(staleness_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "demo_out"
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == WRITES[name]
    if written:
        assert "wrote demo_out/" in proc.stdout


def test_sharpness_scaling_output_is_reproducible(capsys):
    demo = _load("sharpness_scaling")
    demo.main()
    first = capsys.readouterr().out
    demo.main()
    assert capsys.readouterr().out == first
    assert "power iteration: lambda_max" in first
