"""The demos print the same thing on every run."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sharpness_scaling_output_is_reproducible(capsys):
    demo = _load("sharpness_scaling")
    demo.main()
    first = capsys.readouterr().out
    demo.main()
    assert capsys.readouterr().out == first
    assert "power iteration: lambda_max" in first
