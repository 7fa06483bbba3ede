"""Which statements of ``staleness_lab`` no workload, criterion, demo or command runs.

    python tools/traffic.py

Run from anywhere; it takes about 20 s.  A ``sys.settrace`` line tracer on
the package's own frames records every line that runs while this script
drives, all in one process:

- every operation of the benchmark's ``ThresholdSweep`` and ``Simulate``
  workloads at full size for seed 1 (imported read-only from
  ``perfbench/workloads.py``);
- ``acceptance.run_criteria`` for every criterion but ``determinism``,
  which runs the command line in a subprocess that the tracer cannot see;
- the six demos;
- one ``cli.main`` call per command: ``threshold --svg``, ``roots --json``,
  ``simulate --seed ... --out``, ``escape-curve``, ``ps --workers``,
  ``ps --pmf``, ``plot`` and ``verify --only``, and one more ``simulate``
  that replays the first one's manifest through ``--config``.

Demos and commands write into a temporary directory.  Then it prints, by
module, every statement inside a function that never ran: a compound
statement none of whose lines ran is printed once, without its body.
Raises are counted apart, since most are input checks.  Only the standard
library and numpy are used, and pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "staleness_lab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from staleness_lab import acceptance, cli  # noqa: E402
from workloads import OP_FAILURES, Simulate, ThresholdSweep  # noqa: E402

SEED = 1


def _commands(out: Path) -> list[list[str]]:
    curve = out / "curve.csv"
    return [
        ["threshold", "--a", "1", "--tau", "0..16", "--out", str(curve),
         "--svg", str(out / "curve.svg")],
        ["roots", "--a", "1", "--eta", "0.1", "--tau", "8", "--json"],
        ["simulate", "--a", "1", "--tau", "8", "--eta", "0.1", "--seed", "3",
         "--out", str(out / "sim")],
        ["simulate", "--config", str(out / "sim" / "manifest.json"), "--out", str(out / "replay")],
        ["escape-curve", "--a", "1", "--tau", "32", "--eta-range", "0.02:0.08:25",
         "--out", str(out / "escape.csv")],
        ["ps", "--workers", "4", "--a", "1", "--eta", "0.1", "--out", str(out / "ps_rr")],
        ["ps", "--pmf", "uniform:1,8", "--a", "1", "--eta", "0.01", "--steps", "5000",
         "--out", str(out / "ps_pmf")],
        ["plot", str(curve), str(out / "plot.svg")],
        ["verify", "--only", "taylor-accuracy,exact-threshold", "--out", str(out / "verify")],
    ]


def drive(out: Path) -> None:
    """Everything the trace covers, its printed output thrown away."""
    for workload in (ThresholdSweep(SEED, "full"), Simulate(SEED, "full")):
        for op in workload.ops:
            with contextlib.suppress(*OP_FAILURES):
                op.call()
    names = [name for name, _, _ in acceptance.CRITERIA if name != "determinism"]
    for name, ok, detail in acceptance.run_criteria(names, out / "criteria"):
        if not ok:
            print(f"criterion {name} failed: {detail}", file=sys.stderr)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        os.chdir(cwd)
    for argv in _commands(out):
        code = cli.main(argv)
        if code != 0:
            print(f"{' '.join(argv[:1])} exited {code}", file=sys.stderr)


def trace(run) -> set[tuple[str, int]]:
    """The ``(file, line)`` pairs of the package that ran during ``run()``."""
    prefix = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def _bodies(node):
    """The statement lists a compound statement holds."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, [])
    for handler in getattr(node, "handlers", []):
        yield handler.body
    for case in getattr(node, "cases", []):
        yield case.body


def never_ran(tree: ast.Module, ran: set[int]) -> list[ast.stmt]:
    """Statements inside functions none of whose lines ran, outermost only.

    Module and class bodies run at import, before the trace starts, so only
    function bodies are judged; a docstring, ``nonlocal`` or ``global``
    runs no line and is skipped.
    """
    missed = []

    def walk(stmts, in_function):
        for i, node in enumerate(stmts):
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            no_code = isinstance(node, (ast.Nonlocal, ast.Global)) or (
                i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))
            if in_function and not no_code and ran.isdisjoint(
                    range(node.lineno, node.end_lineno + 1)):
                missed.append(node)
                continue
            for body in _bodies(node):
                walk(body, in_function or is_def)

    walk(tree.body, False)
    return missed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        seen = trace(lambda: drive(Path(tmp)))
    total = raises = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = {line for file, line in seen if file == str(path)}
        missed = never_ran(ast.parse(source), ran)
        if not missed:
            continue
        print(f"{path.name}: {len(missed)} statements never ran")
        for node in missed:
            if isinstance(node, ast.Raise):
                raises += 1
            span = (f"{node.lineno}" if node.end_lineno == node.lineno
                    else f"{node.lineno}-{node.end_lineno}")
            print(f"  {span:>9}  {lines[node.lineno - 1].strip()}")
        total += len(missed)
    print(f"{total} statements never ran, {raises} of them raises")
    return 0


if __name__ == "__main__":
    sys.exit(main())
