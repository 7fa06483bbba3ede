"""The functions the per-layer tracer wraps still exist where it looks.

``perfbench/tracer.py``'s ``LayerTrace.install`` finds each traced function
as a module attribute (``roots.all_roots``, ``getattr(charpoly, name)``).
A refactor that drops or renames one breaks the benchmark's layer metrics
without failing anything here, so this reads the names from the tracer's
source and checks each is a callable bound in its module.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {"charpoly", "dynamics", "pssim", "roots", "stability"}


def _traced_names() -> set[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text())
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    names = set()
    for node in ast.walk(install):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            names.add((node.value.id, node.attr))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # getattr(module, n) for n in (...): the names are the loop's strings
            for call in ast.walk(node.elt):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                        and getattr(call.args[0], "id", None) in MODULES):
                    names |= {(call.args[0].id, c.value) for c in ast.walk(node.generators[0].iter)
                              if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


TRACED = sorted(_traced_names())


def test_the_tracer_source_names_every_traced_layer():
    assert set(TRACED) >= {
        ("charpoly", "char_poly"), ("charpoly", "char_poly_plain"),
        ("charpoly", "char_poly_momentum"), ("charpoly", "char_poly_shifted"),
        ("charpoly", "char_poly_stochastic"), ("roots", "all_roots"),
        ("stability", "numeric_threshold"), ("dynamics", "simulate_expectation"),
        ("dynamics", "simulate_sgd"), ("dynamics", "empirical_threshold"),
        ("pssim", "run_ps"), ("pssim", "ps_empirical_threshold"),
    }


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_is_bound_in_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"staleness_lab.{module}"), name, None))
