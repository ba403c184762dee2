"""The names the end-to-end benchmark (``perfbench/``) drives ``repro`` by.

``perfbench/tracer.py`` patches every :data:`LAYERS` target the way
``Tracer.install`` does (``cls.__dict__[attr]`` for a method, a module
attribute otherwise), and the workloads import ``repro`` names and call
a few methods on them. A deletion or rename that breaks a traced
benchmark run fails here first.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported_names():
    """``(module, name)`` for every ``from repro... import name`` and
    ``(module, None)`` for every ``import repro...`` in ``perfbench/``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "repro" or node.module.startswith("repro.")
            ):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None) for alias in node.names
                    if alias.name.partition(".")[0] == "repro"
                )
    return sorted(found, key=lambda item: (item[0], item[1] or ""))


@pytest.mark.parametrize(
    "layer", _tracer().LAYERS, ids=lambda layer: f"{layer[1]}:{layer[2]}"
)
def test_every_traced_layer_resolves(layer):
    _, module_name, path, _ = layer
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        target = getattr(module, cls_name).__dict__[attr]
    else:
        target = getattr(module, path)
    assert callable(target)


@pytest.mark.parametrize(
    "module_name,name", _imported_names(),
    ids=lambda value: str(value),
)
def test_every_imported_name_resolves(module_name, name):
    module = importlib.import_module(module_name)
    if name is not None:
        assert hasattr(module, name), f"{module_name} has no {name}"


def test_imports_were_found():
    assert ("repro.explore", "evaluate_design_points") in _imported_names()


def test_called_signatures_and_methods():
    """The calls the workloads make on those names."""
    from repro.explore import Evaluator, KernelSummary, evaluate_design_points
    from repro.explore.space import DesignSpace
    from repro.serve import Client

    inspect.signature(evaluate_design_points).bind(
        object(), [], None, "compiled"
    )
    for cls, methods in (
        (Evaluator, ("canonicalize", "canonical_key", "evaluate")),
        (KernelSummary, ("from_analysis",)),
        (DesignSpace, ("dimension", "grid_points", "grid_size", "sample")),
        (Client, ("evaluate", "probe")),
    ):
        for method in methods:
            assert callable(getattr(cls, method)), f"{cls.__name__}.{method}"
