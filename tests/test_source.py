"""Static checks on the source tree: no unused imports, and every
function the benchmark traces by name still exists."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "opcal").glob("*.py"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # __init__.py is exempt: its imports are the package's re-exports
    assert _unused_imports(ast.parse(path.read_text())) == []


def _per_layer_metrics():
    tree = ast.parse((ROOT / "perfbench" / "metrics.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "PER_LAYER":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/metrics.py defines no PER_LAYER")


def test_benchmarked_functions_exist():
    for metric in _per_layer_metrics():
        name, _, suffix = metric.rpartition(".")
        if suffix == "self_s":  # a layer total, not a function
            continue
        assert suffix in ("calls", "s", "hit_ratio"), metric
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"opcal.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        assert callable(obj), name
