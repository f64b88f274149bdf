"""Static checks on the source tree: no unused imports, every public
function and every private module-level helper has a caller outside
the tests, and every function the benchmark traces by name still
exists."""

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


def test_every_cutoff_is_named_once():
    # a small literal outside tolerances.py is a cutoff with no name
    literals = [
        (path.name, node.lineno, node.value)
        for path in MODULES
        if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and type(node.value) in (float, complex)
        and 0 < abs(node.value) <= 1e-6
    ]
    assert literals == []


# Public names with no caller in the library, one reason each.
NO_LIBRARY_CALLER = {
    "core.zero_map": "an exported object of the calculus",
    "faithful.sigma": "the involution on effects, which ROADMAP item 2 puts to use",
    "gns.scalar_product": "the paper's scalar product; a check for it waits until perfbench's 39/22 check counts move (ROADMAP item 1)",
}


def _public_defs(tree):
    """(qualified name, node) of each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _referenced_names(tree, skip):
    """Every name and attribute read in tree, outside the node skip."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _private_helpers(tree):
    """(name, node) of each private module-level function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            if not node.name.startswith("__"):  # dunders are called by Python
                yield node.name, node


def _uncalled(defs):
    """Qualified names of the definitions defs(tree) yields in
    src/opcal that no library, perfbench or script module reads; the
    tests do not count, so an API only they call is test-only."""
    callers = [p for p in MODULES if p.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in callers}
    uncalled = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for qualname, node in defs(trees[path]):
            if not any(node.name in _referenced_names(t, node) for t in trees.values()):
                uncalled.add(f"{path.stem}.{qualname}")
    return uncalled


def test_public_functions_have_a_library_caller():
    assert _uncalled(_public_defs) == set(NO_LIBRARY_CALLER)


def test_private_helpers_have_a_library_caller():
    assert _uncalled(_private_helpers) == set()


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
