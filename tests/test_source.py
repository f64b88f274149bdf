"""Checks on the source tree: no unused imports in the package, the
tests or the scripts, every function runs in some report, every
defaulted parameter of a function that runs is set to another value in
some report, every function the benchmark traces by name still exists,
and each decision that one place owns is made only there: the table
ONE_PLACE holds one row per such rule."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from reference import defined_functions
from verify_all import isotropic_phi

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "opcal").glob("*.py"))
# __init__.py is left out: its imports are the package's re-exports
LIBRARY = [p for p in MODULES if p.name != "__init__.py"]


def _unused_imports(tree):
    """(line, name) of each import of a name that no code reads, and of
    each import of a name that an earlier import of the file binds."""
    imports = sorted(
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    first = {name: line for line, name in reversed(imports)}
    return [(line, name) for line, name in imports if name not in used or line != first[name]]


@pytest.mark.parametrize(
    "path",
    LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_a_second_import_of_a_name_is_reported():
    source = "import numpy as np\nfrom os import sep\n\n\ndef f():\n    import numpy as np\n    return np, sep\n"
    assert _unused_imports(ast.parse(source)) == [(6, "np")]


# Functions that run in no report, one reason each.
NOT_RUN = {
    "faithful.sigma": "the involution on effects, which ROADMAP item 2 puts to use",
    "gns.scalar_product": "the paper's scalar product; a check for it waits until perfbench's 39/22 check counts move (ROADMAP item 1)",
    "core.Effect.is_physical": "the cone test of faithful.sigma, its only caller",
}


# Runs in a fresh interpreter with a profile hook installed before opcal
# is imported, so functions that run only at import are seen too.  It
# writes to argv[2] the (file, qualified name) of every function called,
# and the (file, qualified name, parameter) of each defaulted parameter
# of those functions, and of those a call set to another value.  The
# defaults are those of the function the qualified name names in the
# frame's module; a nested function has none there.
_RECORD_CALLS = """
import contextlib, io, json, sys
from dataclasses import replace

src, out, theory = sys.argv[1:]
called, defaulted, given = set(), set(), set()
params = {}  # code object -> ((parameter, default), ...)


def defaults(frame):
    code = frame.f_code
    head, *rest = code.co_qualname.split(".")
    fn = frame.f_globals.get(head)
    for name in rest:
        fn = getattr(fn, name, None)
    fn = getattr(fn, "__wrapped__", fn)  # an lru_cache
    if getattr(fn, "__code__", None) is not code:
        return ()
    values = fn.__defaults__ or ()
    positional = code.co_varnames[code.co_argcount - len(values) : code.co_argcount]
    return (*zip(positional, values), *(fn.__kwdefaults__ or {}).items())


def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        key = (code.co_filename, code.co_qualname)
        called.add(key)
        if code not in params:
            params[code] = defaults(frame)
            defaulted.update((*key, name) for name, _ in params[code])
        for name, default in params[code]:
            value = frame.f_locals[name]
            if value is not default and not (type(value) is type(default) and value == default):
                given.add((*key, name))


sys.setprofile(hook)
import verify_all
from opcal import cli

for _, spec in verify_all.CONFIGS:
    report = cli.run_suite(replace(spec, seed=1), "all")
    cli.parse_report(cli.emit_report(report, "structured"))
expect_fail = (f"--expect-fail={name}" for name in verify_all.CLASSICAL_EXPECT_FAIL)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--theory", theory])
    cli.main(["--backend", "classical", "--d", "3", *expect_fail])
sys.setprofile(None)
with open(out, "w") as fh:
    json.dump({"called": sorted(called), "defaulted": sorted(defaulted), "given": sorted(given)}, fh)
"""


@pytest.fixture(scope="module")
def report_calls(tmp_path_factory):
    """What _RECORD_CALLS records over the verify_all configurations at
    seed 1, through run_suite, emit_report and parse_report, and two
    command-line runs: one on a theory file with a phi line, and one
    classical with the negative controls of verify_all as --expect-fail."""
    src = ROOT / "src" / "opcal"
    tmp = tmp_path_factory.mktemp("report_calls")
    phi = isotropic_phi(2, 0.6)
    theory = tmp / "iso.theory"
    theory.write_text("backend = quantum\nd = 2\nphi = " + " ".join(map(str, phi.ravel())) + "\n")
    out = tmp / "called.json"
    done = subprocess.run(
        [sys.executable, "-c", _RECORD_CALLS, str(src), str(out), str(theory)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src.parent), str(ROOT / "scripts")])},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return {key: {tuple(x) for x in rows} for key, rows in json.loads(out.read_text()).items()}


def _qualified(rows):
    """module.qualname(.parameter) of each recorded row."""
    return {".".join((pathlib.Path(f).stem, *rest)) for f, *rest in rows}


def test_every_function_runs_in_some_report(report_calls):
    # public, private and nested functions alike: a function that no
    # report runs is dead code or an API that only the tests reach
    defined = set().union(*(defined_functions(p) for p in MODULES))
    assert _qualified(defined - report_calls["called"]) == set(NOT_RUN)


def test_every_keyword_is_set_in_some_report(report_calls):
    # a defaulted parameter that no call sets to another value is an
    # option that only the tests reach
    assert _qualified(report_calls["defaulted"] - report_calls["given"]) == set()


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


def _dotted(node):
    """The callee of a call as written (np.linalg.svd), or ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _sites(tree, module, kind_of):
    """Each kind that kind_of(node) gives a node of tree mapped to the
    qualified names of the functions (the module's name at top level)
    whose code holds such a node."""
    sites = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            kind = kind_of(child)
            if kind:
                sites.setdefault(kind, set()).add(".".join((module, *scope)))
            visit(child, scope)

    visit(tree, ())
    return sites


def _named(calls=(), loads=(), attrs=()):
    """A predicate whose kind is the name it finds: a callee's last name
    in calls, however it was imported, a loaded name in loads, or a
    loaded attribute in attrs."""

    def kind_of(node):
        if isinstance(node, ast.Call):
            name = _dotted(node.func).rpartition(".")[2]
            return name if name in calls else None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return node.id if node.id in loads else None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            return node.attr if node.attr in attrs else None
        return None

    return kind_of


def _rank_kind(node):
    """Where a module decides a rank or cuts a pseudo-inverse itself: a
    rank call, a pseudo-inverse or least-squares call (kind "pinv"), or
    a read of the rank or the pseudo-inverse cutoff.  Any call named
    svd, pinv or lstsq counts, however it was imported."""
    if isinstance(node, ast.Call):
        callee = _dotted(node.func).rpartition(".")[2]
        if callee in ("svd", "singular_value_rank"):
            return callee
        if callee in ("pinv", "lstsq"):
            return "pinv"
        if _dotted(node.func).endswith("linalg.matrix_rank"):
            return "linalg.matrix_rank"
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id if node.id in ("RANK_RCOND", "PINV_RCOND") else None
    elif isinstance(node, ast.alias) and node.name in ("RANK_RCOND", "PINV_RCOND", "svd", "pinv"):
        return "pinv" if node.name == "pinv" else node.name
    return None


def _view_kind(node):
    """A reinterpretation of array memory as another dtype: a `.view`
    call given a dtype."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "view":
        return "view" if node.args or node.keywords else None
    return None


def _joint_layout_kind(node):
    """Where a module splits a matrix into four indices itself: a
    reshape whose last four sizes (as arguments or in one tuple) are one
    expression, an interleaved
    [..., :, None, :, None] broadcast, or an einsum with a four-index
    output (explicit or implicit)."""
    if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] == "reshape":
        args = node.args[-1].elts if node.args and isinstance(node.args[-1], ast.Tuple) else node.args
        sizes = [ast.dump(a) for a in args[-4:] if not isinstance(a, ast.Starred)]
        return "reshape" if len(sizes) == 4 and len(set(sizes)) == 1 else None
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
        marks = "".join(
            ":" if isinstance(e, ast.Slice) and e.lower is e.upper is e.step is None
            else "n" if isinstance(e, ast.Constant) and e.value is None
            else "."
            for e in node.slice.elts
        )
        return "broadcast" if ":n:n" in marks or "n:n:" in marks else None
    if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] == "einsum":
        spec = node.args[0].value.replace("...", "") if isinstance(node.args[0], ast.Constant) else ""
        inputs, arrow, out = spec.partition("->")
        if not arrow:
            out = [c for c in inputs if c.isalpha() and inputs.count(c) == 1]
        return "einsum" if len(out) >= 4 else None
    return None


def _matrix_field_kind(node):
    """A `matrix` or `choi` field: declared with an annotation, or set
    on an instance."""
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        name = node.target.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        name = node.attr
    else:
        return None
    return name if name in ("matrix", "choi") else None


def _cutoff_kind(node):
    """A float or complex literal in (0, 1e-6]: a cutoff."""
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return "cutoff" if 0 < abs(node.value) <= 1e-6 else None
    return None


# The decisions that one place makes, one row each: rule -> (kind_of,
# the exact _sites of kind_of over src/opcal, a synthetic module m, the
# exact _sites of kind_of in m).  A new rule is one more row.
ONE_PLACE = {
    # every rank goes through basis.matrix_rank and its certificate; the
    # calibration's one SVD of the form F also gives the dynamical rank,
    # every pseudo-inverse of F or R and the spectral split, the GNS
    # norm needs sigma_max, and the experiment sampler splits a Choi
    # factor of rank three.  The only other least-squares solve is the
    # expansion over an informationally complete observable.
    "ranks": (
        _rank_kind,
        {
            "svd": {"basis.matrix_rank", "faithful.Calibration.__init__", "gns.gns_norm", "quantum.random_experiment"},
            "singular_value_rank": {"basis.matrix_rank", "faithful.Calibration.__init__"},
            "RANK_RCOND": {"basis", "basis.singular_value_rank"},
            "pinv": {"faithful.Calibration.__init__", "infodim.ic_expand"},
            "PINV_RCOND": {"faithful", "faithful.Calibration.__init__"},
        },
        "from numpy.linalg import svd, pinv\n"
        "from .tolerances import PINV_RCOND, RANK_RCOND\n"
        "class A:\n"
        "    def f(self, m):\n"
        "        return np.linalg.matrix_rank(m, RANK_RCOND), svd(m), la.svd(m)\n"
        "    def g(self, m):\n"
        "        return np.linalg.pinv(m, rcond=PINV_RCOND), la.lstsq(m, m), self.pinv(m)\n"
        "def h(m):\n"
        "    return pinv(m), np.linalg.solve(m, m), m.pinv\n",
        {
            "svd": {"m", "m.A.f"},
            "RANK_RCOND": {"m", "m.A.f"},
            "linalg.matrix_rank": {"m.A.f"},
            "pinv": {"m", "m.A.g", "m.h"},
            "PINV_RCOND": {"m", "m.A.g"},
        },
    ),
    # gns_space whitens the Gram matrix where it builds it, so the GNS
    # maps work in orthonormal coordinates: no solve is left, and only
    # the scalar product between effects reads the Gram matrix again
    "gns_metric": (
        _named(calls=("solve",), attrs=("gram",)),
        {"gram": {"gns.scalar_product"}},
        "from numpy.linalg import solve\n"
        "def f(space, m):\n"
        "    return np.linalg.solve(space.gram, m), solve(m, m)\n"
        "def g(space, gram):\n"
        "    space.gram = gram\n"
        "    return space.gram_abs, la.solve(m, m), solve\n",
        {"solve": {"m.f", "m.g"}, "gram": {"m.f"}},
    ),
    # the rank certificate and the CP certificate are the only Cholesky
    # factorizations, and CP_TOL is read only by is_psd
    "positivity": (
        _named(calls=("cholesky", "is_psd"), loads=("CP_TOL",)),
        {
            "cholesky": {"basis._certifies_full_rank", "channels.is_psd"},
            "is_psd": {"core.trans_norm", "faithful.prepare_witness"},
            "CP_TOL": {"channels.is_psd"},
        },
        "from .tolerances import CP_TOL\n"
        "def f(m):\n"
        "    return np.linalg.cholesky(m), CP_TOL\n"
        "def g(m):\n"
        "    return ch.is_psd(m), la.cholesky(m)\n",
        {"cholesky": {"m.f", "m.g"}, "CP_TOL": {"m.f"}, "is_psd": {"m.g"}},
    ),
    # reading a complex matrix's memory as real numbers, or real rows as
    # complex ones, fixes the coordinate layout, which is basis.py's alone
    "coordinates": (
        _view_kind,
        {"view": {"basis.from_coords", "basis.packed_product_coords", "basis.projector_coords", "basis.to_coords"}},
        "def f(m):\n"
        "    return m.reshape(-1).view(np.float64), m.view()\n"
        "def g(m, out):\n"
        "    np.multiply(m, m, out=out.view(dtype=complex))\n"
        "def h(m, view):\n"
        "    return view(m), m.real, m.copy()\n",
        {"view": {"m.f", "m.g"}},
    ),
    # channels alone splits a d^2 x d^2 matrix into its four d-indices:
    # its reindexings (realign, the Choi-superoperator exchange, swap),
    # partial_trace and kron; every other module goes through those
    "joint_layout": (
        _joint_layout_kind,
        {"reshape": {"channels._reindex", "channels.partial_trace"}, "broadcast": {"channels.kron"}},
        "def f(m, d):\n"
        "    return m.reshape(*m.shape[:-2], d, d, d, d), m.reshape(-1, 1, d, d), m.reshape(n, d * d)\n"
        "def k(m, d):\n"
        "    return np.reshape(m, (d, d, d, d)), m.reshape((-1, d, d))\n"
        "def g(a, b, d):\n"
        "    return a[..., :, None, :, None] * b, np.eye(d)[:, None, :], a[..., None, None]\n"
        "def h(m, e):\n"
        "    return np.einsum('...ac,bd->...abcd', m, e), np.einsum('ac,bd', m, e), np.einsum('kij->kji', m)\n",
        {"reshape": {"m.f", "m.k"}, "broadcast": {"m.g"}, "einsum": {"m.h"}},
    ),
    # a map's superoperator is Transformation.super; every other module
    # reads it there, so core alone converts an encoding into the other
    "choi_to_super": (
        _named(calls=("choi_to_super",)),
        {"choi_to_super": {"core.Transformation.super"}},
        "from .channels import choi_to_super\n"
        "class T:\n"
        "    @property\n"
        "    def super(self):\n"
        "        return ch.choi_to_super(self.choi)\n"
        "def f(t):\n"
        "    return choi_to_super(t.choi) @ t.super, ch.super_to_choi(t.super)\n"
        "def g(t):\n"
        "    return t.super, ch.choi_to_super\n",
        {"choi_to_super": {"m.T.super", "m.f"}},
    ),
    # a joint state is a State of quantum(d^2): a second class carrying
    # a matrix would repeat the totals, normalization and shape checks
    # of core's Weight, and could not go through pair or Observable
    "matrix_objects": (
        _matrix_field_kind,
        {"matrix": {"core.Effect", "core.Weight"}, "choi": {"core.Transformation"}},
        "class W:\n"
        "    matrix: np.ndarray\n"
        "class T:\n"
        "    def __init__(self, choi):\n"
        "        self.choi = choi\n"
        "def f(w):\n"
        "    return w.matrix\n",
        {"matrix": {"m.W"}, "choi": {"m.T.__init__"}},
    ),
    # a check's samples come from the one Generator that the runner
    # seeds for its row, and each sampler of quantum takes a seed or that
    # Generator: one built anywhere else would draw outside the row
    "generators": (
        _named(calls=("default_rng",)),
        {
            "default_rng": {
                "cli._run_check",
                "quantum.random_state", "quantum.random_effect", "quantum.random_generalized_effect",
                "quantum.random_cp", "quantum.random_experiment", "quantum.random_kraus_contraction",
                "quantum.random_classical_state", "quantum.random_classical_effect", "quantum.random_classical_map",
            }
        },
        "from numpy.random import default_rng\n"
        "def _check_a(ctx, tol, t):\n"
        "    return np.random.default_rng(0).standard_normal(3), t\n"
        "def f(seed):\n"
        "    return default_rng(seed), np.random.Generator, rng.uniform()\n",
        {"default_rng": {"m._check_a", "m.f"}},
    ),
    # every cutoff a construction makes is a named constant of
    # tolerances.py, so a small literal anywhere else has no name
    "cutoffs": (
        _cutoff_kind,
        {"cutoff": {"tolerances"}},
        "TOL = 1e-9\n"
        "def f(x):\n"
        "    return abs(x) < 1e-12, 2.0 * x, x + 1e-3j, 0.0\n",
        {"cutoff": {"m", "m.f"}},
    ),
}


@pytest.mark.parametrize("rule", ONE_PLACE)
def test_one_place(rule):
    kind_of, expected, source, found = ONE_PLACE[rule]
    sites = {}
    for path in MODULES:
        for kind, where in _sites(ast.parse(path.read_text()), path.stem, kind_of).items():
            sites.setdefault(kind, set()).update(where)
    assert sites == expected
    assert _sites(ast.parse(source), "m", kind_of) == found
