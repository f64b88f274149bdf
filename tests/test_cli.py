"""Theory files, suite execution, report formats, exit codes, and what
a run calls and draws."""

import codecs
import fnmatch
import importlib.util
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opcal
from opcal import checks, cli, core, gns, infodim
from opcal import quantum as qm
from opcal.errors import (
    NotFaithful,
    ParseError,
    UnknownSuite,
    ValidationError,
    WitnessFailed,
)
from reference import all_pass, defined_functions, joint, joint_spec, measured, record
from verify_all import CLASSICAL_EXPECT_FAIL, isotropic


def _write(tmp_path, text, name="t.theory"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# the boundary: what a theory file and the command line answer


def test_parse_kv_basics():
    kv = cli.parse_kv("a = 1\n# comment\n\nb = two words\n")
    assert kv == [(1, "a", "1"), (4, "b", "two words")]


THEORY = "<theory>"  # the theory file's path, in argv, in messages and on stderr
ON_FILE, CORE = ["--theory", THEORY], ["--suite", "core"]
RAN = "elapsed: _s\n"  # the stderr of a run that printed its report, its wall time blanked
QUANTUM_D2 = ("backend = quantum", "d = 2")
CLASSICAL_D3 = b"backend = classical\nd = 3\nseed = 7\n"
OMEGA = qm.max_entangled(2).matrix.real  # |Omega><Omega| at d = 2
SUITE_CHOICES = "('core', 'norms', 'infodim', 'table1', 'faithful', 'gns', 'born', 'all')"
TABLE1 = ["--suite", "table1", "--backend", "classical"]
CONTROLS = [arg for name in CLASSICAL_EXPECT_FAIL for arg in ("--expect-fail", name)]


def _file(*lines):
    """Theory-file bytes, one line each."""
    return "".join(f"{line}\n" for line in lines).encode()


def _phi(m, backend="quantum"):
    """The theory file whose phi is the real matrix m, each entry written "re+0j"."""
    return _file(f"backend = {backend}", f"d = {math.isqrt(len(m))}", "phi = " + " ".join(f"{x!r}+0j" for x in np.ravel(m).tolist()))


def _refused(error, message):
    """The cells of an input refused with error(message): exit 2, no report, one stderr line."""
    return 2, "", f"error: {message}\n", error(message)


# One row per input: its id, the theory file's bytes (None: there is no
# file at THEORY), argv, the exit code, stdout (empty, or a text that it
# holds), the exact stderr, and what the library answers for the same
# input: the exception that load_theory, validate_spec or run_suite
# raises, or the spec (the report, where it holds no check).
BOUNDARY = [
    # the key/value syntax of a theory file
    ("defaults", _file(*QUANTUM_D2), [*ON_FILE, *CORE], 0, "(seed 0, ", RAN, cli.TheorySpec()),
    ("not-a-pair", _file("a = 1", "not a pair"), ON_FILE, *_refused(ParseError, "line 2: expected 'key = value', got 'not a pair'")),
    ("nonsense", _file("nonsense"), ON_FILE, *_refused(ParseError, "line 1: expected 'key = value', got 'nonsense'")),
    ("empty-key", _file("= 1"), ON_FILE, *_refused(ParseError, "line 1: empty key")),
    # a spec sets no tolerance (a check's is its row of checks.CHECKS),
    # so tol is an unknown field, as --tol is an unrecognized argument
    ("unknown-field", _file(*QUANTUM_D2, "tol = 1"), ON_FILE, *_refused(ParseError, "line 3: unknown field 'tol'")),
    # a repeated key is an error, not a silent override by the last line
    ("repeated-key", _file(*QUANTUM_D2, "# d again", "d = 3"), ON_FILE, *_refused(ParseError, "line 4: field 'd' repeats line 2")),
    ("bad-value", _file("backend = quantum", "d = two"), ON_FILE,
     *_refused(ParseError, "line 2: field d: invalid literal for int() with base 10: 'two'")),
    ("missing-file", None, ON_FILE, *_refused(FileNotFoundError, f"[Errno 2] No such file or directory: '{THEORY}'")),
    # a leading byte-order mark is dropped; a byte that is not UTF-8 is
    # named by its offset in the file, the mark's three bytes included
    *((f"{mark}classical-d3", bom + CLASSICAL_D3, [*ON_FILE, *CORE], 0, "(seed 7, ", RAN, cli.TheorySpec("classical", 3, 7))
      for mark, bom in (("", b""), ("marked-", codecs.BOM_UTF8))),
    ("not-utf8", b"d = 2\n# caf\xe9\nseed = 1\n", ON_FILE, *_refused(ParseError, f"{THEORY}: byte 11 is not valid UTF-8")),
    ("marked-not-utf8", codecs.BOM_UTF8 + b"d = 2\n# caf\xe9\n", ON_FILE, *_refused(ParseError, f"{THEORY}: byte 14 is not valid UTF-8")),
    # the override phi: d^2 x d^2 complex entries, Hermitian, PSD and of
    # unit trace, on the quantum backend only (no classical check reads it)
    ("phi", _phi(OMEGA), [*ON_FILE, *CORE], 0, "result: 4/4", RAN, cli.TheorySpec(phi_override=OMEGA)),
    ("phi-product", _phi(np.eye(4) / 4), [*ON_FILE, *CORE], 0, "result: 4/4", RAN, cli.TheorySpec(phi_override=np.eye(4) / 4)),
    ("phi-classical", _phi(OMEGA, "classical"), ON_FILE, *_refused(ValidationError, "phi applies to the quantum backend only")),
    ("phi-then-classical", _phi(OMEGA), [*ON_FILE, "--backend", "classical"],
     *_refused(ValidationError, "phi applies to the quantum backend only")),
    ("phi-malformed", _file("phi = 1 x"), ON_FILE, *_refused(ParseError, "line 1: field phi: complex() arg is a malformed string")),
    ("phi-not-square", _file("phi = 1 0 0"), ON_FILE, *_refused(ParseError, "line 1: field phi: 3 entries do not form a square matrix")),
    ("phi-3x3", _file("phi = 1 0 0  0 0 0  0 0 0"), ON_FILE, *_refused(ValidationError, "override matrix must be 4 x 4, got (3, 3)")),
    *((f"phi-{x}", _phi(OMEGA + np.diag([0, x, 0, 0])), ON_FILE, *_refused(ValidationError, "override matrix has a non-finite entry"))
      for x in (np.nan, np.inf)),
    ("phi-not-hermitian", _phi(OMEGA + 0.1 * np.eye(4, k=1)), ON_FILE, *_refused(ValidationError, "override matrix is not Hermitian")),
    ("phi-not-psd", _phi(np.diag([0.6, 0.6, 0.3, -0.5])), ON_FILE,
     *_refused(ValidationError, "override matrix is not PSD: eigenvalue -5.000000e-01")),
    ("phi-trace-2", _phi(np.eye(4) / 2), ON_FILE, *_refused(ValidationError, "override matrix trace (2+0j) is not 1")),
    # finite, but its trace and top eigenvalue overflow: one error line,
    # and no numpy warning
    ("phi-float64-limit", _phi(1e308 * np.outer([1, 0, 0, 1], [1, 0, 0, 1])), ON_FILE,
     *_refused(ValidationError, "override matrix trace (inf+0j) is not 1")),
    # or to NaN, inf minus inf in numpy's pairwise sum of the diagonal; validate_spec names every error
    ("phi-trace-nan", _phi(np.diag([1e308, 1e308, -1e308, -1e308, 0, 0, 0, 0, 0])), ON_FILE, *_refused(
        ValidationError, "override matrix is not PSD: eigenvalue -1.000000e+308; override matrix trace (nan+0j) is not 1")),
    # the scalar fields; argparse refuses a backend that it does not list
    # before validate_spec sees it
    ("backend-foo", _file("backend = foo"), ON_FILE, *_refused(ValidationError, "backend must be quantum or classical, got 'foo'")),
    ("backend-foo-argv", None, ["--backend", "foo"], 2, "", cli.build_parser().format_usage()
     + "opcal: error: argument --backend: invalid choice: 'foo' (choose from 'quantum', 'classical')\n",
     ValidationError("backend must be quantum or classical, got 'foo'")),
    ("d1", _file("backend = quantum", "d = 1"), ON_FILE, *_refused(ValidationError, "d must be >= 2, got 1")),
    # the cap keeps the d^8-sized arrays of cli.MAX_D (1.6 GB at d=10)
    # out of a run.  A d=6 `all` report would fit: with the cap raised it
    # passes 39/39 in 0.55 s at 96 MB peak resident (one BLAS thread).
    # Lifting the cap is ROADMAP item 19.
    *((f"caps_d-{d}", None, ["--d", str(d)], *_refused(ValidationError, f"d must be <= 5, got {d} (memory grows as d^8)"))
      for d in (6, 10)),
    ("caps_d-5-runs", None, ["--d", "5", *CORE], 0, "on quantum d=5 ", RAN, cli.TheorySpec(d=5)),
    # the run hashes the seed into every check's sub-seed (check_seed)
    *((f"seed-{seed}", None, [*CORE, "--seed", str(seed)], *_refused(ValidationError, f"seed must be in [0, 2**64), got {seed}"))
      for seed in (-1, 2**64)),
    *((f"seed-{seed}", None, [*CORE, "--seed", str(seed)], 0, f"(seed {seed}, ", RAN, cli.TheorySpec(seed=seed))
      for seed in (0, 2**64 - 1)),
    ("tol-argv", None, ["--tol", "1", *CORE], 2, "", cli.build_parser().format_usage()
     + "opcal: error: unrecognized arguments: --tol 1\n", cli.TheorySpec()),
    # suites, negative controls and exit codes
    ("all-pass", None, [*CORE, "--seed", "1"], 0, "PASS", RAN, cli.TheorySpec(seed=1)),
    ("structured", _file("backend = classical", "d = 3", "seed = 5"), [*CORE, *ON_FILE, "--format", "structured"], 0,
     "backend = classical\nd = 3\nseed = 5\n", RAN, cli.TheorySpec("classical", 3, 5)),
    ("failing-suite", None, TABLE1, 1, "FAIL  table1.D34'", RAN, cli.TheorySpec("classical")),
    ("expect-fail", None, [*TABLE1, *CONTROLS], 0, "result: 4/8", RAN, cli.TheorySpec("classical")),
    ("unknown-expect-fail", None, [*CORE, "--expect-fail", "core.conditionin"], 2, "",
     "error: unknown check 'core.conditionin'\n", cli.TheorySpec()),
    # a check outside the selected suite or backend is accepted
    ("expect-fail-elsewhere", None, [*CORE, "--backend", "classical", "--expect-fail", "gns.cstar"], 0, "result: 4/4", RAN,
     cli.TheorySpec("classical")),
    ("unknown-suite", None, ["--suite", "nope"], *_refused(UnknownSuite, f"unknown suite 'nope'; choose from {SUITE_CHOICES}")),
    # a report that holds no check passes vacuously, so main refuses it
    *((f"empty-suite-d{d}", None, ["--suite", "gns", "--backend", "classical", *argv], 2, "",
       "error: suite gns has no check for the classical backend\n", cli.Report("gns", "classical", d, 0, opcal.__version__))
      for d, argv in ((2, []), (3, ["--d", "3"]))),
]


def _library(argv):
    """What the library answers for argv: load_theory on the file, then
    validate_spec with the fields set on the command line, then run_suite;
    the spec, or the report where it holds no check."""
    opts = dict(zip(argv[::2], argv[1::2]))
    spec = cli.load_theory(opts["--theory"]) if "--theory" in opts else cli.TheorySpec()
    fields = {key: kind(opts[f"--{key}"]) for key, kind in cli.SCALAR_FIELDS.items() if f"--{key}" in opts}
    spec = cli.validate_spec(replace(spec, **fields))
    report = cli.run_suite(spec, opts.get("--suite", "all"))
    return spec if report.checks else report


def _answer(outcome, path=THEORY):
    """One comparable value: an exception's class and message, a spec with phi as a list, a passing report."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome).replace(path, THEORY)
    if isinstance(outcome, cli.TheorySpec):
        return replace(outcome, phi_override=None), np.asarray(outcome.phi_override).tolist()
    assert outcome.all_pass()
    return outcome


@pytest.mark.parametrize("theory, argv, code, out, err, answer", [row[1:] for row in BOUNDARY], ids=[row[0] for row in BOUNDARY])
def test_boundary(tmp_path, capsys, theory, argv, code, out, err, answer):
    # the library first, then main on the same input; neither may warn
    path = tmp_path / "t.theory"
    if theory is not None:
        path.write_bytes(theory)
    argv = [str(path) if arg == THEORY else arg for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = _library(argv)
        except Exception as exc:
            got = exc
        assert _answer(got, str(path)) == _answer(answer)
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's refusal
            rc = exc.code
    stdout, stderr = capsys.readouterr()
    assert rc == code
    assert out in stdout if out else stdout == ""
    assert re.sub(r"^elapsed: \d+\.\d{3}s$", "elapsed: _s", stderr.replace(str(path), THEORY), flags=re.M) == err


def test_text_report_flags_failures():
    report = cli.run_suite(cli.TheorySpec(backend="classical", d=2), "table1")
    text = cli.emit_report(report, "text")
    assert "FAIL" in text
    assert "table1.D34'" in text


def test_main_failing_suite(capsys):
    rc = cli.main(["--suite", "table1", "--backend", "classical"])
    assert rc == 1


# ---------------------------------------------------------------------------
# suites and reports


def test_run_suite_product_override_fails_faithful():
    report = cli.run_suite(joint_spec("maximally-mixed", 2), "faithful")
    named = {c.name: c for c in report.checks}
    assert named["faithful.dynamical"].status == "fail"
    assert not report.all_pass()
    assert report.all_pass(
        expect_fail=tuple(c.name for c in report.checks if c.status != "pass")
    )


def test_check_names_are_unique():
    names = [name for name, *_ in checks.CHECKS]
    assert len(names) == len(set(names))


def test_every_check_function_is_registered_once():
    fns = [getattr(checks, n) for n in dir(checks) if n.startswith("_check_")]
    assert fns
    registered = [fn for _, _, _, _, fn, _ in checks.CHECKS]
    for fn in fns:
        assert registered.count(fn) == 1, fn.__name__


def test_suites_follow_the_table():
    assert checks.SUITES == (
        "core", "norms", "infodim", "table1", "faithful", "gns", "born"
    )


@pytest.mark.parametrize("backend, count", [("quantum", 39), ("classical", 22)])
def test_all_report_size(backend, count):
    assert len(cli.run_suite(cli.TheorySpec(backend=backend, d=2), "all").checks) == count


def test_perfbench_workloads_agree_with_their_sources(tmp_path):
    # perfbench/workloads.py imports neither numpy nor opcal, so it writes
    # down a second time the classical negative controls, the isotropic
    # state (as theory-file text) and each report's number of checks
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    source = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(source)
    source.loader.exec_module(workloads)
    assert workloads.WORKLOADS["c4-seeds"].negative_controls == CLASSICAL_EXPECT_FAIL
    for w in workloads.WORKLOADS.values():
        spec = cli.TheorySpec(backend=w.backend, d=w.d)
        assert w.checks == len(cli.run_suite(spec, "all").checks), w.name
        if w.iso_p > 0:
            # the two texts of the state differ in the last bit
            got = cli.load_theory(_write(tmp_path, workloads.theory_text(w, 1))).phi().matrix
            want = isotropic(w.d, w.iso_p).phi().matrix
            assert np.max(np.abs(got - want)) <= 1e-15, w.name


@pytest.mark.parametrize(
    "spec",
    [cli.TheorySpec(d=2), joint_spec("isotropic", 2, 0.6), cli.TheorySpec(backend="classical", d=3)],
    ids=["quantum-d2", "isotropic-d2-p0.6", "classical-d3"],
)
def test_single_suite_is_its_slice_of_all(spec):
    full = cli.run_suite(replace(spec, seed=3), "all")
    for suite in checks.SUITES:
        alone = cli.run_suite(replace(spec, seed=3), suite)
        part = [c for c in full.checks if c.name.split(".")[0] == suite]
        want = replace(full, suite=suite, checks=part)
        assert cli.emit_report(alone, "structured") == cli.emit_report(want, "structured")


def test_a_field_set_on_the_command_line_keeps_the_file_phi(tmp_path, capsys):
    # --seed validates the loaded spec again, which must not normalize phi
    # a second time: on isotropic d=2 p=0.15 that moves the report's bytes
    phi = joint("isotropic", 2, 0.15).matrix.real.reshape(-1).tolist()
    text = "backend = quantum\nd = 2\nphi = " + " ".join(f"{x!r}+0j" for x in phi)
    reports = []
    for body, argv in ((text, ["--seed", "5"]), (text + "\nseed = 5", [])):
        cli.main(["--theory", _write(tmp_path, body + "\n"), "--format", "structured", *argv])
        reports.append(capsys.readouterr().out)
    assert "seed = 5" in reports[0] and reports[0] == reports[1]


def test_parse_report_repeated_key():
    # appended lines cannot turn a passing d=2 report into a failed d=3 one
    report = cli.run_suite(cli.TheorySpec(d=2, seed=7), "core")
    text = cli.emit_report(report, "structured")
    assert report.all_pass()
    n = len(text.splitlines())
    with pytest.raises(ParseError, match=f"line {n + 1}: field 'check.0.status' repeats line 8$"):
        cli.parse_report(text + "check.0.status = fail\nd = 3\n")
    with pytest.raises(ParseError, match=f"line {n + 1}: field 'd' repeats line 3$"):
        cli.parse_report(text + "d = 3\n")


# what parse_kv and the values codec read as syntax: no report field
# holds "#" or a line break, no value key ":" or ";" either, and
# parse_kv strips each value of its surrounding whitespace
def _text(reserved):
    chars = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters=reserved)
    return st.text(chars).map(str.strip)


_FIELD_TEXT = _text("#")
_VALUE_KEY = _text("#:;").filter(bool)
_FLOATS = st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]) | st.floats()


@st.composite
def _reports(draw):
    checks = []
    for _ in range(draw(st.integers(0, 4))):
        status = draw(st.sampled_from(["pass", "fail", "error"]))
        checks.append(cli.CheckResult(
            name=draw(_FIELD_TEXT),
            detail=draw(_FIELD_TEXT),
            status=status,
            tolerance=draw(_FLOATS),
            values=draw(st.dictionaries(_VALUE_KEY, _FLOATS, max_size=4)),
            error=draw(_FIELD_TEXT) if status == "error" else "",
        ))
    return cli.Report(
        suite=draw(_FIELD_TEXT),
        backend=draw(_FIELD_TEXT),
        d=draw(st.integers(0, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        version=draw(_FIELD_TEXT),
        checks=checks,
    )


def _same_float(a, b):
    """Equal as floats, NaN equal to NaN and -0.0 told from 0.0."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


_SPECIAL = {"neg_zero": -0.0, "inf": math.inf, "neg_inf": -math.inf, "nan": math.nan, "tiny": 5e-324, "huge": 1e308}


@given(report=_reports())
@example(report=cli.Report("all", "quantum", 2, 0, "0.1.0", [
    cli.CheckResult("a.pass", "no values", "pass", 1e-9, {}),
    cli.CheckResult("a.fail", "special values", "fail", math.nan, _SPECIAL),
    cli.CheckResult("a.error", "an error", "error", -0.0, {}, "LinAlgError: SVD did not converge"),
]))
@settings(max_examples=100, deadline=None)
def test_structured_round_trip_carries_every_field(report):
    text = cli.emit_report(report, "structured")
    back = cli.parse_report(text)
    assert cli.emit_report(back, "structured") == text
    header = ("suite", "backend", "d", "seed", "version")
    assert [getattr(back, k) for k in header] == [getattr(report, k) for k in header]
    assert len(back.checks) == len(report.checks)
    for got, want in zip(back.checks, report.checks):
        assert (got.name, got.detail, got.status, got.error) == (want.name, want.detail, want.status, want.error)
        assert _same_float(got.tolerance, want.tolerance)
        assert got.values.keys() == want.values.keys()
        assert all(_same_float(got.values[k], v) for k, v in want.values.items())


@pytest.mark.parametrize("backend", core.BACKENDS)
def test_reports_hold_no_structured_syntax(backend):
    # the field table writes names, details and value keys as they are
    for name, detail, *_ in checks.CHECKS:
        assert not set(name + detail) & {"#", "\n"}, name
    report = cli.run_suite(cli.TheorySpec(backend=backend, d=2), "all")
    keys = {key for c in report.checks for key in c.values}
    assert keys and not {key for key in keys if set(key) & {":", ";", "#", "\n"}}


def test_check_seed_derivation():
    a = cli.check_seed(42, "x")
    assert a == cli.check_seed(42, "x")
    assert a != cli.check_seed(42, "y")
    assert a != cli.check_seed(43, "x")
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# what a run calls, and what it draws

# One row per run: its id, the run (a spec and a suite, which must pass
# but for the classical negative controls, or a callable that returns
# whether it passed) and the exact count of each name it watches.  A
# name is "module.qualname" of a function of src/opcal,
# "caller->function" of a numpy.linalg function that one calls, or
# "module.qualname(<repr of its first parameter>)"; a "*" matches any
# text, and such a name counts the calls of every name it matches.


def _once(name, *args):
    """name called once on each of args, and on no other."""
    return {name: len(args), **{f"{name}({arg!r})": 1 for arg in args}}


def _measures(affine, idim, effect=(), maps=()):
    """Each measurement taken once on each of its theories, and on no other."""
    return {
        **_once("infodim.affine_state_dimension", *affine),
        **_once("infodim.informational_dimension", *idim),
        **_once("infodim.effect_space_dimension", *effect),
        **_once("infodim.transformation_affine_dimension", *maps),
    }


def _systems(spec):
    """An `all` run measures each system once: d and d*d, and on the
    quantum backend the classical d of table1.classical_violation.  It
    builds the spanning states of C^d and the basis of the d x d
    matrices once each, never those of C^(d^2) or of the d^2 x d^2
    matrices, on the canonical state or on an override."""
    one, joint = core.Theory(spec.backend, spec.d), core.Theory(spec.backend, spec.d**2)
    quantum = spec.backend == "quantum"
    systems = (one, joint, *(core.classical(spec.d),) * quantum)
    return {
        **_measures(systems, systems, (one,), (one,)),
        **_once("core.spanning_states", one),
        **_once("basis.hermitian_basis", *(spec.d,) * quantum),
    }


def _table_calls(d):
    """A table measures its second system and its joint one as the
    first and the squared one, and takes no SVD, up to d = 5."""
    systems = (core.quantum(d), core.quantum(d * d))
    return {**_measures(systems, systems, systems[:1], systems[:1]), "*->svd": 0}


def _table_holds(d):
    """Whether every identity of the quantum table at d holds, and two
    IC observables are locally observable at full rank."""
    obs = infodim.ic_observable(core.quantum(d))
    table = infodim.dim_identities(d, "quantum", measured)
    return all_pass(table) and infodim.check_local_observability(obs, obs) == (True, d**4)


# One calibration per run decides symmetry, realigns phi and factors its
# form F by one SVD; the dynamical rank, the witnesses' F^+, the split
# and the transpose solver are read off it, so no pseudo-inverse is taken.
CALIBRATED = {
    "faithful.is_symmetric": 1, "faithful.local_action_matrix": 1, "faithful.Calibration.__init__": 1,
    "faithful.Calibration.__init__->svd": 1, "faithful.*->svd": 1, "faithful.*->eigh": 0, "*->pinv": 0,
}
# The GNS space is built on the transpose solver alone; its other
# factorizations are its Gram matrix's and the GNS operator norm's.
SOLVED = {
    "gns.TransposeSolver.__init__": 1, "gns.gns_space": 1,
    "gns.gns_space->eigh": 1, "gns.gns_norm->svd": 1, "gns.*->svd": 1, "gns.*->eigh": 1,
}
# Every quantum `all` run builds its shared objects once: three checks
# take a preparation witness (faithful.preparational, born.pair,
# born.triple); one IC observable and one table; one resolution test per
# discrimination witness, as one stack; ten Choi stacks tested for
# complete positivity.  Every rank is full, so its certificate decides
# it: the only SVDs are the calibration's, the GNS norm's and the
# sampled experiments' branch split.
QUANTUM_ALL = {
    **CALIBRATED, **SOLVED, "faithful.spectral_split": 1, "faithful.prepare_witness": 3,
    "infodim.ic_observable": 1, "infodim.minimal_ic_povm": 1, "infodim.dim_identities": 1,
    "infodim.is_resolved": 3, "channels.is_psd": 10, "quantum.random_experiment->svd": 1, "*->svd": 3,
}
FAITHFUL = {
    **CALIBRATED, "faithful.spectral_split": 1, "faithful.prepare_witness": 1, "gns.*": 0,
    "infodim.dim_identities": 0,
}
Q2, Q3, Q4 = (cli.TheorySpec(d=d) for d in (2, 3, 4))
ISO2, ISO3, ISO4 = (joint_spec("isotropic", d, 0.2) for d in (2, 3, 4))
C3 = cli.TheorySpec(backend="classical", d=3)

RUN_CALLS = [
    # on the canonical state one Cholesky factor certifies each CP
    # stack: no test reaches the spectrum of a Choi matrix; on the
    # isotropic state the witness stacks are not CP, and each of their
    # three tests reaches the spectrum
    ("quantum-d2-all", (Q2, "all"), {**QUANTUM_ALL, **_systems(Q2), "channels.min_eig": 0}),
    ("quantum-d3-all", (Q3, "all"), {**QUANTUM_ALL, **_systems(Q3), "channels.min_eig": 0}),
    ("quantum-d4-all", (Q4, "all"), {**QUANTUM_ALL, **_systems(Q4), "channels.min_eig": 0}),
    ("isotropic-d2-p0.2-all", (ISO2, "all"), {**QUANTUM_ALL, **_systems(ISO2), "channels.min_eig": 3}),
    ("isotropic-d3-p0.2-all", (ISO3, "all"), {**QUANTUM_ALL, **_systems(ISO3), "channels.min_eig": 3}),
    ("isotropic-d4-p0.2-all", (ISO4, "all"), {**QUANTUM_ALL, **_systems(ISO4), "channels.min_eig": 3}),
    # a classical run calls nothing of faithful or gns
    ("classical-d3-all", (C3, "all"), {
        **_systems(C3), "faithful.*": 0, "gns.*": 0, "infodim.ic_observable": 1,
        "infodim.minimal_ic_povm": 0, "infodim.dim_identities": 1, "infodim.is_resolved": 2, "*->svd": 0,
    }),
    ("quantum-d2-gns", (Q2, "gns"), {
        **CALIBRATED, **SOLVED, "faithful.spectral_split": 0, "faithful.prepare_witness": 0,
        "infodim.dim_identities": 0,
    }),
    # the faithful suite reads the rank, the witness and the split off
    # the calibration, with no transpose solver, on any state
    ("quantum-d2-faithful", (Q2, "faithful"), FAITHFUL),
    ("isotropic-d2-p0.2-faithful", (ISO2, "faithful"), FAITHFUL),
    # the infodim suite measures no table: no d^4 x d^4 rank, and no map
    ("quantum-d2-infodim", (Q2, "infodim"), {
        **_measures((core.quantum(2),), (core.quantum(2), core.quantum(4))), "infodim.dim_identities": 0,
    }),
    *((f"quantum-d{d}-table", partial(_table_holds, d), _table_calls(d)) for d in (2, 3, 5)),
]
# every function of src/opcal, as "module.qualname"
OPCAL_FUNCTIONS = {
    f"{pathlib.Path(path).stem}.{name}"
    for module in pathlib.Path(opcal.__file__).parent.glob("*.py")
    for path, name in defined_functions(module)
}


@pytest.mark.parametrize("run, want", [row[1:] for row in RUN_CALLS], ids=[row[0] for row in RUN_CALLS])
def test_run_calls(run, want):
    # no row passes on a stale name: each watched function is defined in
    # src/opcal, and each "->function" is one of numpy.linalg
    for key in want:
        caller, arrow, function = key.partition("(")[0].partition("->")
        assert fnmatch.filter(OPCAL_FUNCTIONS, caller), key
        assert not arrow or fnmatch.filter(dir(np.linalg), function), key
    if not callable(run):
        spec, suite = run
        expect = CLASSICAL_EXPECT_FAIL if spec.backend == "classical" else ()
        run = lambda: cli.run_suite(spec, suite).all_pass(expect_fail=expect)  # noqa: E731
    passed, calls = record(run, args={key.partition("(")[0] for key in want if "(" in key})
    assert passed is True
    assert {key: sum(n for name, n in calls.items() if fnmatch.fnmatchcase(name, key)) for key in want} == want


def test_each_check_draws_in_the_fewest_generator_calls(fake_generators, monkeypatch):
    # a Generator only for a check that draws, at most one per check (a
    # second would replay its stream), and one call per array that a
    # sampler draws, whatever the number of samples: a complex Gaussian
    # is two calls, a uniform scale or a classical sample one
    owners, run_check = [], cli._run_check

    def owning_run_check(ctx, name, *args):
        made = len(fake_generators)
        try:
            return run_check(ctx, name, *args)
        finally:
            owners.extend([name] * (len(fake_generators) - made))

    monkeypatch.setattr(cli, "_run_check", owning_run_check)
    per_check = {
        "born.no_signaling": 4,
        "faithful.preparational": 2,
        "gns.kraus_transpose": 2,
        "infodim.expand": 3,
        "gns.adjoint_pairing": 7,
        "norms.contraction": 3,
        "born.triple": 8,
    }
    for spec, want_generators, want_calls in (
        (cli.TheorySpec(d=2), 15, 66),
        (cli.TheorySpec(d=4), 15, 66),
        (cli.TheorySpec(backend="classical", d=3), 5, 12),
    ):
        owners.clear()
        fake_generators.clear()
        cli.run_suite(spec, "all")
        # each Generator, made by the check that ran, with its calls
        generators, calls = Counter(owners), Counter()
        for name, rng in zip(owners, fake_generators, strict=True):
            calls[name] += len(rng.calls)
        assert sum(generators.values()) == want_generators, spec
        assert max(generators.values()) == 1, spec
        assert sum(calls.values()) == want_calls, spec
        if spec.backend == "quantum":
            assert {name: calls[name] for name in per_check} == per_check


# ---------------------------------------------------------------------------
# the per-run context


def test_context_does_not_store_a_failed_build(monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise NotFaithful("no space")

    ctx = cli.RunContext(cli.TheorySpec(d=2))
    with monkeypatch.context() as m:
        m.setattr(gns, "gns_space", failing)
        for _ in range(2):
            with pytest.raises(NotFaithful):
                ctx.space
    assert len(calls) == 2
    assert isinstance(ctx.space, gns.GnsSpace)


def test_runs_share_nothing(tmp_path):
    # each report of a sequence in one process equals the report of the
    # same theory file run alone in a fresh interpreter
    phis = {
        "canonical": None,
        "isotropic": joint("isotropic", 2, 0.6).matrix,
        "product": joint("maximally-mixed", 2).matrix,
    }
    paths = {}
    for name, phi in phis.items():
        text = "backend = quantum\nd = 2\nseed = 3\n"
        if phi is not None:
            text += "phi = " + " ".join(f"{x!r}+0j" for x in phi.real.reshape(-1).tolist())
        paths[name] = _write(tmp_path, text + "\n", f"{name}.theory")
    src = str(pathlib.Path(opcal.__file__).parent.parent)
    alone = {}
    for name, path in paths.items():
        done = subprocess.run(
            [sys.executable, "-m", "opcal.cli", "--theory", path, "--format", "structured"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        alone[name] = done.stdout
    for name in ("canonical", "isotropic", "product", "canonical"):
        report = cli.run_suite(cli.load_theory(paths[name]), "all")
        assert cli.emit_report(report, "structured") == alone[name], name
        if name == "product":
            status = {c.name: c.status for c in report.checks}
            # every gns/born check that uses phi errors on its own; the
            # Kraus closed form and no-signaling do not use the override
            broken = [n for n in status if n.startswith(("gns.", "born."))]
            broken = set(broken) - {"gns.kraus_transpose", "born.no_signaling"}
            assert broken and all(status[n] == "error" for n in broken)


def test_crashing_check_is_an_error_not_an_abort(monkeypatch):
    def crash(ctx, tol):
        raise np.linalg.LinAlgError("SVD did not converge #3\n in pinv")

    rows = tuple(
        (name, detail, tol, backends, crash if name == "faithful.dynamical" else fn, draws)
        for name, detail, tol, backends, fn, draws in checks.CHECKS
    )
    monkeypatch.setattr(cli, "CHECKS", rows)
    report = cli.run_suite(cli.TheorySpec(d=2, seed=5), "faithful")
    status = {c.name: c.status for c in report.checks}
    assert status.pop("faithful.dynamical") == "error"
    assert set(status.values()) == {"pass"}  # the other checks still ran
    (failed,) = [c for c in report.checks if c.status == "error"]
    assert failed.error == "LinAlgError: SVD did not converge 3 in pinv"
    assert failed.values == {}
    text = cli.emit_report(report, "structured")
    assert "check.1.error = LinAlgError: SVD did not converge 3 in pinv\n" in text
    assert text.count(".error = ") == 1
    back = cli.parse_report(text)
    assert back == report
    assert cli.emit_report(back, "structured") == text
    shown = cli.emit_report(report, "text")
    assert "error: LinAlgError: SVD did not converge 3 in pinv" in shown
    # the command line reports the failed check and goes on
    assert cli.main(["--suite", "faithful", "--seed", "5"]) == 1


def test_a_failing_sampler_is_an_error_of_the_checks_it_feeds(monkeypatch):
    # the runner draws inside the check's guard: a sampler that raises
    # is an error of each check that draws from it, and of no other
    def broken(d, rng, n):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(qm, "random_cp", broken)
    fed = {name for name, *_, draws in checks.CHECKS if checks._sample_map in draws}
    assert len(fed) == 10
    report = cli.run_suite(cli.TheorySpec(d=2), "all")
    for c in report.checks:
        if c.name in fed:
            assert (c.status, c.error, c.values) == ("error", "LinAlgError: Eigenvalues did not converge", {})
        else:
            assert c.status == "pass", c.name


def _unresolved(monkeypatch):
    monkeypatch.setattr(infodim, "is_resolved", lambda e: False)


def _permuted_basis_states(monkeypatch):
    """spanning_vectors with its first n vectors, those of the basis
    states, rolled by one, so the witness pairs each with the wrong
    projector."""

    def permuted(n):
        v = core.spanning_vectors(n).copy()
        v[:n] = np.roll(v[:n], 1, axis=0)
        return v

    monkeypatch.setattr(infodim, "spanning_vectors", permuted)


@pytest.mark.parametrize(
    "patch, message",
    [(_unresolved, "not predictable and resolved"), (_permuted_basis_states, "failed the delta check")],
    ids=["resolvedness", "delta"],
)
def test_failed_witness_is_a_check_error(monkeypatch, patch, message):
    patch(monkeypatch)
    with pytest.raises(WitnessFailed, match=message):
        infodim.informational_dimension(core.quantum(2))
    report = cli.run_suite(cli.TheorySpec(d=2), "infodim")
    idim = {c.name: c for c in report.checks}["infodim.idim"]
    assert idim.status == "error" and message in idim.error
