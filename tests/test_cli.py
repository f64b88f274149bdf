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
# parsing and validation


def test_parse_kv_basics():
    kv = cli.parse_kv("a = 1\n# comment\n\nb = two words\n")
    assert kv == [(1, "a", "1"), (4, "b", "two words")]


def test_parse_kv_errors():
    with pytest.raises(ParseError, match="line 2"):
        cli.parse_kv("a = 1\nnot a pair\n")
    with pytest.raises(ParseError, match="empty key"):
        cli.parse_kv("= 1\n")


def test_load_theory_defaults(tmp_path):
    spec = cli.load_theory(_write(tmp_path, "backend = quantum\nd = 2\n"))
    assert spec.backend == "quantum"
    assert spec.d == 2
    assert spec.seed == 0
    assert spec.tol == 1e-9
    assert spec.phi_override is None


def test_load_theory_rejects_d1(tmp_path):
    with pytest.raises(ValidationError, match="d must be >= 2"):
        cli.load_theory(_write(tmp_path, "backend = quantum\nd = 1\n"))


def test_load_theory_unknown_key(tmp_path):
    with pytest.raises(ParseError, match="unknown field"):
        cli.load_theory(_write(tmp_path, "backend = quantum\nd = 2\nfoo = 1\n"))


def test_load_theory_repeated_key(tmp_path, capsys):
    # a repeated key is an error, not a silent override by the last line
    path = _write(tmp_path, "backend = quantum\nd = 2\n# d again\nd = 3\n")
    with pytest.raises(ParseError, match="line 4: field 'd' repeats line 2"):
        cli.load_theory(path)
    assert cli.main(["--theory", path]) == 2
    assert "error: line 4: field 'd' repeats line 2" in capsys.readouterr().err


def test_load_theory_bad_value(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        cli.load_theory(_write(tmp_path, "backend = quantum\nd = two\n"))


def test_load_theory_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    # a decoding failure is a parse error (exit 2), not a traceback with
    # the exit code of a failed check
    path = tmp_path / "t.theory"
    path.write_bytes(b"d = 2\n# caf\xe9\nseed = 1\n")
    with pytest.raises(ParseError, match="byte 11 is not valid UTF-8$"):
        cli.load_theory(str(path))
    assert cli.main(["--theory", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: byte 11 is not valid UTF-8\n"


def test_load_theory_drops_a_byte_order_mark(tmp_path):
    text = b"backend = classical\nd = 3\nseed = 7\ntol = 1e-8\n"
    plain, marked = tmp_path / "plain.theory", tmp_path / "marked.theory"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    want = cli.TheorySpec(backend="classical", d=3, seed=7, tol=1e-8)
    assert cli.load_theory(str(marked)) == cli.load_theory(str(plain)) == want
    # a byte that is not UTF-8 is named by its offset in the file, the
    # three bytes of the mark included
    marked.write_bytes(codecs.BOM_UTF8 + b"d = 2\n# caf\xe9\n")
    with pytest.raises(ParseError, match="byte 14 is not valid UTF-8$"):
        cli.load_theory(str(marked))


def test_phi_applies_to_the_quantum_backend_only(tmp_path, capsys):
    # no classical check reads phi, so an override there would go unread
    phi = "phi = " + " ".join(f"{x!r}" for x in qm.max_entangled(2).matrix.real.reshape(-1).tolist())
    with pytest.raises(ValidationError, match="phi applies to the quantum backend only"):
        cli.load_theory(_write(tmp_path, f"backend = classical\nd = 2\n{phi}\n"))
    quantum = _write(tmp_path, f"backend = quantum\nd = 2\n{phi}\n", name="q.theory")
    assert cli.load_theory(quantum).phi_override is not None
    rc = cli.main(["--theory", quantum, "--backend", "classical"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: phi applies to the quantum backend only\n"


def test_load_theory_complex_matrix(tmp_path):
    entries = " ".join(["0.25+0j"] * 4 + ["0+0j"] * 12)
    # diagonal 1/4 on a 4x4 joint matrix, row-major
    rows = ["0.25+0j 0+0j 0+0j 0+0j", "0+0j 0.25+0j 0+0j 0+0j",
            "0+0j 0+0j 0.25+0j 0+0j", "0+0j 0+0j 0+0j 0.25+0j"]
    text = f"backend = quantum\nd = 2\nphi = {' '.join(rows)}\n"
    spec = cli.load_theory(_write(tmp_path, text))
    np.testing.assert_allclose(spec.phi_override, np.eye(4) / 4, atol=1e-12, rtol=0)


def test_load_theory_non_psd_override_names_eigenvalue(tmp_path):
    vals = np.diag([0.6, 0.6, 0.3, -0.5]).reshape(-1)
    text = "backend = quantum\nd = 2\nphi = " + " ".join(
        f"{v}+0j" for v in vals
    )
    with pytest.raises(ValidationError, match=r"eigenvalue -5\.0"):
        cli.load_theory(_write(tmp_path, text))


def test_override_near_the_float64_limit_is_one_error_line(tmp_path):
    # phi = 1e308 at the four |ii><jj| entries: finite, but its trace and
    # top eigenvalue overflow; the file is rejected with one line and no
    # numpy warning on stderr
    entries = np.zeros((4, 4))
    entries[np.ix_([0, 3], [0, 3])] = 1e308
    phi = " ".join(map(repr, entries.ravel().tolist()))
    path = _write(tmp_path, f"backend = quantum\nd = 2\nphi = {phi}\n")
    src = str(pathlib.Path(opcal.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "opcal.cli", "--theory", path, "--suite", "all"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: override matrix trace (inf+0j) is not 1\n"
    assert "Warning" not in done.stderr


def test_validate_spec_bad_backend():
    with pytest.raises(ValidationError):
        cli.validate_spec(cli.TheorySpec(backend="foo"))


@pytest.mark.parametrize("d", [6, 10])
def test_validate_spec_caps_d(d):
    # validation only: the cap keeps the d^8-sized arrays of cli.MAX_D
    # (1.6 GB at d=10) out of a run.  A d=6 `all` report would fit: with
    # the cap raised it passes 39/39 in 0.55 s at 96 MB peak resident
    # (one BLAS thread).  Lifting the cap is ROADMAP item 19.
    with pytest.raises(ValidationError, match=f"d must be <= 5, got {d}"):
        cli.validate_spec(cli.TheorySpec(d=d))
    assert cli.validate_spec(cli.TheorySpec(d=5)).d == 5


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_validate_spec_rejects_a_seed_out_of_range(seed, capsys):
    message = rf"seed must be in \[0, 2\*\*64\), got {seed}"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        cli.validate_spec(cli.TheorySpec(seed=seed))
    assert cli.main(["--suite", "core", "--seed", str(seed)]) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_a_seed_at_either_end_of_the_range_runs(seed, capsys):
    # the run hashes the seed into every check's sub-seed (check_seed)
    assert cli.main(["--suite", "core", "--seed", str(seed)]) == 0
    assert f"(seed {seed}, " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# suites and reports


def test_run_suite_unknown():
    with pytest.raises(UnknownSuite):
        cli.run_suite(cli.TheorySpec(), "nope")


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


def test_empty_suite_for_classical():
    report = cli.run_suite(cli.TheorySpec(backend="classical", d=3), "gns")
    assert report.checks == []
    assert report.all_pass()


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


def test_text_report_flags_failures():
    report = cli.run_suite(cli.TheorySpec(backend="classical", d=2), "table1")
    text = cli.emit_report(report, "text")
    assert "FAIL" in text
    assert "table1.D34'" in text


def test_check_seed_derivation():
    a = cli.check_seed(42, "x")
    assert a == cli.check_seed(42, "x")
    assert a != cli.check_seed(42, "y")
    assert a != cli.check_seed(43, "x")
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# entry point


def test_main_all_pass(capsys):
    rc = cli.main(["--suite", "core", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_main_failing_suite(capsys):
    rc = cli.main(["--suite", "table1", "--backend", "classical"])
    assert rc == 1


def test_main_expect_fail(capsys):
    rc = cli.main(
        [
            "--suite",
            "table1",
            "--backend",
            "classical",
            "--expect-fail",
            "table1.D4",
            "--expect-fail",
            "table1.D34",
            "--expect-fail",
            "table1.D34'",
            "--expect-fail",
            "table1.P",
        ]
    )
    assert rc == 0


def test_main_rejects_an_unknown_expect_fail_name(capsys):
    rc = cli.main(["--suite", "core", "--expect-fail", "core.conditionin"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: unknown check 'core.conditionin'\n"
    # a check outside the selected suite or backend is accepted
    assert cli.main(["--suite", "core", "--backend", "classical", "--expect-fail", "gns.cstar"]) == 0


def test_main_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.theory"
    p.write_text("nonsense\n")
    rc = cli.main(["--theory", str(p)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["nan+0j", "inf+0j"])
def test_main_rejects_a_non_finite_override_entry(tmp_path, capsys, entry):
    entries = [f"{x!r}+0j" for x in qm.max_entangled(2).matrix.real.reshape(-1).tolist()]
    entries[5] = entry
    p = _write(tmp_path, "backend = quantum\nd = 2\nphi = " + " ".join(entries) + "\n")
    rc = cli.main(["--theory", p])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "error: override matrix has a non-finite entry" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_main_rejects_a_non_finite_tol(capsys, tol):
    rc = cli.main(["--tol", tol])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert f"error: tol must be finite and positive, got {tol}" in err


def _main_report(capsys, *argv):
    rc = cli.main([*argv, "--format", "structured"])
    report = cli.parse_report(capsys.readouterr().out)
    return rc, {c.name: c for c in report.checks}


def test_tol_bounds_only_what_a_check_reports(capsys):
    # a loose tol cannot blur the checks that tell objects apart
    rc, by_name = _main_report(capsys, "--tol", "1")
    assert rc == 0
    for name in ("core.equivalence", "norms.coexistence"):
        assert (by_name[name].status, by_name[name].tolerance) == ("pass", 1e-9)
    # a tight tol fails a reported residual; no construction raises
    rc, by_name = _main_report(capsys, "--tol", "1e-15")
    assert rc == 1
    assert [c.name for c in by_name.values() if c.status == "error"] == []
    signaling = by_name["born.no_signaling"]
    assert signaling.status == "fail"
    assert 1e-15 < signaling.values["max_violation"] < 1e-12


def test_main_empty_suite_exits_2(capsys):
    rc = cli.main(["--suite", "gns", "--backend", "classical"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: suite gns has no check for the classical backend" in err


def test_main_theory_file(tmp_path, capsys):
    p = tmp_path / "c.theory"
    p.write_text("backend = classical\nd = 3\nseed = 5\n")
    rc = cli.main(["--suite", "core", "--theory", str(p), "--format", "structured"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "backend = classical" in out
    assert "seed = 5" in out


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
