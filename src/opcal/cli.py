"""Command-line front end: load theory specifications, run named
verification suites (the checks are the rows of `checks.CHECKS`), emit
human-readable and machine-readable reports.

Theory files and structured reports share one line-oriented key/value
syntax: `key = value`, one pair per line, `#` comments, complex numbers
as "re+imj", matrices as whitespace-separated entries in row-major
order.  The runner draws a check's samples, as its row of `CHECKS`
declares them, from one Generator seeded by a sub-seed derived as the
first eight bytes (big-endian) of sha256("{seed}:{check name}"), so
check order and concurrency cannot alter results and reports are
byte-identical for a fixed (spec, seed, version).  A check that draws
nothing gets no Generator.
"""

import argparse
import codecs
import hashlib
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import __version__
from . import core, faithful, gns, infodim
from . import quantum as qm
from .checks import CHECKS, SUITES
from .core import BACKENDS
from .errors import ParseError, UnknownSuite, ValidationError
from .tolerances import DEFAULT_TOL, OVERRIDE_HERMITIAN, OVERRIDE_PSD, OVERRIDE_TRACE

SCALAR_FIELDS = {"backend": str, "d": int, "seed": int, "tol": float}
# Largest accepted dimension: memory grows as d^8.  The d^4 Choi
# matrices of `table1.T`, each d^2 x d^2, take 16 d^8 bytes (1.6 GB at
# d=10), and the rank certificate's Gram matrix and Cholesky factor of
# a d^4 x d^4 coordinate matrix take 8 d^8 bytes each; the spanning
# states of C^(d^2) are ranked from their vectors and never formed.  A
# process running two d=5 `all` reports with one BLAS thread peaks at
# 54.2-54.4 MB resident, and a warm d=5 `all` report takes 0.06-0.08 s
# (numpy 2.4, 2 shared vCPUs).
MAX_D = 5


# ---------------------------------------------------------------------------
# key/value syntax (shared by theory files and structured reports)


def parse_kv(text):
    """Parse `key = value` lines into an ordered list of
    (line number, key, value) triples; a key may appear once."""
    out, seen = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in seen:
            raise ParseError(f"line {lineno}: field {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        out.append((lineno, key, value.strip()))
    return out


def _parse_complex_matrix(value, lineno, key):
    try:
        entries = [complex(tok) for tok in value.split()]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: field {key}: {exc}") from exc
    n = int(round(np.sqrt(len(entries))))
    if n * n != len(entries):
        raise ParseError(
            f"line {lineno}: field {key}: {len(entries)} entries do not "
            "form a square matrix"
        )
    return np.array(entries, dtype=complex).reshape(n, n)


# ---------------------------------------------------------------------------
# theory specification


@dataclass(frozen=True)
class TheorySpec:
    """Validated run configuration: backend, dimension, master seed,
    tolerance, and an optional joint-state override for the faithful
    and representation suites."""

    backend: str = "quantum"
    d: int = 2
    seed: int = 0
    tol: float = DEFAULT_TOL
    phi_override: np.ndarray = None

    def theory(self):
        return core.Theory(self.backend, self.d)

    def phi(self):
        """The override made Hermitian and of unit trace, here alone, so a
        spec validated twice keeps its bytes; else |Omega><Omega|."""
        if self.phi_override is not None:
            m = self.phi_override
            m = (m + m.conj().T) / 2.0
            return core.State(core.quantum(self.d**2), m / np.real(np.trace(m)))
        return qm.max_entangled(self.d)


def validate_spec(spec):
    """The spec itself, unchanged, or ValidationError naming each field
    that is out of range."""
    errors = []
    if spec.backend not in BACKENDS:
        errors.append(f"backend must be quantum or classical, got {spec.backend!r}")
    if spec.d < 2:
        errors.append(f"d must be >= 2, got {spec.d}")
    elif spec.d > MAX_D:
        errors.append(f"d must be <= {MAX_D}, got {spec.d} (memory grows as d^8)")
    if not 0 <= spec.seed < 2**64:
        errors.append(f"seed must be in [0, 2**64), got {spec.seed}")
    if not (np.isfinite(spec.tol) and spec.tol > 0):
        errors.append(f"tol must be finite and positive, got {spec.tol}")
    if spec.phi_override is not None and spec.backend == "classical":
        errors.append("phi applies to the quantum backend only")
    if spec.phi_override is not None and not errors:
        m = spec.phi_override
        n = spec.d * spec.d
        if m.shape != (n, n):
            errors.append(f"override matrix must be {n} x {n}, got {m.shape}")
        elif not np.isfinite(m).all():
            errors.append("override matrix has a non-finite entry")
        else:
            # finite entries near the float64 limit can overflow a
            # difference or the trace to inf, or the trace to NaN (inf
            # minus inf): the error names it, with no warning besides
            with np.errstate(over="ignore", invalid="ignore"):
                if np.max(np.abs(m - m.conj().T)) > OVERRIDE_HERMITIAN:
                    errors.append("override matrix is not Hermitian")
                else:
                    low = float(np.linalg.eigvalsh(m)[0])
                    if low < -OVERRIDE_PSD:
                        errors.append(
                            f"override matrix is not PSD: eigenvalue {low:.6e}"
                        )
                tr = complex(np.trace(m))
            if not abs(tr - 1.0) <= OVERRIDE_TRACE:
                errors.append(f"override matrix trace {tr} is not 1")
    if errors:
        raise ValidationError("; ".join(errors))
    return spec


def load_theory(path):
    """Read and validate a theory file; unknown and repeated keys are
    rejected so typos fail loudly.  A leading UTF-8 byte-order mark is
    dropped; a byte that is not UTF-8 is named by its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = len(data) - len(body) + exc.start
        raise ParseError(f"{path}: byte {offset} is not valid UTF-8") from exc
    fields = {}
    for lineno, key, value in parse_kv(text):
        try:
            if key in SCALAR_FIELDS:
                fields[key] = SCALAR_FIELDS[key](value)
            elif key == "phi":
                fields["phi_override"] = _parse_complex_matrix(value, lineno, key)
            else:
                raise ParseError(f"line {lineno}: unknown field {key!r}")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: field {key}: {exc}") from exc
    return validate_spec(TheorySpec(**fields))


# ---------------------------------------------------------------------------
# report model


@dataclass
class CheckResult:
    name: str
    detail: str
    status: str  # pass | fail | error
    tolerance: float
    values: dict = field(default_factory=dict)
    error: str = ""  # "<exception class>: <message>" of an error status


@dataclass
class Report:
    suite: str
    backend: str
    d: int
    seed: int
    version: str
    checks: list = field(default_factory=list)

    def all_pass(self, expect_fail=()):
        for c in self.checks:
            expected_fail = c.name in expect_fail
            if expected_fail and c.status == "pass":
                return False
            if not expected_fail and c.status != "pass":
                return False
        return True


def _fmt_float(x):
    return f"{float(x):.17e}"


def _fmt_values(values):
    return ";".join(f"{k}:{_fmt_float(v)}" for k, v in sorted(values.items()))


def _parse_values(text):
    return {k: float(v) for k, v in (item.split(":", 1) for item in text.split(";"))} if text else {}


# The structured format: each line's key with its to-text and from-text
# conversions, in emit order.  A check's `error` line follows its values
# for an error status only.  parse_kv reads `#` and line breaks as syntax,
# the values codec `:` and `;`: no field holds the first two, no value key
# any of the four.
REPORT_FIELDS = (("suite", str, str), ("backend", str, str), ("d", str, int), ("seed", str, int),
                 ("version", str, str), ("checks", len, int))
CHECK_FIELDS = (("name", str, str), ("status", str, str), ("tolerance", _fmt_float, float),
                ("detail", str, str), ("values", _fmt_values, _parse_values))
ERROR_FIELDS = CHECK_FIELDS + (("error", str, str),)


def _check_fields(status):
    return ERROR_FIELDS if status == "error" else CHECK_FIELDS


def emit_report(report, fmt="text"):
    """Render a report: `text` is an aligned human-readable table,
    `structured` the lines of REPORT_FIELDS and, per check, of
    CHECK_FIELDS in the key/value syntax accepted by parse_kv."""
    if fmt == "structured":
        lines = [f"{key} = {write(getattr(report, key))}" for key, write, _ in REPORT_FIELDS]
        for i, c in enumerate(report.checks):
            for key, write, _ in _check_fields(c.status):
                lines.append(f"check.{i}.{key} = {write(getattr(c, key))}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    width = max([len(c.name) for c in report.checks], default=4)
    lines = [
        f"suite {report.suite} on {report.backend} d={report.d} "
        f"(seed {report.seed}, toolkit {report.version})"
    ]
    for c in report.checks:
        values = " ".join(f"{k}={_fmt_float(v)}" for k, v in sorted(c.values.items()))
        lines.append(
            f"{c.status.upper():5s} {c.name:<{width}s} tol={c.tolerance:.1e}"
            + (f" {values}" if values else "")
        )
        lines.append(f"      {'':{width}s} {c.detail}")
        if c.status == "error":
            lines.append(f"      {'':{width}s} error: {c.error}")
    npass = sum(c.status == "pass" for c in report.checks)
    lines.append(f"result: {npass}/{len(report.checks)} checks pass")
    return "\n".join(lines) + "\n"


def parse_report(text):
    """Inverse of emit_report(..., "structured"); shares parse_kv with
    the theory loader."""
    kv = {k: v for _, k, v in parse_kv(text)}
    fields = {key: read(kv[key]) for key, _, read in REPORT_FIELDS}
    checks = []
    for i in range(fields["checks"]):
        p = f"check.{i}."
        checks.append(CheckResult(**{key: read(kv[p + key]) for key, _, read in _check_fields(kv[p + "status"])}))
    fields["checks"] = checks
    return Report(**fields)


# ---------------------------------------------------------------------------
# running the checks


def check_seed(master, name):
    """Documented per-check sub-seed derivation from the master seed."""
    digest = hashlib.sha256(f"{master}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RunContext:
    """The objects that the checks of one run share: phi, its one
    calibration (`faithful.Calibration`: the dynamical rank and the
    form that the preparation witnesses read), the spectral split and
    the transpose solver read off it, the GNS space built on that
    solver, the backend's minimal IC observable, the
    spec's dimension table, and a store of theory-level measurements.
    Each is built on first use, from the spec alone, so sharing them
    changes no result; a build that raises is not stored and raises
    again on the next use.  run_suite makes one per call and drops it on
    return."""

    def __init__(self, spec):
        self.spec = spec
        self._measured = {}

    def measure(self, measurement, theory):
        """measurement(theory), for a theory-level measurement of
        infodim, taken at most once per run: the store is keyed by
        (measurement, theory).  Callers pass the function as infodim
        binds it when they call, so a rebound name (a tracer's wrapper,
        a test's patch) is the one that runs."""
        key = (measurement, theory)
        if key not in self._measured:
            self._measured[key] = measurement(theory)
        return self._measured[key]

    @cached_property
    def phi(self):
        return self.spec.phi()

    @cached_property
    def calibration(self):
        return faithful.Calibration(self.phi)

    @cached_property
    def split(self):
        return faithful.spectral_split(self.calibration)

    @cached_property
    def solver(self):
        return gns.TransposeSolver(self.calibration)

    @cached_property
    def space(self):
        return gns.gns_space(self.solver)

    @cached_property
    def ic(self):
        return infodim.ic_observable(self.spec.theory())

    @cached_property
    def dims(self):
        """The dimension table of the spec's backend, its measurements
        read through the store."""
        return infodim.dim_identities(self.spec.d, self.spec.backend, self.measure)


def _error_text(exc):
    """One report line naming an exception: its class and its message,
    whitespace collapsed and `#` (the comment marker) dropped."""
    message = " ".join(str(exc).replace("#", " ").split())
    return f"{type(exc).__name__}: {message}" if message else type(exc).__name__


def _run_check(ctx, name, detail, tolerance, fn, draws):
    """Draw the samples of one check's row, if any, from one Generator
    seeded by its sub-seed, and run the check on them; any exception the
    draw or the check raises becomes an `error` status that names the
    exception, so one check cannot abort the run."""
    values, error = {}, ""
    try:
        samples = ()
        if draws:
            n, *samplers = draws
            rng = np.random.default_rng(check_seed(ctx.spec.seed, name))
            samples = [sampler(ctx.spec, rng, n) for sampler in samplers]
        ok, values = fn(ctx, tolerance, *samples)
        status = "pass" if ok else "fail"
    except Exception as exc:
        status, error = "error", _error_text(exc)
    return CheckResult(
        name=name,
        detail=detail,
        status=status,
        tolerance=tolerance,
        values=values,
        error=error,
    )


def run_suite(spec, suite):
    """Execute every check of the named suite (or of all suites) that
    applies to the spec's backend, in table order; deterministic for a
    fixed (spec, seed, version)."""
    if suite != "all" and suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    report = Report(
        suite=suite, backend=spec.backend, d=spec.d, seed=spec.seed, version=__version__
    )
    ctx = RunContext(spec)
    for name, detail, tolerance, backends, fn, draws in CHECKS:
        if suite in ("all", name.split(".")[0]) and spec.backend in backends:
            tolerance = spec.tol if tolerance is None else tolerance
            report.checks.append(_run_check(ctx, name, detail, tolerance, fn, draws))
    return report


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opcal",
        description="Run verification suites for the operational calculus toolkit.",
    )
    parser.add_argument("--theory", help="path to a theory specification file")
    parser.add_argument("--suite", default="all", help="suite name or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--backend", default=None, choices=BACKENDS)
    parser.add_argument("--d", type=int, default=None, help="dimension override")
    parser.add_argument(
        "--format", default="text", choices=["text", "structured"], dest="fmt"
    )
    parser.add_argument(
        "--expect-fail",
        action="append",
        default=[],
        metavar="CHECKNAME",
        help="treat this check as a negative control (it must not pass)",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    known = {name for name, *_ in CHECKS}
    unknown = [name for name in args.expect_fail if name not in known]
    if unknown:
        sys.stderr.write(f"error: unknown check {', '.join(map(repr, unknown))}\n")
        return 2
    try:
        spec = load_theory(args.theory) if args.theory else TheorySpec()
        overrides = {
            key: getattr(args, key) for key in SCALAR_FIELDS if getattr(args, key) is not None
        }
        if overrides:
            spec = validate_spec(replace(spec, **overrides))
        start = time.monotonic()
        report = run_suite(spec, args.suite)
        elapsed = time.monotonic() - start
        if not report.checks:
            sys.stderr.write(
                f"error: suite {args.suite} has no check for the "
                f"{spec.backend} backend\n"
            )
            return 2
        sys.stdout.write(emit_report(report, args.fmt))
        # wall-clock goes to stderr so report bytes stay reproducible
        sys.stderr.write(f"elapsed: {elapsed:.3f}s\n")
        return 0 if report.all_pass(expect_fail=tuple(args.expect_fail)) else 1
    except (ParseError, ValidationError, UnknownSuite, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
