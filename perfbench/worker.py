"""One workload process, started by run.py in a fresh interpreter with
`src` on PYTHONPATH.

    python3 perfbench/worker.py WORKLOAD SEED ROLE SECONDS DEADLINE THEORY SPANS

ROLE is one of
  setup   import opcal, build and validate spec 0 (as one `opcal` call
          does), exit;
  first   setup, then one report on spec 0 with cold caches;
  steady  first, then reports on specs 1, 2, ... for SECONDS, each spec
          built just before its report and outside its timed span;
  trace   steady for SECONDS, then the workload's traced reports.
While set-up, the first report and the steady loop run, a SpeedMeter
(hostspeed.py) samples the host's speed.  Each of these reports gets
`probe_s`, the probe time inside its timed span, and `s_ref`, its time
without the probes rescaled to the reference speed; set-up's speed and
probe time are returned for run.py to rescale the set-up time it
measures from spawn.
THEORY and SPANS are paths, or "-" for none.  DEADLINE is the
time.monotonic() by which the worker must have ended; the steady loop
stops early, after at least one report, rather than run past it.  The
worker prints one JSON object on stdout when it ends.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace

import hostspeed
from metrics import PER_LAYER
from workloads import TRACED_FIRST, WORKLOADS, master_seed

ROLES = ("setup", "first", "steady", "trace")
# Seconds the steady loop leaves before the deadline for the rest of
# the worker and the orchestrator.
DEADLINE_MARGIN_S = 10.0


def build_specs(cli, w, seed, indices, theory):
    """Validated specs with master seeds master_seed(seed, i), built
    lazily in order; a workload with a theory file reads its phi through
    load_theory, as `opcal --theory FILE --seed S` does."""
    template = cli.load_theory(theory) if w.iso_p else cli.TheorySpec(w.backend, w.d)
    return (cli.validate_spec(replace(template, seed=master_seed(seed, i))) for i in indices)


class Verifier:
    """Runs one report and checks it: statuses against the workload's
    expectations, and the round trip through parse_report."""

    def __init__(self, cli, w):
        self.cli = cli
        self.w = w

    def meets(self, check):
        if check.name in self.w.negative_controls:
            return check.status != "pass"
        return check.status == "pass"

    def report(self, spec):
        cli = self.cli
        start = time.perf_counter()
        report = cli.run_suite(spec, "all")
        text = cli.emit_report(report, "structured")
        parsed = cli.parse_report(text)
        unmet = [c.name for c in parsed.checks if not self.meets(c)]
        seconds = time.perf_counter() - start

        problems = [f"{name}: unexpected status" for name in unmet if name not in self.w.known_defects]
        if len(parsed.checks) != self.w.checks:
            problems.append(f"{len(parsed.checks)} checks, expected {self.w.checks}")
        intact = [(c.name, c.status) for c in parsed.checks] == [
            (c.name, c.status) for c in report.checks
        ] and cli.emit_report(parsed, "structured") == text
        if not intact:
            problems.append("report does not round-trip through parse_report")
        return {
            "seed": spec.seed,
            "at": start,  # perf_counter at the start of the timed span
            "s": seconds,
            "checks": len(report.checks),
            "unmet": unmet,  # checks that missed their expectation
            "intact": intact,  # False counts every check of the report as failed
            "problems": problems,  # anything here fails the regression gate
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }

    def loop(self, specs, seconds, deadline, least=3):
        """Reports on `specs` in order: at least `least`, then more while
        one more report, at the mean time so far, still ends within
        `seconds`.  After the first report it also stops if one more
        would end past `deadline` (a time.monotonic() value)."""
        done = []
        start = time.perf_counter()
        for spec in specs:
            if done:
                elapsed = time.perf_counter() - start
                mean = elapsed / len(done)
                if len(done) >= least and elapsed + mean > seconds:
                    break
                if time.monotonic() + mean > deadline - DEADLINE_MARGIN_S:
                    break
            done.append(self.report(spec))
        return done


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if unknown."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
    }


def traced_phase(cli, w, seed, theory, spans_path):
    """The workload's traced reports, with their specs built inside the
    traced region; returns the per-layer metrics per report.  Their
    master seeds start at TRACED_FIRST, past every spec the steady loop
    can reach, and do not depend on how far it got."""
    from opcal import basis
    from tracer import Tracer

    verifier = Verifier(cli, w)
    cache = basis.hermitian_basis.cache_info()
    tracer = Tracer().install()
    try:
        specs = list(build_specs(cli, w, seed, range(TRACED_FIRST, TRACED_FIRST + w.traced_reports), theory))
        reports = []
        for spec in specs:
            tracer.begin_report()
            reports.append(verifier.report(spec))
            tracer.end_report()
    finally:
        tracer.uninstall()
    after = basis.hermitian_basis.cache_info()
    per_report = {name: value / len(reports) for name, value in tracer.summary().items()}
    hits, misses = after.hits - cache.hits, after.misses - cache.misses
    per_report["basis.hermitian_basis.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if spans_path != "-":
        tracer.write_spans(spans_path)
    return reports, {name: per_report[name] for name in PER_LAYER}, len(tracer.spans)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("role", choices=ROLES)
    parser.add_argument("seconds", type=float)
    parser.add_argument("deadline", type=float)
    parser.add_argument("theory")
    parser.add_argument("spans")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    meter = hostspeed.SpeedMeter().start()
    begun = time.perf_counter()
    try:
        from opcal import cli

        specs = build_specs(cli, w, args.seed, range(TRACED_FIRST), args.theory)
        first = next(specs)
        ready = time.perf_counter()
        out = {"ready": time.monotonic(), "env": environment()}
        verifier = Verifier(cli, w)
        if args.role != "setup":
            out["first"] = verifier.report(first)
        if args.role in ("steady", "trace"):
            out["steady"] = verifier.loop(specs, args.seconds, args.deadline)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        meter.stop()
    meter.fill()
    # set-up is timed by run.py from spawn; it rescales it with these
    out["setup_speed"], out["setup_probe_s"] = meter.speed(begun, ready)
    for r in ([out["first"]] if "first" in out else []) + out.get("steady", []):
        speed, r["probe_s"] = meter.speed(r["at"], r["at"] + r["s"])
        r["s_ref"] = (r["s"] - r["probe_s"]) * speed
    if args.role == "trace":
        reports, layer, nspans = traced_phase(cli, w, args.seed, args.theory, args.spans)
        out.update(traced=reports, layer=layer, spans=nspans)
        out["traced_p50"] = statistics.median(r["s"] for r in reports)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
