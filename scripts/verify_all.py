#!/usr/bin/env python3
"""Run every verification suite across the standard configurations and
write the structured reports under reports/ (plus a summary to stdout).

Usage: python3 scripts/verify_all.py [--seed N] [--out DIR]
"""

import argparse
import pathlib
import sys

import numpy as np

from opcal import cli
from opcal import quantum as qm


def isotropic(d, p):
    """(1 - p)|Omega><Omega| + p I/d^2: faithful, but not the maximally
    entangled state."""
    omega = qm.max_entangled(d).matrix
    phi = (1.0 - p) * omega + p * np.eye(d * d) / d**2
    return cli.validate_spec(cli.TheorySpec(backend="quantum", d=d, phi_override=phi))


CONFIGS = [
    ("quantum-d2", cli.TheorySpec(backend="quantum", d=2)),
    ("quantum-d3", cli.TheorySpec(backend="quantum", d=3)),
    ("classical-d3", cli.TheorySpec(backend="classical", d=3)),
    ("classical-d4", cli.TheorySpec(backend="classical", d=4)),
    ("isotropic-d3-p0.2", isotropic(3, 0.2)),
]

# the diagonal restriction is a negative control for these identities
CLASSICAL_EXPECT_FAIL = ("table1.D4", "table1.D34", "table1.D34'", "table1.P")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="reports")
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, spec in CONFIGS:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
        report = cli.run_suite(spec, "all")
        expect = CLASSICAL_EXPECT_FAIL if spec.backend == "classical" else ()
        path = out / f"{name}-seed{args.seed}.report"
        path.write_text(cli.emit_report(report, "structured"))
        ok = report.all_pass(expect_fail=expect)
        npass = sum(c.status == "pass" for c in report.checks)
        print(
            f"{name}: {npass}/{len(report.checks)} checks pass"
            + (f" ({len(expect)} expected failures)" if expect else "")
            + f" -> {path}"
            + ("" if ok else "  [UNEXPECTED RESULT]")
        )
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
