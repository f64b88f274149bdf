#!/usr/bin/env python3
"""Run every verification suite across the standard configurations and
write the structured reports under reports/ (plus a summary to stdout).

The standard matrix is every configuration below at seeds 1, 2 and 3;
its reports are checked in under tests/golden/.  Each summary line ends
with the sha256 of its report, so two runs' stdout differ exactly where
their reports do, and then with a second sha256 taken over each check's
name, status and error class alone, so a change that moves only values
leaves that last column as it was.

Usage: python3 scripts/verify_all.py [--seed N ...] [--out DIR]
"""

import argparse
import hashlib
import pathlib
import sys
from dataclasses import replace

import numpy as np

from opcal import cli
from opcal import quantum as qm


def isotropic_phi(d, p):
    """(1 - p)|Omega><Omega| + p I/d^2: faithful for p < 1, but not the
    maximally entangled state."""
    return (1.0 - p) * qm.max_entangled(d).matrix + p * np.eye(d * d) / d**2


def isotropic(d, p):
    """The quantum spec of d whose joint state is isotropic_phi(d, p)."""
    return cli.validate_spec(cli.TheorySpec(backend="quantum", d=d, phi_override=isotropic_phi(d, p)))


CONFIGS = [
    ("quantum-d2", cli.TheorySpec(backend="quantum", d=2)),
    ("quantum-d3", cli.TheorySpec(backend="quantum", d=3)),
    ("quantum-d4", cli.TheorySpec(backend="quantum", d=4)),
    ("classical-d3", cli.TheorySpec(backend="classical", d=3)),
    ("classical-d4", cli.TheorySpec(backend="classical", d=4)),
    ("isotropic-d3-p0.2", isotropic(3, 0.2)),
    ("isotropic-d2-p0.6", isotropic(2, 0.6)),
    ("product-d2", isotropic(2, 1.0)),  # I/4: not faithful
]
SEEDS = (1, 2, 3)

# Negative controls: the checks of a configuration that must not pass.
# The diagonal restriction violates these identities; the product state
# I/4 is not faithful, so nothing can be calibrated on it (its
# gns.kraus_transpose passes because that check does not apply to an
# override).
CLASSICAL_EXPECT_FAIL = ("table1.D4", "table1.D34", "table1.D34'", "table1.P")
EXPECT_FAIL = {
    "classical-d3": CLASSICAL_EXPECT_FAIL,
    "classical-d4": CLASSICAL_EXPECT_FAIL,
    "product-d2": (
        "faithful.dynamical",
        "faithful.preparational",
        "faithful.signature",
        "faithful.abs_gram",
        "faithful.involution",
        "gns.transpose_residual",
        "gns.transpose_axioms",
        "gns.adjoint_pairing",
        "gns.homomorphism",
        "gns.adjoint_rep",
        "gns.cstar",
        "born.pair",
        "born.triple",
    ),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, action="append", dest="seeds")
    parser.add_argument("--out", default="reports")
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for seed in args.seeds or SEEDS:
        for name, spec in CONFIGS:
            report = cli.run_suite(replace(spec, seed=seed), "all")
            expect = EXPECT_FAIL.get(name, ())
            path = out / f"{name}-seed{seed}.report"
            text = cli.emit_report(report, "structured")
            path.write_text(text)
            ok = report.all_pass(expect_fail=expect)
            npass = sum(c.status == "pass" for c in report.checks)
            outcomes = "".join(f"{c.name} {c.status} {c.error.partition(':')[0]}\n" for c in report.checks)
            print(
                f"{name} seed {seed}: {npass}/{len(report.checks)} checks pass"
                + (f" ({len(expect)} expected failures)" if expect else "")
                + f" -> {path}"
                + ("" if ok else "  [UNEXPECTED RESULT]")
                + f"  sha256 {hashlib.sha256(text.encode()).hexdigest()}"
                + f"  status sha256 {hashlib.sha256(outcomes.encode()).hexdigest()}"
            )
            if not ok:
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
