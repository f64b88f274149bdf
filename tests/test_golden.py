"""Reports of the standard configurations against reports generated by
an earlier version of the toolkit (tests/golden/, written by
`scripts/verify_all.py --seed 42`).  A faster or restructured
implementation may move a value within its check's tolerance, but it
must never change a status."""

import pathlib
import sys
from dataclasses import replace

import pytest

from opcal import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "scripts"))
from verify_all import CONFIGS  # noqa: E402

SEED = 42


@pytest.mark.parametrize("name, spec", CONFIGS, ids=[name for name, _ in CONFIGS])
def test_matches_golden_report(name, spec):
    golden = cli.parse_report((GOLDEN / f"{name}-seed{SEED}.report").read_text())
    report = cli.run_suite(replace(spec, seed=SEED), "all")
    assert [c.name for c in report.checks] == [c.name for c in golden.checks]
    for got, want in zip(report.checks, golden.checks):
        assert (got.status, got.detail, got.tolerance) == (
            want.status,
            want.detail,
            want.tolerance,
        ), got.name
        assert got.values.keys() == want.values.keys(), got.name
        for key, value in want.values.items():
            assert abs(got.values[key] - value) <= want.tolerance, (got.name, key)
