"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench

The traced-count tests run every workload's traced phase twice, about
a minute and a half on two cores.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import worker  # noqa: E402
from metrics import END_TO_END, PER_LAYER, TRACE_OVERHEAD, layer_unit  # noqa: E402
from tracer import LAYERS, Tracer, opcal_modules, public_functions  # noqa: E402
from workloads import WORKLOADS, theory_text  # noqa: E402

from opcal import cli  # noqa: E402


def traced_bindings():
    """Every `module.attribute` (and TransposeSolver method) that
    currently holds a tracing wrapper."""
    found = [
        f"{name}.{attr}"
        for name, mod in opcal_modules().items()
        for attr, value in vars(mod).items()
        if getattr(value, "__qualname__", "").startswith("traced:")
    ]
    solver = vars(opcal_modules()["opcal.gns"].TransposeSolver)
    found += [f"TransposeSolver.{m}" for m in ("__init__", "transpose") if solver[m].__qualname__.startswith("traced:")]
    return found


def theory_file(tmp_path, w, seed):
    if not w.iso_p:
        return "-"
    path = tmp_path / f"{w.name}.theory"
    path.write_text(theory_text(w, seed))
    return str(path)


# -- BENCHMARK.json


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(END_TO_END)
    names = [*PER_LAYER, TRACE_OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [(n, *layer_unit(n)) for n in names]
    assert len(PER_LAYER) == 53
    assert max(m["bound"] for m in spec["end_to_end"]) == dict((m["name"], m["bound"]) for m in spec["end_to_end"])["setup_s"]


# -- tracer binding coverage


def test_tracer_replaces_every_binding_and_restores_them():
    before = {name: dict(vars(mod)) for name, mod in opcal_modules().items()}
    expected = {f"{layer}.{attr}" for layer in LAYERS for attr in public_functions(sys.modules[f"opcal.{layer}"])}
    tracer = Tracer().install()
    try:
        wrapped = set(tracer.originals)
        assert expected | {"gns.TransposeSolver", "gns.TransposeSolver.transpose"} == wrapped
        for name, original in tracer.originals.items():
            for modname, mod in opcal_modules().items():
                stale = [attr for attr, value in vars(mod).items() if value is original]
                assert not stale, f"{modname}.{stale} still bound to the unwrapped {name}"
        for name in expected:
            layer, attr = name.split(".", 1)
            assert getattr(sys.modules[f"opcal.{layer}"], attr) is tracer.wrappers[name]
        # names opcal imports from another module are wrapped too
        assert sys.modules["opcal.gns"].compose is tracer.wrappers["core.compose"]
        assert sys.modules["opcal"].apply_local is tracer.wrappers["quantum.apply_local"]
        assert len(traced_bindings()) > len(expected)
    finally:
        tracer.uninstall()
    assert traced_bindings() == []
    after = {name: dict(vars(mod)) for name, mod in opcal_modules().items()}
    assert after.keys() == before.keys()
    for name in before:
        assert all(after[name][k] is v for k, v in before[name].items()), name


def test_untraced_run_has_no_wrapper_installed(monkeypatch, capsys):
    seen = []
    report = worker.Verifier.report

    def spy(self, spec):
        seen.append(traced_bindings())
        return report(self, spec)

    monkeypatch.setattr(worker.Verifier, "report", spy)
    worker.main(["c4-seeds", "5", "steady", "0.2", repr(time.monotonic() + 60), "-", "-"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(seen) == 1 + len(out["steady"]) >= 4
    assert all(bindings == [] for bindings in seen)
    assert all(r["s_ref"] > 0 and 0 <= r["probe_s"] < r["s"] for r in [out["first"], *out["steady"]])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_steady_loop_stops_on_seconds_and_before_the_deadline(monkeypatch):
    verifier = worker.Verifier(cli, WORKLOADS["c4-seeds"])
    monkeypatch.setattr(verifier, "report", lambda spec: time.sleep(0.02) or spec)

    def loop(specs, seconds, deadline):
        return verifier.loop(iter(specs), seconds, deadline)

    far = time.monotonic() + 3600
    assert loop(range(100), 0.0, far) == [0, 1, 2]  # at least three
    assert 3 < len(loop(range(1000), 0.3, far)) < 20
    near = time.monotonic() + worker.DEADLINE_MARGIN_S
    assert loop(range(100), 10.0, near) == [0]  # then only one


# -- host speed


def test_speed_meter_rescales_by_probe_time():
    meter = hostspeed.SpeedMeter()
    slow = 2 * hostspeed.PROBE_S  # probes at half the reference speed
    meter.probes = [(float(t), slow, 0.01) for t in range(10)]
    speed, spent = meter.speed(2.0, 7.0)
    assert speed == pytest.approx(0.5) and spent == pytest.approx(0.05)
    # fewer than MIN_PROBES inside: the nearest ones stand in for them
    meter.probes.append((20.0, hostspeed.PROBE_S / 2, 0.01))
    speed, spent = meter.speed(19.5, 20.5)
    assert hostspeed.MIN_PROBES == 5
    assert speed == pytest.approx((2 + 4 * 0.5) / 5) and spent == pytest.approx(0.01)


def test_speed_meter_leaves_reports_and_signals_as_they_were():
    w = WORKLOADS["c4-seeds"]
    spec = next(worker.build_specs(cli, w, 6, [0], "-"))
    verifier = worker.Verifier(cli, w)
    plain = verifier.report(spec)
    handler = signal.getsignal(signal.SIGALRM)
    meter = hostspeed.SpeedMeter().start()
    try:
        metered = verifier.report(spec)
    finally:
        meter.stop()
    assert len(meter.probes) >= 1
    assert metered["sha256"] == plain["sha256"] and metered["problems"] == []
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- correctness gate


class StubCli:
    """opcal's own report model and formats around a canned report."""

    def __init__(self, statuses, tamper=False):
        self.statuses = statuses
        self.tamper = tamper
        self.emit_report = cli.emit_report

    def run_suite(self, spec, suite):
        checks = [cli.CheckResult(name, "detail", status, 1e-9, {"r": 0.5}) for name, status in self.statuses]
        return cli.Report(suite, spec.backend, spec.d, spec.seed, "x", checks)

    def parse_report(self, text):
        parsed = cli.parse_report(text)
        if self.tamper:
            parsed.checks[0].status = "fail"
        return parsed


def gate(workload, statuses, tamper=False):
    w = WORKLOADS[workload]
    w = replace(w, checks=len(statuses))
    spec = cli.TheorySpec(w.backend, w.d)
    return worker.Verifier(StubCli(statuses, tamper), w).report(spec)


def test_gate_negative_controls_must_not_pass():
    controls = WORKLOADS["c4-seeds"].negative_controls
    ok = gate("c4-seeds", [("core.a", "pass")] + [(c, "fail") for c in controls])
    assert ok["unmet"] == [] and ok["problems"] == []
    bad = gate("c4-seeds", [("core.a", "pass")] + [(c, "pass") for c in controls])
    assert bad["unmet"] == list(controls) and len(bad["problems"]) == len(controls)


def test_gate_counts_known_defect_without_flagging_it():
    r = gate("q3-iso", [("core.a", "pass"), ("gns.cstar", "fail")])
    assert r["unmet"] == ["gns.cstar"] and r["problems"] == []
    # the same failure on a canonical workload is a regression
    r = gate("q2-seeds", [("core.a", "pass"), ("gns.cstar", "fail")])
    assert r["unmet"] == ["gns.cstar"] and r["problems"]
    r = gate("q2-seeds", [("core.a", "error")])
    assert r["unmet"] == ["core.a"] and r["problems"]


def test_gate_rejects_a_report_that_does_not_round_trip():
    r = gate("q2-seeds", [("core.a", "pass"), ("core.b", "pass")], tamper=True)
    assert r["intact"] is False
    assert "report does not round-trip through parse_report" in r["problems"]


# -- traced counts (per report)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload's traced phase, run twice in one process after one
    untraced report (which fills opcal's caches, as in run.py)."""
    tmp = tmp_path_factory.mktemp("theory")
    out = {}
    for name, w in WORKLOADS.items():
        theory = theory_file(tmp, w, 3)
        worker.Verifier(cli, w).report(next(worker.build_specs(cli, w, 3, [0], theory)))
        out[name] = [worker.traced_phase(cli, w, 3, theory, "-") for _ in range(2)]
    return out


def test_traced_reports_meet_their_expectations(traced):
    for name, runs in traced.items():
        for reports, _, _ in runs:
            assert [r["problems"] for r in reports] == [[]] * WORKLOADS[name].traced_reports, name


def test_exact_counts_repeat(traced):
    for name, ((_, first, _), (_, second, _)) in traced.items():
        counts = {k: v for k, v in first.items() if k.endswith(".calls") or k.endswith("hit_ratio")}
        assert counts == {k: second[k] for k in counts}, name


def test_every_layer_metric_moves_on_some_workload(traced):
    for metric in PER_LAYER:
        assert any(runs[0][1][metric] > 0 for runs in traced.values()), metric


def test_quoted_counts_reproduce(traced):
    q4 = traced["q4-all"][0][1]
    assert q4["gns.gns_space.calls"] == 6
    assert q4["infodim.dim_identities.calls"] == 9
    assert q4["gns.TransposeSolver.calls"] == 9
    assert q4["faithful.local_action_matrix.calls"] == 21
    assert q4["faithful.spectral_split.calls"] == 9
    assert q4["basis.to_coords.calls"] == pytest.approx(17_600, rel=0.01)
    assert q4["core.compose.calls"] == pytest.approx(26_000, rel=0.02)
    q3 = traced["q3-iso"][0][1]
    assert q3["faithful.prepare_witness.calls"] == pytest.approx(111, rel=0.05)
    assert q3["channels.apply_local_super.calls"] == pytest.approx(10_700, rel=0.01)
    assert q3["basis.to_coords.calls"] == pytest.approx(15_300, rel=0.01)
    assert q3["cli.load_theory.s"] > 0
    c4 = traced["c4-seeds"][0][1]
    assert c4["channels.choi_to_super.calls"] == 493
    assert c4["core.trans_norm.calls"] == traced["q2-seeds"][0][1]["core.trans_norm.calls"] == 103
    assert c4["channels.apply_local_super.calls"] == 0
    for metric, value in c4.items():
        if metric.startswith(("gns.", "faithful.", "quantum.")) and metric.endswith(".calls"):
            assert value == 0, metric


# -- the command


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    done = run_bench(ROOT, "--workload", "c4-seeds", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m[0] for m in END_TO_END] if trace == "0" else [*PER_LAYER, TRACE_OVERHEAD]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert '"git_sha"' in done.stdout and '"blas_threads": 1' in done.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(str(tmp_path), "--workload", "q2-seeds", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
