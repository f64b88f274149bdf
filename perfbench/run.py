"""opcal benchmark: one workload, one run.

    python3 perfbench/run.py --workload q2-seeds --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workers are fresh interpreters with
`src` on PYTHONPATH, started one after another (a closed loop with one
client).  With --trace 0 the last line is a JSON object holding every
end-to-end metric; with --trace 1 it holds the per-layer metrics of a
separate traced phase.  Inputs, spans and the q3-iso theory file go to
`.perfbench/` under the current directory.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, TRACE_OVERHEAD, layer_unit
from workloads import SETUP_PROCS, WORKLOADS, theory_text

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Every worker of a run must end within --seconds plus this.  The steady
# loop stops early rather than run past it, so a slower program yields
# fewer reports, not a killed run.
DEADLINE_SLACK_S = 155.0
PERCENTILES = (0.999, 0.99, 0.9, 0.5)


class WorkerFailed(RuntimeError):
    pass


def git_sha(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def nproc():
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One OpenBLAS thread: a report then runs on the one CPU whose speed
    # the worker's SpeedMeter samples.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Runner:
    def __init__(self, root, workload, seed, seconds, theory, spans):
        self.root = root
        self.w = workload
        self.seed = seed
        self.theory = theory or "-"
        self.spans = spans or "-"
        self.env = worker_env(root)
        self.deadline = time.monotonic() + seconds + DEADLINE_SLACK_S

    def spawn(self, role, seconds=0.0):
        """Run one worker to completion; returns its result with the
        set-up time (spawn to spec 0 validated) added as `setup_s`."""
        cmd = [sys.executable, WORKER, self.w.name, str(self.seed), role, repr(seconds), repr(self.deadline), self.theory, self.spans]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise WorkerFailed(f"{role} worker exited with code {proc.returncode}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - start
        return out


def high_percentile(values):
    """Highest of PERCENTILES with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1.0 - p) >= 10:
            return p, ordered[min(n - 1, int(p * n))]
    return None, None


def tally(reports):
    """(reports attempted, reports failing the gate, checks, failed checks)."""
    checks = sum(r["checks"] for r in reports)
    unmet = sum(len(r["unmet"]) if r["intact"] else r["checks"] for r in reports)
    return len(reports), sum(bool(r["problems"]) for r in reports), checks, unmet


def show(name, value, unit, note=""):
    print(f"  {name:<34s} {value:>14.6g} {unit:<6s} {note}".rstrip())


def end_to_end(runner, seconds):
    w = runner.w
    # set-up only, then cold first reports; the last process goes on to
    # the steady loop
    roles = ["setup"] * max(0, SETUP_PROCS - w.first_procs) + ["first"] * (w.first_procs - 1) + ["steady"]
    procs = [runner.spawn(role, seconds) for role in roles]
    firsts = [p["first"] for p in procs if "first" in p]
    if len({r["sha256"] for r in firsts}) > 1:
        for r in firsts:
            r["intact"] = False
            r["problems"].append("structured bytes differ between fresh processes")
    steady = procs[-1]["steady"]
    times = [r["s_ref"] for r in steady]
    _, _, checks, unmet = tally(firsts + steady)

    metrics = {
        "setup_s": statistics.median((proc["setup_s"] - proc["setup_probe_s"]) * proc["setup_speed"] for proc in procs),
        "first_report_s": statistics.median(r["s_ref"] for r in firsts),
        "report_s_p50": statistics.median(times),
        "checks_per_s": sum(r["checks"] for r in steady) / sum(times),
        "checks_met_ratio": (checks - unmet) / checks,
        "peak_rss_mb": procs[-1]["peak_rss_mb"],
    }
    p, value = high_percentile(times)
    wall = statistics.median  # of the times before rescaling, probes excluded
    notes = {
        "setup_s": f"median of {len(procs)} fresh processes; wall {wall(proc['setup_s'] - proc['setup_probe_s'] for proc in procs):.6g} s",
        "first_report_s": f"median of {len(firsts)} fresh processes, cold caches; wall {wall(r['s'] - r['probe_s'] for r in firsts):.6g} s",
        "report_s_p50": f"n={len(times)}, "
        + (f"p{p * 100:g}={value:.6g} s" if p else "no percentile has 10 samples beyond it")
        + f"; wall {wall(r['s'] - r['probe_s'] for r in steady):.6g} s",
        "checks_per_s": f"{sum(r['checks'] for r in steady)} checks in {sum(times):.3f} s ({sum(r['s'] - r['probe_s'] for r in steady):.3f} s wall)",
        "checks_met_ratio": f"checks_failed_ratio = {unmet}/{checks} = {unmet / checks:.6g}",
        "peak_rss_mb": "steady-state process, getrusage",
    }
    for name, unit, _, _ in END_TO_END:
        show(name, metrics[name], unit, notes[name])
    return metrics, firsts + steady, {"processes": len(procs), **procs[-1]["env"]}


def traced(runner, seconds):
    out = runner.spawn("trace", seconds / 2.0)
    untraced = statistics.median(r["s"] - r["probe_s"] for r in out["steady"])
    metrics = dict(out["layer"])
    metrics[TRACE_OVERHEAD] = out["traced_p50"] - untraced
    for name in PER_LAYER:
        show(name, metrics[name], layer_unit(name)[0])
    show(TRACE_OVERHEAD, metrics[TRACE_OVERHEAD], "s", f"traced p50 {out['traced_p50']:.6g} s - untraced p50 {untraced:.6g} s")
    reports = [out["first"], *out["steady"], *out["traced"]]
    return metrics, reports, {"traced_reports": len(out["traced"]), "spans": out["spans"], **out["env"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="opcal benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "opcal", "__init__.py")):
        print("perfbench: no src/opcal here; run from the repository root", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    theory = None
    if w.iso_p:
        theory = os.path.join(outdir, f"{w.name}.theory")
        with open(theory, "w", encoding="utf-8") as fh:
            fh.write(theory_text(w, args.seed))
    spans = os.path.join(outdir, f"spans-{w.name}.tsv") if args.trace else None

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {w.why}")
    runner = Runner(root, w, args.seed, args.seconds, theory, spans)
    try:
        metrics, reports, stamp = (traced if args.trace else end_to_end)(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, _, _ = tally(reports)
    stamp.update(git_sha=git_sha(root), nproc=nproc(), workload=w.name, seed=args.seed, reports=attempted)
    print("  env " + json.dumps(stamp, sort_keys=True))
    for r in reports:
        for problem in r["problems"]:
            print(f"  INCORRECT seed {r['seed']}: {problem}")
    if spans:
        print(f"  spans written to {os.path.relpath(spans, root)}")
    units = {name: unit for name, unit, _, _ in END_TO_END}
    units.update({name: layer_unit(name)[0] for name in (*PER_LAYER, TRACE_OVERHEAD)})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
