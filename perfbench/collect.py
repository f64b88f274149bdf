"""Measure a baseline: run.py on every workload for several seeds
(workloads interleaved), plus one traced run per workload.

    python3 perfbench/collect.py --seeds 1-10 --seconds 15 --out perfbench/baseline.json

Prints, per workload and end-to-end metric, the median and the spread
(quartile distance over median, as statistics.quantiles(n=4) gives it)
next to the metric's bound, and writes everything to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from metrics import END_TO_END
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("  env "))[6:])
    return json.loads(lines[-1]), env


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for w in WORKLOADS:
            result, env = run(w, seed, args.seconds, 0)
            runs[w].append({"seed": seed, "env": env, **result})
            print(w, seed, json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}), flush=True)

    out = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for w, rows in runs.items():
        entry = {"correct": all(r["correct"] for r in rows), "runs": rows, "end_to_end": {}}
        print(f"{w}: correct={entry['correct']}")
        for name, unit, _, bound in END_TO_END:
            med, rel = spread([r["metrics"][name]["value"] for r in rows])
            entry["end_to_end"][name] = {"median": med, "unit": unit, "spread": rel, "bound": bound}
            flag = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "OVER BOUND")
            print(f"  {name:<18s} median {med:<12.6g} {unit:<6s} spread {rel:.4f} (bound {bound}) {flag}")
        result, env = run(w, args.seeds[0], args.seconds, 1)
        entry["traced"] = {"seed": args.seeds[0], "env": env, **result}
        out["workloads"][w] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
