#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per metric, the median
and the spread: the distance between the first and third quartile of the
per-run values (statistics.quantiles, n=4) as a share of their median.
Compares each spread with the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload ingest-mixed --seeds 1-10 [--trace 0]

Run it from the repository root; each run goes through perfbench/run.py.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        probe = [line.split()[4] for line in lines if line.startswith("# host probe median")]
        print(f"seed {seed}: probe={probe[0] if probe else '-'} "
              + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), file=sys.stderr)
    print(f"{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        s = spread(values) if len(values) >= 2 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or s <= bound / 3 else "  > bound/3"
        print(f"{name:<36} {statistics.median(values):>14.4f} {s:>8.4f} "
              f"{'-' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
