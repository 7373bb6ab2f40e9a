"""Run the benchmark once per seed and summarise each metric's spread.

    python3 capbench/spread.py --workload oracle_1d --seeds 1-10 [--trace 1]
        [--record capbench/baseline.json --label first]

For every metric prints the median, the quartiles (statistics.quantiles,
n=4) and the inter-quartile distance as a share of the median.  With
``--record`` the summary is merged into a JSON file under
``<workload>/<trace0|trace1>/<label>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None)
    ap.add_argument("--label", default="runs")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    values, failed = {}, 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            failed += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += not result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(result["metrics"].items())),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {name: summarise(v) for name, v in sorted(values.items()) if len(v) >= 2}
    for name, s in summary.items():
        print(f"{name}: median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"iqr/median={s['iqr_share']:.4f}")
    if args.record:
        data = json.loads(args.record.read_text()) if args.record.exists() else {}
        data.setdefault(args.workload, {}).setdefault(f"trace{args.trace}", {})[
            args.label] = {"seeds": args.seeds, "seconds": seconds, "metrics": summary}
        args.record.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
