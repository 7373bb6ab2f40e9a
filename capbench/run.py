"""capgraph benchmark: time to a certified solution, per workload.

    python3 capbench/run.py --workload cli_certify --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads (see workloads.py):

    newton_fine   library continuation on a 19,441-vertex warped disk
    cli_certify   `capgraph solve` with all certificates and outputs, 4,921 vertices
    mms_study     `capgraph mms`, manufactured cap, three refinement levels
    oracle_1d     many short `capgraph oracle1d` runs on warped intervals

With ``--trace 0`` the workload is set up SETUPS times or more (cheap
set-ups are repeated up to SETUP_BUDGET_S seconds), each in a fresh
interpreter, timed from just before the interpreter starts to the end of its
set-up; the median of those set-up times is ``setup_s``, and the last process
goes on to measure for ``--seconds``.  ``op_s`` is the mean over the workload's
problems of each problem's fastest repetition in the run (see
worker.best_of_each_problem) and ``throughput_vps`` the vertices solved per
second at that time; the median operation time is printed as ``op_median_s``.
With ``--trace 1`` one process
measures each problem once untraced and once traced, and reports the
per-layer metrics; its spans are written to capbench/out/.  Every operation's
output is checked; the last line of stdout is the JSON result.  Accuracy
figures (`mms_error_linf`, `oracle_gap`) and `op_p90_s` are printed where
the workload has them; the per-layer ``verify.*`` accuracy entries read 0 on
workloads that do not measure them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("newton_fine", "cli_certify", "mms_study", "oracle_1d")
SETUPS = 3             # set-ups per run at least; more while they have taken
SETUP_BUDGET_S = 6.0   # under this many seconds in all, up to MAX_SETUPS
MAX_SETUPS = 9
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(args, workdir, measure, deadline):
    """Run one worker to its end; returns (set-up seconds, its JSON line less ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if measure:
        cmd.append("--measure")
    t0 = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    return result.pop("ready") - t0, result


def run(args):
    if not (ROOT / "src" / "capgraph" / "__init__.py").is_file():
        raise BenchError(f"no capgraph sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out"
    workdir = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            _, result = _worker(args, workdir / "0", True, deadline)
            setups = []
        else:
            setups = []
            while len(setups) < MAX_SETUPS - 1 and (
                    len(setups) < SETUPS - 1 or sum(setups) < SETUP_BUDGET_S):
                setups.append(_worker(args, workdir / str(len(setups)), False, deadline)[0])
            setup, result = _worker(args, workdir / str(len(setups)), True, deadline)
            setups.append(setup)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                            "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setups, result


def report(args, setups, result):
    info = result.pop("info")
    print(f"capbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(info.pop("env"), sort_keys=True))
    if setups:
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    for name, m in sorted(result["metrics"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: {info.pop('operations')} measured, "
          f"{result['failed']} failed of {result['attempted']} attempted")
    for cause in info.pop("failures"):
        print(f"FAILED {cause}")
    for name, value in sorted(info.items()):
        if value is not None:
            print(f"{name} = {json.dumps(value)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (subprocess.run kills it on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        setups, result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"capbench: {exc}", file=sys.stderr)
        return 1
    report(args, setups, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
