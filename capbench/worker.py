"""One workload process: set up, then (optionally) measure.

Started by run.py, never by hand.  The BLAS pools are pinned to one thread
before numpy is imported, so certificate threading is the only parallelism
in the measurement.  Set-up is import, input generation, shared mesh and one
untimed warm-up operation; with ``--measure`` the worker then runs operations
for ``--seconds``.  It prints one JSON line, whose ``ready`` is the wall-clock
time (time.time) at which set-up ended.  A traced run writes its spans to
out/spans-<workload>-seed<seed>.jsonl.
"""

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("CAPGRAPH_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import argparse                                             # noqa: E402
import contextlib                                           # noqa: E402
import json                                                 # noqa: E402
import platform                                             # noqa: E402
import resource                                             # noqa: E402
import statistics                                           # noqa: E402
import time                                                 # noqa: E402
import traceback                                            # noqa: E402

import numpy as np                                          # noqa: E402
import scipy                                                # noqa: E402

import tracer as tr                                         # noqa: E402
import workloads                                            # noqa: E402
import capgraph.cli                                         # noqa: E402
import capgraph.config                                      # noqa: E402

MIN_REPEATS = 2       # of each problem in an untraced run

# per-layer time metric -> (span name, "total" | "self")
LAYER_TIMES = {
    "meshing.build_s": ("meshing.build", "total"),
    "config.load_s": ("config.load", "total"),
    "problem.validate_s": ("problem.validate", "total"),
    "problem.height_bound_s": ("problem.height_bound", "total"),
    "expressions.evaluate_s": ("expressions.evaluate", "total"),
    "assembly.residual_s": ("assembly.residual", "total"),
    "assembly.jacobian_s": ("assembly.jacobian", "total"),
    "solver.newton_self_s": ("solver.newton", "self"),
    "solver.continuation_self_s": ("solver.continuation", "self"),
    "verify.strong_form_s": ("verify.strong_form", "total"),
    "verify.separation_rate_s": ("verify.separation_rate", "total"),
    "verify.angle_s": ("verify.angle", "total"),
    "verify.height_s": ("verify.height", "total"),
    "verify.boundary_gradient_s": ("verify.boundary_gradient", "total"),
    "verify.interior_gradient_s": ("verify.interior_gradient", "total"),
    "verify.mms_manufacture_s": ("verify.mms_manufacture", "total"),
    "verify.oracle_s": ("verify.oracle", "total"),
    "cli.output_s": ("cli.output", "total"),
    "cli.other_s": (tr.ROOT, "self"),
}
# per-layer call counts -> span name
LAYER_CALLS = {
    "meshing.build_calls": "meshing.build",
    "expressions.evaluate_calls": "expressions.evaluate",
    "assembly.residual_calls": "assembly.residual",
    "assembly.jacobian_calls": "assembly.jacobian",
}
# per-layer counts recorded by the tracer under the same name -> the layer they need
LAYER_COUNTS = {
    "solver.newton_iterations": "solver.newton",
    "solver.continuation_steps": "solver.continuation",
    "solver.rejected_steps": "solver.newton",
    "geometry.mean_curvature_strong_calls": "geometry.mean_curvature_strong_calls",
    "cli.output_bytes": "cli.output",
}


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    thread_count = getattr(capgraph.cli, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "certificate_threads": (
            thread_count(argparse.Namespace(threads=None), capgraph.config.RunConfig())
            if thread_count else None),
    }


def run_op(wl, i, failures, scope=contextlib.nullcontext()):
    """Time one operation inside ``scope``, check it after; returns the wall time."""
    t0 = time.perf_counter()
    try:
        with scope:
            out = wl.op(i)
    except Exception as exc:                 # a broken operation is a result
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        return wall
    wall = time.perf_counter() - t0
    try:
        causes = wl.check(i, out)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        causes = [f"check raised {type(exc).__name__}: {exc}"]
    if causes:
        failures.append(f"op {i}: " + "; ".join(causes))
    return wall


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds):
    """Whole cycles of operations until ``seconds`` have passed and MIN_REPEATS cycles ran.

    Whole cycles run every problem equally often.  With at least two
    repetitions of each problem, op_s is a best-of-two or better even when
    a slow spell leaves time for fewer.  The peak resident size is read after
    the first cycle, so it does not depend on how many operations the time
    allowed.
    """
    walls, failures = [], []
    start = time.perf_counter()
    i = 0
    while (i < MIN_REPEATS * wl.cycle or i % wl.cycle
           or time.perf_counter() - start < seconds):
        walls.append(run_op(wl, i, failures))
        i += 1
        if i == wl.cycle:
            rss = peak_rss_mb()
    return walls, failures, rss


def best_of_each_problem(walls, cycle):
    """Mean over the cycle's problems of each problem's fastest repetition.

    On a shared host, interference only ever adds time, and it comes in
    spells of several seconds that can double an operation's wall time.  The
    fastest repetition of a problem is the one least disturbed, so this
    tracks the program's own cost where a median of all operations follows
    the neighbours' load.  ``walls[i]`` is operation i, which solved problem
    i mod cycle.
    """
    return statistics.fmean(min(walls[p::cycle]) for p in range(cycle))


def measure_traced(wl, seconds):
    """Each problem once untraced and once traced, in alternating order."""
    tracer = tr.Tracer()
    plain, traced, failures = [], [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or i % wl.cycle or time.perf_counter() - start < seconds:
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_run:
                traced.append(run_op(wl, i, failures, tracer.operation(i)))
            else:
                plain.append(run_op(wl, i, failures))
        i += 1
    return tracer, plain, traced, failures


def layer_metrics(tracer, plain, traced, n_ops, cycle):
    """Times: median over traced operations.  Counts: mean over the first cycle."""
    table = tracer.per_op()
    ops = range(n_ops)
    missing = set(tracer.missing_layers())
    metrics = {}

    def put(name, value, unit, needs):
        if needs not in missing:
            metrics[name] = {"value": float(value), "unit": unit}

    for name, (span, kind) in LAYER_TIMES.items():
        col = 0 if kind == "total" else 1
        put(name, statistics.median(table[op][span][col] if span in table[op] else 0.0
                                    for op in ops), "s", span)
    first = range(cycle)

    def calls(span):
        return sum(table[op][span][2] if span in table[op] else 0 for op in first)

    def counted(name):
        return sum(tracer.counts[op].get(name, 0.0) for op in first)

    for name, span in LAYER_CALLS.items():
        put(name, calls(span) / cycle, "count", span)
    for name, needs in LAYER_COUNTS.items():
        put(name, counted(name) / cycle, "B" if name.endswith("_bytes") else "count", needs)
    jac = calls("assembly.jacobian")
    put("assembly.jacobian_nnz", counted("assembly.jacobian_nnz") / jac if jac else 0.0,
        "count", "assembly.jacobian")
    put("assembly.jacobian_bytes",
        counted("assembly.jacobian_bytes") / jac if jac else 0.0, "B", "assembly.jacobian")
    accepted, rejected = counted("solver.newton_accepted"), counted("solver.rejected_steps")
    put("solver.step_accept_ratio",
        accepted / (accepted + rejected) if accepted + rejected else 0.0, "1",
        "solver.newton")
    put("solver.residuals_per_iteration",
        calls("assembly.residual") / jac if jac else 0.0, "1", "assembly.residual")
    put("trace.overhead_s", statistics.median(t - p for t, p in zip(traced, plain)),
        "s", tr.ROOT)
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--measure", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.op(0)                                          # untimed warm-up
    ready = time.time()
    if not args.measure:
        print(json.dumps({"ready": ready}), flush=True)
        return 0

    info = {"env": environment()}
    if args.trace:
        tracer, plain, traced, failures = measure_traced(wl, args.seconds)
        metrics = layer_metrics(tracer, plain, traced, len(traced), wl.cycle)
        attempted = len(traced) + len(plain)
        info.update(missing_targets=tracer.missing, traced_op_s=statistics.median(traced),
                    plain_op_s=statistics.median(plain), operations=len(traced))
        for name in ("mms_error_linf", "oracle_gap"):     # 0 where not measured
            metrics[f"verify.{name}"] = {"value": wl.extras.get(name, 0.0), "unit": "1"}
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans, "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    else:
        walls, failures, rss = measure(wl, args.seconds)
        attempted = len(walls)
        best = best_of_each_problem(walls, wl.cycle)
        metrics = {
            "op_s": {"value": best, "unit": "s"},
            "throughput_vps": {"value": wl.nv / best, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "pass_share": {"value": (attempted - len(failures)) / attempted, "unit": "1"},
        }
        info.update(operations=attempted, fail_share=len(failures) / attempted,
                    op_median_s=statistics.median(walls), **wl.extras)
        if attempted >= 100:                     # ten samples above the 90th percentile
            info["op_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    info.update(failures=failures, digests=getattr(wl, "digests", None))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics, "info": info,
                      "ready": ready}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
