"""Self-tests of the benchmark: python3 -m pytest capbench -q (about a minute)."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest                                               # noqa: E402

import capgraph.verify                                      # noqa: E402

import inputs                                               # noqa: E402
import tracer as tr                                         # noqa: E402
import worker                                               # noqa: E402
import workloads                                            # noqa: E402


def test_inputs_depend_on_the_seed_only():
    for make in (lambda s: inputs.cap_problems(s, 4, 2, [False, True] * 2),
                 lambda s: inputs.cap_problems(s, 8, 1, [True] * 8),
                 lambda s: inputs.mms_caps(s, 3)):
        assert make(11) == make(11)
        assert make(11) != make(12)


def test_draws_are_stratified():
    beta = sorted(p.beta for p in inputs.cap_problems(5, 4, 2, [True] * 4))
    slices = [int((b - 0.5) / 1.5 * 4) for b in beta]
    assert slices == [0, 1, 2, 3]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_of_each_workload_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    out = wl.op(1)
    assert wl.check(1, out) == []


def test_cli_certify_fails_a_skipped_or_inapplicable_certificate(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["cli_certify"](3, tmp_path)
    out = wl.op(0)
    report = wl.outdir / "report.jsonl"
    kept = [line for line in report.read_text().splitlines()
            if '"strong-form-residual"' not in line]
    report.write_text("\n".join(kept) + "\n")
    assert wl.check(0, out) == ["certificate strong-form-residual missing from report.jsonl"]

    def broken(*args, **kwargs):
        raise ValueError("no effective constants")

    monkeypatch.setattr(capgraph.verify, "effective_constants", broken)
    assert any("not applicable" in cause for cause in wl.check(0, out))


def _targets():
    return {(m, p): tr._resolve(m, p) for _, m, p in tr.SPAN_TARGETS + tr.COUNT_TARGETS}


def _current(targets):
    return {key: vars(owner)[attr] for key, (owner, attr) in targets.items()}


def test_tracer_restores_every_patched_attribute(tmp_path):
    targets = _targets()
    assert None not in targets.values(), "a wrap target no longer exists"
    before = _current(targets)
    wl = workloads.WORKLOADS["oracle_1d"](0, tmp_path)
    tracer = tr.Tracer()
    with tracer.operation(0):
        assert all(_current(targets)[k] is not before[k] for k in before)
        wl.op(0)
    assert _current(targets) == before
    with pytest.raises(ZeroDivisionError):
        with tracer.operation(1):
            1 / 0
    assert _current(targets) == before
    assert tracer.missing == []


def test_missing_targets_are_reported(monkeypatch):
    monkeypatch.setattr(tr, "COUNT_TARGETS",
                        tr.COUNT_TARGETS + [("gone.layer", "capgraph.verify", "no_such_fn")])
    tracer = tr.Tracer()
    with tracer.operation(0):
        pass
    assert tracer.missing == ["capgraph.verify.no_such_fn"]
    assert tracer.missing_layers() == ["gone.layer"]


def test_self_times_are_non_negative_on_a_traced_operation(tmp_path):
    wl = workloads.WORKLOADS["cli_certify"](0, tmp_path)
    tracer = tr.Tracer()
    with tracer.operation(0):
        wl.op(0)
    names = {s[0] for s in tracer.spans}
    assert {"solver.newton", "assembly.jacobian", "verify.strong_form",
            "cli.output", tr.ROOT} <= names
    assert min(tracer.self_times()) >= 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = tr.Tracer()
    tracer.spans = [["op", 0.0, 10.0, None, 0],
                    ["a", 1.0, 5.0, 0, 0],          # a and b overlap on [3, 5]
                    ["b", 3.0, 6.0, 0, 0],
                    ["c", 3.5, 4.0, 2, 0]]          # nested in b
    assert tracer.self_times() == [5.0, 4.0, 2.5, 0.5]


def test_spans_from_pool_threads_take_the_operation_as_parent():
    tracer = tr.Tracer()
    with tracer.operation(7):
        worker = threading.Thread(target=lambda: tracer._close(tracer._open("t")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    root = next(i for i, s in enumerate(tracer.spans) if s[0] == tr.ROOT)
    assert tracer.spans[-1][3] == root and tracer.spans[-1][4] == 7


def test_op_s_is_the_mean_of_each_problems_fastest_repetition():
    # operation i solved problem i mod 2: problem 0 took 3 and 2, problem 1 took 1 and 5
    assert worker.best_of_each_problem([3.0, 1.0, 2.0, 5.0], 2) == 1.5
    assert worker.best_of_each_problem([4.0, 2.0, 3.0], 1) == 2.0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle_1d", "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "capbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "capbench" / f.name).write_text(f.read_text())
    (bare / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "capbench/run.py", "--workload", "oracle_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - start < 180
