"""Self-test of the benchmark itself; runs in about 20 seconds.

Usage (from the root of a fusedfir checkout): python3 perfbench/selftest.py

Covers the self-time arithmetic on hand-made spans and on real spans from
two overlapping threads, every output check on good and on tampered
outputs, and a tiny workload (K=3, 2-point grid) end to end, untraced and
traced.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

from checks import RunChecks, adjusted_rand_index
from run import Invocation
from tracer import Tracer, accounted_s, layer_metrics, self_times, union_length
from workloads import ACCEPT_G0, ACCEPT_G1, Workload

ROOT = Path(__file__).resolve().parent.parent

TINY = Workload(
    name="selftest-k3",
    taps=5,
    channels=3,
    group_truths=(tuple(ACCEPT_G0), tuple(ACCEPT_G1)),
    assignment=(("BR30", 0), ("BR40", 0), ("WBA20", 1)),
    rows=200,
    run_args=("--k", "2", "--lambda1-factors", "1e-2", "--lambda2-values", "0,1e-2"),
    check_fit_separation=True,
)


def span(sid, parent, thread, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "thread": thread,
            "start": start, "end": end, "attrs": {}}


def test_self_time_arithmetic() -> None:
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0
    spans = [
        span(1, None, 1, 0.0, 10.0),
        span(2, 1, 1, 1.0, 3.0),
        span(3, 1, 1, 3.0, 9.0),      # submits to two worker threads
        span(4, 3, 2, 3.5, 8.0),      # worker thread 2
        span(5, 3, 3, 4.0, 8.5),      # worker thread 3, overlaps span 4
        span(6, 4, 2, 4.0, 5.0),      # nested on thread 2
    ]
    own = self_times(spans)
    assert own == {1: 2.0, 2: 2.0, 3: 1.0, 4: 3.5, 5: 4.5, 6: 1.0}, own
    assert accounted_s(spans) == 10.0


def test_tracer_two_threads() -> None:
    tracer = Tracer()
    work = tracer.wrap("leaf", lambda s: time.sleep(s))
    barrier = threading.Barrier(2)

    def task(s):
        barrier.wait(timeout=5)
        work(s)

    task = tracer.wrap("task", task)

    def fan_out():
        with tracer.pool_class()(max_workers=2) as pool:
            list(pool.map(task, [0.05, 0.08]))

    root = tracer.wrap("root", lambda: (time.sleep(0.02), tracer.wrap("grid", fan_out)()))
    root()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root_span,), (grid,) = by_name["root"], by_name["grid"]
    tasks = by_name["task"]
    assert len(tasks) == 2 and all(t["parent"] == grid["id"] for t in tasks)
    assert len({t["thread"] for t in tasks}) == 2
    assert all(t["thread"] != root_span["thread"] for t in tasks)
    # The two tasks overlap in time, because both waited on the barrier.
    assert max(t["start"] for t in tasks) < min(t["end"] for t in tasks)
    leaves = by_name["leaf"]
    assert {l["parent"] for l in leaves} == {t["id"] for t in tasks}
    own = self_times(tracer.spans)
    assert own[grid["id"]] < 0.05, own[grid["id"]]
    total = root_span["end"] - root_span["start"]
    assert abs(accounted_s(tracer.spans) - total) < 1e-9


def test_missing_hook_is_named() -> None:
    trace = {"spans": [], "counters": {}, "import_s": 1.0, "report_bytes": 10,
             "missing_hooks": ["fusedfir.pipeline.lambda1_max"]}
    metrics = layer_metrics(trace)
    assert "bounds.lambda1_max_s" not in metrics
    assert metrics["bounds.compute_bounds_s"] == (0.0, "s")


def test_ari() -> None:
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) < 1.0


def tamper(src: Path, dst: Path, edit) -> Path:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    report = json.loads((dst / "report.json").read_text())
    edit(report, dst)
    if (dst / "report.json").exists():
        (dst / "report.json").write_text(json.dumps(report))
    return dst


def test_checks_catch_bad_outputs(good: Path, truth: dict, eval_conditions: dict) -> None:
    def fresh():
        checks = RunChecks(truth, eval_conditions, fit_separation=True)
        assert checks.add("good", 0, good)
        return checks

    checks = fresh()
    assert checks.add("again", 0, good) and checks.passed

    checks = fresh()
    assert not checks.add("exit", 1, good)
    assert checks.failures["exit_and_outputs"]

    def drop_csv(report, d):
        (d / "fit_matrix.csv").unlink()

    checks = fresh()
    assert not checks.add("missing", 0, tamper(good, good.parent / "t-missing", drop_csv))

    def relabel(report, d):
        first = sorted(report["clusters"]["labels"])[0]
        report["clusters"]["labels"][first] ^= 1

    checks = fresh()
    assert not checks.add("labels", 0, tamper(good, good.parent / "t-labels", relabel))
    assert checks.failures["clusters_ari"] and checks.failures["report_identical"]

    def more_iterations(report, d):
        report["solve"]["iterations"] += 1

    checks = fresh()
    assert not checks.add("iters", 0, tamper(good, good.parent / "t-iters", more_iterations))
    assert checks.failures["iterations_repeat"]

    def blur_fit(report, d):
        for cell in report["fit_reports"]:
            cell["fit_percent"] = 75.0

    checks = fresh()
    assert not checks.add("fit", 0, tamper(good, good.parent / "t-fit", blur_fit))
    assert checks.failures["fit_separation"]
    assert not checks.passed


def test_tiny_workload() -> None:
    inv = Invocation(TINY, seed=7, seconds=1, root=ROOT)
    metrics = inv.measure()
    assert inv.checks.passed and inv.failed == 0, inv.checks.verdicts()
    assert set(metrics) == {"run_s", "setup_s", "peak_rss_mb", "heldout_fit_pct"}
    assert len(inv.samples["run_s"]) >= 2 and len(inv.samples["setup_s"]) >= 3
    truth = json.loads((inv.run_dir.parent / "fixed" / "data" / "ground_truth.json").read_text())
    test_checks_catch_bad_outputs(inv.run_dir / "out-0", truth, inv.eval_conditions)

    traced = Invocation(TINY, seed=7, seconds=1, root=ROOT)
    layers = traced.measure_traced()
    assert traced.checks.passed and traced.failed == 0, traced.checks.verdicts()
    assert layers["pipeline.grid_points"][0] == 2
    assert layers["solver.solve_calls"][0] == 3
    assert layers["data.load_dataset_calls"][0] == 9
    assert layers["pipeline.evaluate_cells"][0] == 2 * 3
    # Two fits behind the bounds, one refit per category.
    assert layers["estimation.pooled_ls_fit_calls"][0] == 2 + 2
    assert "trace_iterations" in traced.checks.failures
    assert "trace.overhead_s" in layers and "import.s" in layers and "run.cpu_s" in layers
    shutil.rmtree(inv.run_dir.parent)


def main() -> int:
    for test in (test_self_time_arithmetic, test_tracer_two_threads,
                 test_missing_hook_is_named, test_ari, test_tiny_workload):
        start = time.perf_counter()
        test()
        print(f"PASS {test.__name__} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
