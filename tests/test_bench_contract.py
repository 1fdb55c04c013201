"""The interface the benchmark in ``perfbench/`` relies on.

The benchmark's tracer replaces module attributes of ``fusedfir`` by name
and drops every per-layer metric whose hook has gone missing, so renaming
or removing one of those attributes silently shrinks its output.  Each
check runs in a child interpreter, so no hook is installed in this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import RUN_ARGS, write_scenario

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_every_hook_is_present():
    code = (
        "import json\n"
        "from tracer import COUNTER_HOOKS, POOL_HOOK, SPAN_HOOKS, Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps({'hooks': len(SPAN_HOOKS) + len(COUNTER_HOOKS) + 1,\n"
        "                  'missing': tracer.missing_hooks}))\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # The grid search is serial, so the thread-pool hook has nothing to replace.
    assert result == {"hooks": 18, "missing": ["fusedfir.pipeline.ThreadPoolExecutor"]}


def test_setup_probe_env():
    proc = python(str(BENCH / "setup_probe.py"), "--env")
    assert proc.returncode == 0, proc.stderr
    env = json.loads(proc.stdout.splitlines()[-1])
    assert env["cli_threads_default"] == 1


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """Spans JSON and output directory of one traced default ``run``."""
    tmp_path = tmp_path_factory.mktemp("traced")
    data = tmp_path / "data"
    python("-m", "fusedfir.cli", "synth", str(write_scenario(tmp_path)), "--out", str(data))
    out = tmp_path / "run"
    spans = tmp_path / "spans.json"
    proc = python(
        str(BENCH / "traced_cli.py"), str(spans), str(out / "report.json"), "--",
        "run", "--manifest", str(data / "manifest.json"), "--out", str(out), *RUN_ARGS,
    )
    assert proc.returncode == 0, proc.stderr
    return spans, out


def test_traced_run_emits_every_per_layer_metric(traced_run):
    spans, _ = traced_run
    code = (
        "import json, sys\n"
        "from tracer import layer_metrics\n"
        "trace = json.load(open(sys.argv[1], encoding='utf-8'))\n"
        "print(json.dumps({'missing': trace['missing_hooks'],\n"
        "                  'metrics': sorted(layer_metrics(trace))}))\n"
    )
    proc = python("-c", code, str(spans))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == ["fusedfir.pipeline.ThreadPoolExecutor"]
    # The benchmark adds these three itself, from the child and the spans.
    emitted = set(result["metrics"]) | {"trace.overhead_s", "trace.unaccounted_s", "run.cpu_s"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert emitted == {m["name"] for m in declared}


def test_traced_run_makes_one_pooled_fit_per_category_plus_two(traced_run):
    # The bounds and lambda1_max fit the pooled model once each; the refit
    # fits each category once.
    spans, out = traced_run
    trace = json.loads(spans.read_text(encoding="utf-8"))
    k = json.loads((out / "report.json").read_text(encoding="utf-8"))["clusters"]["k"]
    fits = [s for s in trace["spans"] if s["name"] == "estimation.pooled_ls_fit"]
    assert len(fits) == k + 2


def test_traced_run_spans_one_solve_per_grid_point_plus_the_final(traced_run):
    # The grid must solve through ``fusedfir.pipeline.solve``, the binding
    # the tracer replaces, or the benchmark loses the grid's iterations.
    spans, out = traced_run
    trace = json.loads(spans.read_text(encoding="utf-8"))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    solves = [s["attrs"]["iterations"] for s in trace["spans"] if s["name"] == "solver.solve"]
    expected = [row["iterations"] for row in report["score_table"]] + [report["solve"]["iterations"]]
    assert sorted(solves) == sorted(expected)
