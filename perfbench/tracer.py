"""In-memory span tracer for one traced ``fusedfir run``.

Hooks replace the module attributes that the CLI and the pipeline call
through, so the program's code is unchanged.  Each call through a hook
records a span (name, start, end, parent, thread id) on a per-thread
stack; calls made on the grid-search thread pool inherit the span that
submitted them as their parent.  The scipy factor/solve calls inside the
solver are only counted and timed, because there are hundreds of
thousands of them.  Spans stay in memory and are written out once, by
``dump``, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# (module, attribute, span name).  Span names are "<layer>.<function>".
SPAN_HOOKS = (
    ("fusedfir.cli", "cmd_run", "cli.cmd_run"),
    ("fusedfir.cli", "load_manifest", "data.load_manifest"),
    ("fusedfir.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("fusedfir.pipeline", "load_dataset", "data.load_dataset"),
    ("fusedfir.pipeline", "build_regressor", "data.build_regressor"),
    ("fusedfir.pipeline", "compute_bounds", "bounds.compute_bounds"),
    ("fusedfir.pipeline", "lambda1_max", "bounds.lambda1_max"),
    # The bounds and the per-category refit each call it through their own
    # module's binding.
    ("fusedfir.bounds", "pooled_ls_fit", "estimation.pooled_ls_fit"),
    ("fusedfir.pipeline", "pooled_ls_fit", "estimation.pooled_ls_fit"),
    ("fusedfir.pipeline", "grid_search", "pipeline.grid_search"),
    ("fusedfir.pipeline", "solve", "solver.solve"),
    ("fusedfir.pipeline", "auto_select_k", "pipeline.auto_select_k"),
    ("fusedfir.pipeline", "kmeans", "pipeline.kmeans"),
    ("fusedfir.pipeline", "refit_clusters", "pipeline.refit_clusters"),
    ("fusedfir.pipeline", "cross_evaluate", "pipeline.cross_evaluate"),
)
COUNTER_HOOKS = (
    ("fusedfir.solver", "cho_solve", "solver.cho_solve"),
    ("fusedfir.solver", "cho_factor", "solver.cho_factor"),
)
POOL_HOOK = ("fusedfir.pipeline", "ThreadPoolExecutor")


def _span_attrs(name: str, args: tuple, result) -> dict:
    """Counts taken from a hooked call's arguments and result."""
    if name == "data.load_dataset":
        return {"rows": int(result.sample_count), "bytes": os.path.getsize(args[0])}
    if name == "solver.solve":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if name == "pipeline.cross_evaluate":
        return {"cells": len(result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing_hooks: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counters: list[dict[str, list[float]]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Innermost open span of this thread, else the one it inherited."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            # Recorded only for calls that returned; a raising call ends the run.
            self.spans.append(
                {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "thread": threading.get_ident(),
                    "start": start,
                    "end": end,
                    "attrs": _span_attrs(name, args, result),
                }
            )
            return result

        return traced

    def _counter(self, name: str) -> list[float]:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(counters)
        if name not in counters:
            counters[name] = [0, 0.0]
        return counters[name]

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self._counter(name)
                entry[0] += 1
                entry[1] += perf_counter() - start

        return counted

    def counters(self) -> dict[str, dict[str, float]]:
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            for counters in self._thread_counters:
                for name, (calls, seconds) in counters.items():
                    slot = merged.setdefault(name, {"calls": 0, "seconds": 0.0})
                    slot["calls"] += calls
                    slot["seconds"] += seconds
        return merged

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task with the submitting span as its parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.inherited = None

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        """Replace every hook target; record the ones that no longer exist."""

        def target(module_name: str, attr: str):
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing_hooks.append(f"{module_name}.{attr}")
                return None
            return module

        for module_name, attr, name in SPAN_HOOKS:
            module = target(module_name, attr)
            if module is not None:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
        for module_name, attr, name in COUNTER_HOOKS:
            module = target(module_name, attr)
            if module is not None:
                setattr(module, attr, self.count(name, getattr(module, attr)))
        module = target(*POOL_HOOK)
        if module is not None:
            setattr(module, POOL_HOOK[1], self.pool_class())

    def dump(self, path, **extra) -> None:
        payload = {
            "spans": self.spans,
            "counters": self.counters(),
            "missing_hooks": self.missing_hooks,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Analysis of a dumped trace
# ---------------------------------------------------------------------------

def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads may overlap one another; their union, clipped
    to the parent's interval, is what is subtracted.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {s["id"]: [] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children[parent["id"]].append(
                (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            )
    return {
        sid: (by_id[sid]["end"] - by_id[sid]["start"]) - union_length(iv)
        for sid, iv in children.items()
    }


def accounted_s(spans: list[dict]) -> float:
    """Wall time the spans cover: the self times of the spans on the root's
    thread plus, under each span, the union of its children that ran on
    other threads.  Equals the root's duration when spans nest properly."""
    roots = [s for s in spans if s["parent"] is None]
    if not roots:
        return 0.0
    main_thread = roots[0]["thread"]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    covered = sum(own[s["id"]] for s in spans if s["thread"] == main_thread)
    foreign: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and s["thread"] != parent["thread"]:
            foreign.setdefault(parent["id"], []).append(
                (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            )
    return covered + sum(union_length(iv) for iv in foreign.values())


def _ancestors(span: dict, by_id: dict[int, dict]):
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a dumped trace.

    A metric is omitted when the hook it needs is listed as missing, so a
    renamed or removed function shows up by name instead of as zero.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    missing = set(trace["missing_hooks"])
    counters = trace["counters"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    solves = named("solver.solve")
    grid_solves = [
        s for s in solves
        if any(a["name"] == "pipeline.grid_search" for a in _ancestors(s, by_id))
    ]
    final = [s for s in solves if s not in grid_solves]
    grid = named("pipeline.grid_search")
    grid_s = sum(s["end"] - s["start"] for s in grid)
    grid_solve_s = sum(s["end"] - s["start"] for s in grid_solves)
    solve_s = total("solver.solve")
    all_iterations = sum(s["attrs"]["iterations"] for s in solves)
    cmd = named("cli.cmd_run")
    pipe = named("pipeline.run_pipeline")
    cho_solve = counters.get("solver.cho_solve", {"calls": 0, "seconds": 0.0})
    cho_factor = counters.get("solver.cho_factor", {"calls": 0, "seconds": 0.0})

    metrics: dict[str, tuple[float, str, tuple[str, ...]]] = {
        "import.s": (trace["import_s"], "s", ()),
        "data.load_dataset_s": (total("data.load_dataset"), "s", ("load_dataset",)),
        "data.load_dataset_calls": (len(named("data.load_dataset")), "count", ("load_dataset",)),
        "data.rows_read": (
            sum(s["attrs"]["rows"] for s in named("data.load_dataset")), "count", ("load_dataset",)
        ),
        "data.bytes_read": (
            sum(s["attrs"]["bytes"] for s in named("data.load_dataset")), "bytes", ("load_dataset",)
        ),
        "data.build_regressor_s": (total("data.build_regressor"), "s", ("build_regressor",)),
        "bounds.compute_bounds_s": (total("bounds.compute_bounds"), "s", ("compute_bounds",)),
        "bounds.lambda1_max_s": (total("bounds.lambda1_max"), "s", ("lambda1_max",)),
        "estimation.pooled_ls_fit_calls": (
            len(named("estimation.pooled_ls_fit")), "count", ("pooled_ls_fit",)
        ),
        "estimation.pooled_ls_fit_s": (total("estimation.pooled_ls_fit"), "s", ("pooled_ls_fit",)),
        "solver.solve_calls": (len(solves), "count", ("solve",)),
        "solver.solve_s": (solve_s, "s", ("solve",)),
        "solver.iterations": (
            sum(s["attrs"]["iterations"] for s in grid_solves), "count", ("solve", "grid_search")
        ),
        "solver.us_per_iter": (
            1e6 * solve_s / all_iterations if all_iterations else 0.0, "us", ("solve",)
        ),
        "solver.max_point_iterations": (
            max((s["attrs"]["iterations"] for s in grid_solves), default=0),
            "count",
            ("solve", "grid_search"),
        ),
        "solver.final_solve_s": (
            sum(s["end"] - s["start"] for s in final), "s", ("solve", "grid_search")
        ),
        "solver.final_iterations": (
            sum(s["attrs"]["iterations"] for s in final), "count", ("solve", "grid_search")
        ),
        "solver.cho_solve_calls": (cho_solve["calls"], "count", ("cho_solve",)),
        "solver.cho_solve_s": (cho_solve["seconds"], "s", ("cho_solve",)),
        "solver.cho_factor_calls": (cho_factor["calls"], "count", ("cho_factor",)),
        "pipeline.grid_s": (grid_s, "s", ("grid_search",)),
        "pipeline.grid_points": (len(grid_solves), "count", ("solve", "grid_search")),
        "pipeline.grid_converged_share": (
            sum(s["attrs"]["converged"] for s in grid_solves) / len(grid_solves)
            if grid_solves else 0.0,
            "ratio",
            ("solve", "grid_search"),
        ),
        "pipeline.grid_concurrency": (
            grid_solve_s / grid_s if grid_s else 0.0, "ratio", ("solve", "grid_search")
        ),
        "pipeline.kmeans_s": (total("pipeline.kmeans"), "s", ("kmeans",)),
        "pipeline.kmeans_calls": (len(named("pipeline.kmeans")), "count", ("kmeans",)),
        "pipeline.auto_k_s": (total("pipeline.auto_select_k"), "s", ("auto_select_k",)),
        "pipeline.refit_s": (total("pipeline.refit_clusters"), "s", ("refit_clusters",)),
        "pipeline.evaluate_s": (total("pipeline.cross_evaluate"), "s", ("cross_evaluate",)),
        "pipeline.evaluate_cells": (
            sum(s["attrs"]["cells"] for s in named("pipeline.cross_evaluate")),
            "count",
            ("cross_evaluate",),
        ),
        # Everything cmd_run does after the pipeline returns: report JSON,
        # the three CSVs and the summary lines.
        "cli.write_s": (
            sum(c["end"] for c in cmd) - sum(p["end"] for p in pipe), "s", ("cmd_run", "run_pipeline")
        ),
        "cli.report_bytes": (trace["report_bytes"], "bytes", ()),
    }
    out = {}
    for name, (value, unit, hooks) in metrics.items():
        if any(h.endswith("." + attr) for h in missing for attr in hooks):
            continue
        out[name] = (float(value), unit)
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    result: dict[str, float] = {}
    for s in spans:
        result[s["name"]] = result.get(s["name"], 0.0) + own[s["id"]]
    return result
