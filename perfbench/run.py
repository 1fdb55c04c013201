"""fusedfir benchmark: seeded ``fusedfir run`` workloads, timed end to end.

Usage (from the root of a fusedfir checkout):

    python3 perfbench/run.py --workload accept-k6 --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced ``fusedfir run`` children and fresh set-up
children (import + manifest ingest) for about ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` makes one traced run and
untraced runs beside it and reports the per-layer metrics.  Every run's
outputs are checked.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is run from ``src/`` of the checkout; nothing is installed.
Generated data and run outputs go to ``.perfbench/`` in the checkout.
Exit code 2, with no result line, means the workload could not be set up.
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
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import RunChecks, heldout_fit_pct, iteration_signature, nonconverged
from tracer import accounted_s, layer_metrics, self_time_by_name
from workloads import FIXED_DATA_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
MIN_RUNS = 2  # untraced runs per --trace 0 invocation, whatever --seconds says
MIN_SETUPS = 5  # set-up children per --trace 0 invocation; setup_s is their median
# An invocation in which the hypervisor stole more than this share of every
# run's wall time is flagged as measured on a noisy host.
NOISY_STOLEN_SHARE = 0.05
CLOCK_TICKS_PER_S = os.sysconf("SC_CLK_TCK")
HARD_LIMIT_S = 170.0  # no child may run past this point of the invocation
# The held-out replicate's data seed is the benchmark seed plus this, so
# that it never coincides with the fixed estimation data.
HELDOUT_SEED_OFFSET = 1_000_000
# Import time plus the self times of the traced spans must cover the traced
# child's wall time to within this share of it, or this many seconds if
# more: interpreter start and exit after importing scipy take ~0.3 s.
TRACE_ACCOUNTING_TOLERANCE = 0.05
TRACE_ACCOUNTING_FLOOR_S = 0.5


class SetupFailed(RuntimeError):
    """The workload's inputs could not be generated."""


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    # CPU time the hypervisor stole from the machine's vCPUs while the
    # child ran, summed over the vCPUs (``steal`` in /proc/stat).
    stolen_s: float

    @property
    def unstolen_s(self) -> float:
        """Wall time less stolen time: what the benchmark reports.

        On this kind of shared VM the run's wall time rises with the CPU
        time the host steals (a stolen vCPU stalls the grid's other thread
        on the GIL, too), and steal comes in bursts of minutes.  Taking it
        out makes invocations comparable; with no steal this is the wall
        time itself.
        """
        return self.wall_s - self.stolen_s


def run_child(cmd: list[str], env: dict, log: Path, limit: float) -> Sample:
    """Run one child to completion; time it and read its resource usage.

    The child is killed if it is still running at ``limit`` (a
    ``perf_counter`` reading).
    """
    timed_out = False
    ticks_before = cpu_ticks()
    with log.open("wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if perf_counter() > limit:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    timed_out = True
                    break
                time.sleep(0.002)
        except BaseException:
            # Interrupted while the child runs: leave no child behind.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = perf_counter() - start
    ticks_after = cpu_ticks()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        timed_out=timed_out,
        stolen_s=(ticks_after[0] - ticks_before[0]) / CLOCK_TICKS_PER_S,
    )


def synth(config: dict, out: Path, env: dict) -> Path:
    """Write a scenario config and expand it with ``fusedfir synth``."""
    out.mkdir(parents=True, exist_ok=True)
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(config), encoding="utf-8")
    data = out / "data"
    proc = subprocess.run(
        [sys.executable, "-m", "fusedfir.cli", "synth", str(scenario), "--out", str(data)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SetupFailed(f"fusedfir synth failed ({proc.returncode}): {proc.stderr.strip()}")
    return data


def prepare(
    workload: Workload, seed: int, work: Path, env: dict
) -> tuple[Path, Path, dict, dict[str, str]]:
    """Generate the workload's inputs; return (run dir, manifest, truth,
    condition of each evaluation dataset).

    The fixed estimation/validation data is cached across invocations and
    regenerated when its scenario changes; the held-out replicate is drawn
    from ``seed`` every time.  Each condition's held-out dataset is the
    estimation replicate ``<condition>-1`` of that draw, listed as
    ``<condition>-3`` with the ``evaluation`` role.
    """
    fixed = work / "fixed"
    config = workload.scenario(FIXED_DATA_SEED)
    stamp = fixed / "complete.json"
    if not (stamp.is_file() and json.loads(stamp.read_text(encoding="utf-8")) == config):
        shutil.rmtree(fixed, ignore_errors=True)
        synth(config, fixed, env)
        stamp.write_text(json.dumps(config), encoding="utf-8")

    run_dir = work / f"seed-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    heldout = synth(workload.scenario(seed + HELDOUT_SEED_OFFSET), run_dir / "heldout", env)
    entries = json.loads((fixed / "data" / "manifest.json").read_text(encoding="utf-8"))
    for entry in entries:
        entry["file"] = f"../fixed/data/{entry['file']}"
    drawn = {
        e["name"]: e for e in json.loads((heldout / "manifest.json").read_text(encoding="utf-8"))
    }
    eval_conditions = {}
    for condition, _ in workload.assignment:
        entry = drawn[f"{condition}-1"]
        name = f"{condition}-3"
        eval_conditions[name] = condition
        entries.append(
            {**entry, "name": name, "file": f"heldout/data/{entry['file']}", "role": "evaluation"}
        )
    manifest = run_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=1), encoding="utf-8")
    truth = json.loads((fixed / "data" / "ground_truth.json").read_text(encoding="utf-8"))
    return run_dir, manifest, truth, eval_conditions


def host_environment(root: Path) -> dict:
    """Facts about the host, recorded and never changed."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_commit": git_commit(root),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of the whole machine from /proc/stat; steal is
    time the hypervisor ran other guests on this machine's vCPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Invocation:
    """One benchmark invocation: a workload, a seed and a time budget."""

    def __init__(self, workload: Workload, seed: int, seconds: float, root: Path):
        self.workload = workload
        self.seconds = seconds
        self.limit = perf_counter() + HARD_LIMIT_S
        self.measure_start = perf_counter()  # reset when measuring starts
        src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        work = root / ".perfbench" / workload.name
        self.run_dir, self.manifest, truth, self.eval_conditions = prepare(
            workload, seed, work, self.env
        )
        self.checks = RunChecks(truth, self.eval_conditions, workload.check_fit_separation)
        self.expected_problems = len(
            json.loads(self.manifest.read_text(encoding="utf-8"))
        )
        self.attempted = 0
        self.failed = 0
        self.report: dict | None = None
        self.trace: dict | None = None
        self.samples: dict[str, list[float]] = {}

    def elapsed(self) -> float:
        """Seconds since measuring started; input generation is not counted."""
        return perf_counter() - self.measure_start

    def probe(self, *args: str) -> tuple[Sample, dict | None]:
        log = self.run_dir / f"probe-{self.attempted}.log"
        sample = run_child(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *args], self.env, log, self.limit
        )
        lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        try:
            return sample, json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return sample, None

    def setup_sample(self) -> Sample:
        self.attempted += 1
        sample, result = self.probe(str(self.manifest), str(self.workload.taps))
        ok = sample.returncode == 0 and result is not None and result["problems"] == self.expected_problems
        self.checks.record("setup_ingest", ok, f"setup {self.attempted}: {result}")
        if not ok:
            self.failed += 1
        return sample

    def run_sample(self, label: str, traced_spans: Path | None = None) -> Sample:
        self.attempted += 1
        out = self.run_dir / f"out-{label}"
        args = self.workload.cli_args(str(self.manifest), str(out))
        if traced_spans is None:
            cmd = [sys.executable, "-m", "fusedfir.cli", *args]
        else:
            cmd = [
                sys.executable, str(BENCH_DIR / "traced_cli.py"),
                str(traced_spans), str(out / "report.json"), "--", *args,
            ]
        sample = run_child(cmd, self.env, self.run_dir / f"{label}.log", self.limit)
        ok = self.checks.add(label, sample.returncode, out)
        if ok and self.report is None:
            self.report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if not ok:
            self.failed += 1
        return sample

    def room_for(self, cost: float) -> bool:
        return self.elapsed() + cost <= self.seconds and perf_counter() + cost < self.limit

    def measure(self) -> dict[str, tuple[float, str]]:
        """Untraced runs interleaved with set-up children.

        Times are wall time less stolen time (``Sample.unstolen_s``);
        each metric is the median of its samples.
        """
        self.measure_start = perf_counter()
        runs: list[Sample] = []
        setups: list[Sample] = []
        while True:
            runs.append(self.run_sample(f"{len(runs)}"))
            setups.append(self.setup_sample())
            if runs[-1].timed_out or setups[-1].timed_out:
                break
            # Room for another round plus the set-ups still owed.
            owed = max(MIN_SETUPS - len(setups) - 1, 0)
            cost = runs[-1].wall_s + (1 + owed) * setups[-1].wall_s
            if len(runs) >= MIN_RUNS and not self.room_for(cost):
                break
        while len(setups) < MIN_SETUPS and not setups[-1].timed_out:
            setups.append(self.setup_sample())
        self.samples = {
            "run_s": [s.unstolen_s for s in runs],
            "setup_s": [s.unstolen_s for s in setups],
            "peak_rss_mb": [s.rss_mb for s in runs],
            **stolen_samples(runs, setups),
        }
        metrics = {
            "run_s": (statistics.median(self.samples["run_s"]), "s"),
            "setup_s": (statistics.median(self.samples["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(self.samples["peak_rss_mb"]), "MB"),
        }
        if self.report is not None:
            metrics["heldout_fit_pct"] = (heldout_fit_pct(self.report, self.eval_conditions), "%")
            self.samples["heldout_fit_pct"] = [metrics["heldout_fit_pct"][0]]
        return metrics

    def measure_traced(self) -> dict[str, tuple[float, str]]:
        """One traced run, then untraced runs to size the tracing overhead."""
        self.measure_start = perf_counter()
        spans_path = self.run_dir / "spans.json"
        traced = self.run_sample("traced", traced_spans=spans_path)
        untraced = [self.run_sample("0")]
        while not untraced[-1].timed_out and self.room_for(untraced[-1].wall_s):
            untraced.append(self.run_sample(f"{len(untraced)}"))
        if traced.returncode != 0 or not spans_path.is_file():
            self.checks.record("trace_written", False, "traced run left no spans")
            return {}
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        metrics = layer_metrics(trace)
        base = statistics.median(s.unstolen_s for s in untraced)
        # Both are reported as magnitudes: tracing cost and the accounting
        # gap are smaller the better, whichever sign noise gives them.
        overhead = traced.unstolen_s - base
        metrics["trace.overhead_s"] = (abs(overhead), "s")
        unaccounted = traced.wall_s - trace["import_s"] - accounted_s(trace["spans"])
        metrics["trace.unaccounted_s"] = (abs(unaccounted), "s")
        self.trace = trace
        # CPU time rises with host contention as much as wall time does, so
        # it is a diagnostic here rather than a bounded end-to-end metric.
        metrics["run.cpu_s"] = (statistics.median(s.cpu_s for s in untraced), "s")
        self.samples = {
            "run.cpu_s": [s.cpu_s for s in untraced],
            "run_s (untraced)": [s.unstolen_s for s in untraced],
            **stolen_samples([traced, *untraced], []),
        }

        tolerance = max(TRACE_ACCOUNTING_FLOOR_S, TRACE_ACCOUNTING_TOLERANCE * traced.wall_s)
        self.checks.record(
            "trace_accounting",
            abs(unaccounted) <= tolerance,
            f"{unaccounted:.3f} s of {traced.wall_s:.3f} s not covered by spans"
            f" (tolerance {tolerance:.3f} s); traced run {overhead:+.3f} s against"
            f" the untraced median, wall time less stolen time",
        )
        needs = {"fusedfir.pipeline.solve", "fusedfir.pipeline.grid_search"}
        if self.report is not None and not needs & set(trace["missing_hooks"]):
            signature = iteration_signature(self.report)
            span_iterations = sorted(
                s["attrs"]["iterations"] for s in trace["spans"] if s["name"] == "solver.solve"
            )
            self.checks.record(
                "trace_iterations",
                span_iterations == sorted(signature)
                and metrics["solver.max_point_iterations"][0] == max(signature[:-1])
                and metrics["solver.final_iterations"][0] == signature[-1],
                f"solve spans {sum(span_iterations)} iterations, report {sum(signature)}",
            )
        return metrics


def stolen_samples(runs: list[Sample], setups: list[Sample]) -> dict[str, list[float]]:
    """Raw wall times and stolen times, printed beside the reported ones."""
    samples = {
        "wall_s (runs)": [s.wall_s for s in runs],
        "stolen_s (runs)": [s.stolen_s for s in runs],
    }
    if setups:
        samples["wall_s (set-ups)"] = [s.wall_s for s in setups]
        samples["stolen_s (set-ups)"] = [s.stolen_s for s in setups]
    return samples


def print_table(metrics: dict[str, tuple[float, str]], samples: dict[str, list[float]]) -> None:
    print(f"{'metric':<32} {'unit':<6} {'n':>3} {'median':>14} {'spread':>8}")
    for name, (value, unit) in metrics.items():
        values = samples.get(name, [value])
        print(f"{name:<32} {unit:<6} {len(values):>3} {value:>14.6g} {spread(values):>8.2%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # SIGTERM becomes SystemExit, so a running child is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "fusedfir" / "cli.py").is_file():
        print(f"error: {root} is not a fusedfir checkout (no src/fusedfir)", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    try:
        inv = Invocation(WORKLOADS[args.workload], args.seed, args.seconds, root)
        warm_sample, lib_env = inv.probe("--env")
    except (SetupFailed, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: could not set up workload {args.workload}: {exc}", file=sys.stderr)
        return 2
    if warm_sample.returncode != 0 or lib_env is None:
        print("error: fusedfir does not import in a fresh interpreter", file=sys.stderr)
        return 2

    metrics = inv.measure_traced() if args.trace else inv.measure()
    ticks_after = cpu_ticks()
    env = {
        **host_environment(root),
        **lib_env,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "steal_share": (ticks_after[0] - ticks_before[0]) / max(ticks_after[1] - ticks_before[1], 1),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"measured {inv.elapsed():.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    stolen = inv.samples.get("stolen_s (runs)", [])
    shares = [t / w for t, w in zip(stolen, inv.samples.get("wall_s (runs)", []))]
    if shares and min(shares) > NOISY_STOLEN_SHARE:
        print(f"noisy host: the hypervisor stole more than {NOISY_STOLEN_SHARE:.0%} of every"
              f" run's wall time (least {min(shares):.1%}); reported times have it taken out")
    if inv.trace is not None:
        if inv.trace["missing_hooks"]:
            print("missing hooks: " + ", ".join(inv.trace["missing_hooks"]))
        print("self time by span:")
        for name, own in sorted(self_time_by_name(inv.trace["spans"]).items(), key=lambda kv: -kv[1]):
            print(f"  {name:<30} {own:10.4f} s")
    print_table(metrics, inv.samples)
    for name, values in inv.samples.items():
        if len(values) > 1:
            print(f"samples {name}: " + " ".join(f"{v:.4g}" for v in values))
    if inv.report is not None:
        bad, total = nonconverged(inv.report)
        print(f"{'nonconverged_share':<32} {'ratio':<6} {total:>3} {bad / total:>14.6g}")
    print(f"{'failed_share':<32} {'ratio':<6} {inv.attempted:>3} "
          f"{inv.failed / max(inv.attempted, 1):>14.6g}")
    for line in inv.checks.verdicts():
        print(line)
    correct = inv.checks.passed and inv.failed == 0
    if correct:
        shutil.rmtree(inv.run_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
