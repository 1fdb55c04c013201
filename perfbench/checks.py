"""Output checks applied to every ``fusedfir run`` the benchmark makes."""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from math import comb
from pathlib import Path

OUTPUTS = ("report.json", "thetas.csv", "category_thetas.csv", "fit_matrix.csv")


def adjusted_rand_index(a: list[int], b: list[int]) -> float:
    """Pair-counting adjusted Rand index of two labelings of the same items."""
    pairs = list(combinations(range(len(a)), 2))
    both = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    same_a = sum(1 for i, j in pairs if a[i] == a[j])
    same_b = sum(1 for i, j in pairs if b[i] == b[j])
    expected = same_a * same_b / comb(len(a), 2)
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


def own_and_cross_fit(
    report: dict, eval_conditions: dict[str, str]
) -> tuple[list[float], list[float]]:
    """FIT cells of each category model on its own members' datasets, and
    on the other categories' datasets.  ``eval_conditions`` maps each
    evaluation dataset the benchmark wrote to its condition."""
    category_of_source = {r["model_source"]: r["category"] for r in report["refits"]}
    labels = report["clusters"]["labels"]
    own, cross = [], []
    for cell in report["fit_reports"]:
        condition = eval_conditions[cell["eval_dataset"]]
        same = labels[condition] == category_of_source[cell["model_source"]]
        (own if same else cross).append(cell["fit_percent"])
    return own, cross


def iteration_signature(report: dict) -> list[int]:
    """Grid iterations in table order, then the final solve's."""
    return [row["iterations"] for row in report["score_table"]] + [report["solve"]["iterations"]]


class RunChecks:
    """Accumulates check verdicts over the repetitions of one workload.

    Each ``add`` checks one finished run and returns whether it passed;
    ``verdicts`` gives one line per check for the whole set.
    """

    def __init__(self, truth: dict, eval_conditions: dict[str, str], fit_separation: bool):
        self.truth = truth["assignment"]
        self.eval_conditions = eval_conditions
        self.fit_separation = fit_separation
        self.failures: dict[str, list[str]] = {
            "exit_and_outputs": [],
            "report_identical": [],
            "clusters_ari": [],
            "iterations_repeat": [],
        }
        if fit_separation:
            self.failures["fit_separation"] = []
        self.runs = 0
        self.sha = None
        self.iterations = None
        self.detail: dict[str, str] = {}

    def add(self, label: str, returncode: int, out: Path) -> bool:
        self.runs += 1
        failed_before = sum(len(v) for v in self.failures.values())
        missing = [name for name in OUTPUTS if not (out / name).is_file()]
        if returncode != 0 or missing:
            self.failures["exit_and_outputs"].append(
                f"{label}: exit {returncode}, missing {missing}"
            )
            return False
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)

        sha = hashlib.sha256(raw).hexdigest()
        if self.sha is None:
            self.sha = sha
        elif sha != self.sha:
            self.failures["report_identical"].append(f"{label}: sha256 {sha[:12]}")
        self.detail["report_identical"] = f"sha256 {self.sha[:12]}"

        conditions = sorted(self.truth)
        labels = report["clusters"]["labels"]
        ari = adjusted_rand_index(
            [self.truth[c] for c in conditions], [labels[c] for c in conditions]
        )
        if ari != 1.0:
            self.failures["clusters_ari"].append(f"{label}: ARI={ari:.4f}")
        self.detail["clusters_ari"] = f"ARI={ari:.4f}"

        signature = iteration_signature(report)
        if self.iterations is None:
            self.iterations = signature
        elif signature != self.iterations:
            self.failures["iterations_repeat"].append(f"{label}: {signature}")
        self.detail["iterations_repeat"] = (
            f"grid {sum(self.iterations[:-1])}, final {self.iterations[-1]}"
        )

        if self.fit_separation:
            own, cross = own_and_cross_fit(report, self.eval_conditions)
            ok = min(own) >= 70.0 and (not cross or max(cross) <= min(own) - 20.0)
            text = f"own>={min(own):.2f}%, cross<={max(cross, default=float('nan')):.2f}%"
            if not ok:
                self.failures["fit_separation"].append(f"{label}: {text}")
            self.detail["fit_separation"] = text
        return sum(len(v) for v in self.failures.values()) == failed_before

    def record(self, check: str, ok: bool, detail: str) -> None:
        """Verdict of a check made outside ``add``."""
        failures = self.failures.setdefault(check, [])
        if ok:
            self.detail.setdefault(check, detail)
        else:
            failures.append(detail)

    @property
    def passed(self) -> bool:
        return self.runs > 0 and not any(self.failures.values())

    def verdicts(self) -> list[str]:
        lines = []
        for check, failures in self.failures.items():
            verdict = "FAIL" if failures or not self.runs else "PASS"
            info = "; ".join(failures) if failures else self.detail.get(check, "")
            lines.append(f"check {check:<18} {verdict}  ({self.runs} runs) {info}".rstrip())
        return lines


def heldout_fit_pct(report: dict, eval_conditions: dict[str, str]) -> float:
    """Mean FIT of each category model on its own members' held-out data."""
    own, _ = own_and_cross_fit(report, eval_conditions)
    return sum(own) / len(own)


def nonconverged(report: dict) -> tuple[int, int]:
    """Non-converged solves and solves attempted: grid points plus the final."""
    rows = report["score_table"]
    bad = sum(not r["converged"] for r in rows) + (not report["solve"]["converged"])
    return bad, len(rows) + 1
