"""Four-stage batch procedure: bounds, tuning, joint solve, clustering.

After the joint solve, condition models that the fusion penalty pulled
close are merged by seeded k-means, each category is refit by pooled
least squares on its members, and every category model is scored on
held-out data with the FIT percentage.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from .bounds import BoundsReport, compute_bounds, lambda1_max
from .criterion import FUSION_VARIANTS, Hyperparameters, objective, sq_distances
from .data import (
    ConditionDataset,
    IngestionError,
    ModelStructure,
    ParameterVector,
    RegressionProblem,
    build_regressor,
    condition_of,
    float_columns,
    load_dataset,
    load_manifest,
    read_csv_rows,
    shared_structure,
    stack_values,
)
from .estimation import LsFit, pooled_ls_fit
from .solver import SolveResult, SolverConfig, merged_pairs, solve

_KMEANS_MAX_ITER = 300
_KMEANS_RESTARTS = 10


class GridSearchFailedError(RuntimeError):
    """No grid point converged, so no hyperparameters can be selected."""


class SolverNotConvergedError(RuntimeError):
    """The final joint solve hit its iteration limit."""


# ---------------------------------------------------------------------------
# FIT metric
# ---------------------------------------------------------------------------

def fit_metric(Y: np.ndarray, Y_hat: np.ndarray) -> float:
    """Goodness-of-fit percentage: 100 * (1 - SSE / variance-scaled SSE).

    100 means a perfect prediction, 0 matches the mean predictor, and
    arbitrarily negative values are possible.
    """
    Y = np.asarray(Y, dtype=float)
    Y_hat = np.asarray(Y_hat, dtype=float)
    if Y.shape != Y_hat.shape or Y.ndim != 1:
        raise ValueError("Y and Y_hat must be 1-D arrays of equal length")
    if Y.size < 2:
        raise ValueError("need at least two samples")
    denom = float(((Y - Y.mean()) ** 2).sum())
    if denom == 0.0:
        raise ValueError("undefined FIT (zero variance)")
    num = float(((Y - Y_hat) ** 2).sum())
    return (1.0 - num / denom) * 100.0


@dataclass(frozen=True)
class FitReport:
    model_source: str
    eval_dataset: str
    fit_percent: float | None  # None marks an undefined cell


def cross_evaluate(
    models: dict[str, ParameterVector],
    eval_problems: list[RegressionProblem],
) -> list[FitReport]:
    """FIT of every model on every evaluation dataset."""
    shared_structure([*models.values(), *eval_problems], "model")
    reports = []
    for source, theta in models.items():
        for p in eval_problems:
            try:
                fit = fit_metric(p.Y, p.Phi @ theta.values)
            except ValueError:
                fit = None
            reports.append(FitReport(source, p.condition_name, fit))
    return reports


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Candidate penalty weights: fusion as fractions of its upper bound,
    sparsity as absolute values."""

    lambda1_factors: tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    lambda2_values: tuple[float, ...] = (0.0, 1e-6, 1e-4, 1e-2, 1.0, 1e2)

    def __post_init__(self) -> None:
        for name in ("lambda1_factors", "lambda2_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if any(not np.isfinite(v) or v < 0 for v in vals):
                raise ValueError(f"{name} must be finite and nonnegative")
            if any(a >= b for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly ascending")


@dataclass(frozen=True)
class ScoreRow:
    lambda1: float
    lambda2: float
    score: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class GridSearchResult:
    hp: Hyperparameters
    score_table: list[ScoreRow]
    lambda1_bound: float | None


def _better_row(candidate: ScoreRow, incumbent: ScoreRow | None) -> bool:
    """Lower score wins; exact ties prefer larger lambda1, then lambda2."""
    if incumbent is None:
        return True
    if candidate.score != incumbent.score:
        return candidate.score < incumbent.score
    return (candidate.lambda1, candidate.lambda2) > (incumbent.lambda1, incumbent.lambda2)


def _validation_score(
    val_problems: list[RegressionProblem],
    result: SolveResult,
    hp: Hyperparameters,
    literal_criterion: bool,
) -> float:
    value = objective(val_problems, result.thetas, hp)
    return value.total if literal_criterion else value.fit_term


def grid_search(
    estimation_problems: list[RegressionProblem],
    validation_problems: list[RegressionProblem],
    grid: GridSpec,
    cfg: SolverConfig | None = None,
    *,
    fusion_variant: str = "l2",
    literal_criterion: bool = False,
) -> GridSearchResult:
    """Score every grid point and pick the best-validating weights.

    Models are estimated on the estimation problems and scored on the
    validation problems (squared-error score by default; the full
    criterion value when ``literal_criterion``).  Non-converged points
    score +inf and stay flagged in the table.  Ties prefer the larger
    lambda1, then the larger lambda2.  Grid solves are never traced: only
    the final solve's trace is kept.

    The points are solved along a warm-started path: lambda1 descending,
    and lambda2 descending within each lambda1, so the table is visited
    in reverse.  Each solve starts from the final state of the last point
    that converged (the first one, and any after only failures, start
    cold).  On the acceptance scenario's default grid this order took 527
    iterations, against 556 in serpentine order, 637 ascending and 985
    with every point cold.  The score table keeps the grid's own order.
    """
    cfg = replace(cfg or SolverConfig(), trace=False)
    if fusion_variant not in FUSION_VARIANTS:
        raise ValueError(f"unknown fusion variant {fusion_variant!r}")
    if len(estimation_problems) != len(validation_problems) or not estimation_problems:
        raise ValueError("estimation and validation problem lists must align")
    shared_structure([*estimation_problems, *validation_problems], "problem")
    for pe, pv in zip(estimation_problems, validation_problems):
        if condition_of(pe.condition_name) != condition_of(pv.condition_name):
            raise ValueError(
                f"condition mismatch: {pe.condition_name!r} vs {pv.condition_name!r}"
            )

    if len(estimation_problems) >= 2:
        bound = lambda1_max(estimation_problems)
        if not math.isfinite(bound):
            raise ValueError(
                f"lambda1_max is {bound}: the pooled least-squares fit overflows "
                "on the estimation data"
            )
        lambda1_candidates = [f * bound for f in grid.lambda1_factors]
    else:
        bound = None
        lambda1_candidates = [0.0]

    points = [
        Hyperparameters(lambda1=l1, lambda2=l2, fusion_variant=fusion_variant)
        for l1 in lambda1_candidates
        for l2 in grid.lambda2_values
    ]

    visited: list[ScoreRow] = []
    start = None
    for hp in reversed(points):
        result = solve(estimation_problems, hp, cfg, start=start)
        if result.converged:
            start = result.state
            score = _validation_score(validation_problems, result, hp, literal_criterion)
        else:
            score = float("inf")
        visited.append(ScoreRow(hp.lambda1, hp.lambda2, score, result.converged, result.iterations))
    table = visited[::-1]

    best: ScoreRow | None = None
    for row in table:
        if _better_row(row, best):
            best = row
    if best is None or not np.isfinite(best.score):
        raise GridSearchFailedError("no grid point converged")
    hp = Hyperparameters(best.lambda1, best.lambda2, fusion_variant=fusion_variant)
    return GridSearchResult(hp=hp, score_table=table, lambda1_bound=bound)


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterAssignment:
    labels: dict[str, int]
    centroids: list[ParameterVector]
    k: int
    inertia: float


def _kmeans_pp_starts(
    sq: np.ndarray, jobs: list[tuple[int, random.Random]]
) -> list[np.ndarray]:
    """k-means++ seeding of ``_KMEANS_RESTARTS`` restarts for every job
    ``(k, rng)``, all in one batch: per job, an (restarts, k) array of the
    row indices chosen as centres.  Row i of ``sq`` holds the squared
    distances from row i to every row; its sum must be finite.

    Each restart takes k ``rng.random()`` doubles, one per centre; only
    ``random()``'s sequence for an int seed is kept across Python versions.
    Centre j is ``searchsorted(cdf, u, side="right")`` on its double u,
    where cdf is the normalised cumulative sum of d2 / d2.sum() and d2
    holds each row's squared distance to its nearest chosen centre.  Every
    step runs its arithmetic row by row.  The first centre, and any step
    whose weights are all zero (fewer distinct rows than k, where k-means++
    leaves the draw undefined), use the cdf of uniform weights.
    """
    K, R = sq.shape[0], _KMEANS_RESTARTS
    # Rows in ascending k, so the rows still seeding at each step are a
    # tail.  Row r's centres sit in ``chosen[at[r]:at[r] + k]`` and the
    # draw for its centre j in ``u[at[r] + j]``: flat arrays and one reused
    # step buffer keep the batch's peak memory near that of the
    # sq_distances(X, X) call before it.
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][0])
    ks = np.repeat([jobs[i][0] for i in order], R)
    at = np.cumsum(ks) - ks
    u = np.array([jobs[i][1].random() for i in order for _ in range(R * jobs[i][0])])
    chosen = np.empty(u.size, dtype=np.intp)
    d2 = np.full((ks.size, K), np.inf)  # no centre yet: a total of inf
    buf = np.empty_like(d2)  # each step's gathered rows, then its cdf
    for j in range(ks[-1]):
        lo = int(np.searchsorted(ks, j, side="right"))
        live, cdf, pos = d2[lo:], buf[lo:], at[lo:] + j
        if j:
            # mode="clip" lets take write straight into ``out`` (the
            # indices are rows of sq, so nothing is clipped).
            np.minimum(live, sq.take(chosen[pos - 1], axis=0, out=cdf, mode="clip"), out=live)
        total = live.sum(axis=1)
        flat = (total == 0.0) | (total == np.inf)
        total[flat] = 1.0  # 0 / 1 and inf / 1 in place of 0 / 0 and inf / inf
        np.divide(live, total[:, None], out=cdf)
        # Uniform weights in the cdf only, as d2 keeps its zeros for the
        # later steps.
        cdf[flat] = 1.0 / K
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:].copy()  # a view would make numpy copy all of cdf
        # searchsorted(cdf, u, side="right") on each nondecreasing row.
        chosen[pos] = (cdf <= u[pos, None]).sum(axis=1)
    starts: list[np.ndarray] = [np.empty(0)] * len(jobs)
    for row, i in zip(range(0, ks.size, R), order):
        starts[i] = chosen[at[row] : at[row] + R * jobs[i][0]].reshape(R, -1)
    return starts


def _lloyd(
    X: np.ndarray, sq: np.ndarray, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from k starting centres, which may be any points.

    ``d2[i, c]`` is the squared distance from X[i] to starting centre c, as
    ``sq_distances(X, centres)`` gives it; it drives the first assignment
    step, and later steps measure the distances to the updated centres.
    A centre with one member is that member's row bit for bit (0 + x, then
    / 1), so its distances are read from ``sq = sq_distances(X, X)``; only
    centres with two or more members are measured afresh.  Stops when a
    labelling repeats: with fewer distinct rows than centres the
    empty-cluster repair can cycle.  Returns the labels, the centres and
    the inertia.
    """
    n, k = d2.shape
    p = X.shape[1]
    cols = np.arange(p)
    rows = np.arange(n)
    weights = X.ravel()
    seen: set[bytes] = set()
    prev_inertia = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        new_labels = np.argmin(d2, axis=1)
        # Empty-cluster repair: hand each empty cluster, in cluster order,
        # the point farthest from its centroid that no hand-over has moved
        # yet.  A hand-over can empty another cluster, so repeat until none
        # is empty; a filled cluster keeps its moved point, so at most k
        # hand-overs happen.
        counts = np.bincount(new_labels, minlength=k)
        repaired = not counts.all()
        if repaired:
            far_d2 = d2[rows, new_labels]
            while not counts.all():
                for c in range(k):
                    if counts[c] == 0:
                        far = int(np.argmax(far_d2))
                        counts[new_labels[far]] -= 1
                        counts[c] += 1
                        new_labels[far] = c
                        far_d2[far] = -np.inf
        key = new_labels.tobytes()
        if key in seen:
            break
        seen.add(key)
        labels = new_labels
        # Summed in row order per cell, as np.add.at(sums, labels, X) does.
        sums = np.bincount(
            (labels[:, None] * p + cols).ravel(), weights=weights, minlength=k * p
        ).reshape(k, p)
        centers = sums / counts[:, None]
        inertia = float(((X - centers[labels]) ** 2).sum())
        # Plain Lloyd steps never increase inertia; repair steps may jump.
        if not repaired and inertia > prev_inertia + 1e-9 * (1.0 + prev_inertia):
            raise RuntimeError("k-means inertia rose on a plain Lloyd step")
        prev_inertia = inertia
        member = np.empty(k, dtype=np.intp)
        member[labels] = rows  # a cluster's only member, where it has one
        d2 = sq[:, member]
        multi = counts > 1
        if multi.any():
            d2[:, multi] = sq_distances(X, centers[multi])
    return labels, centers, inertia


def _kmeans_core(
    X: np.ndarray, sq: np.ndarray, jobs: list[tuple[int, random.Random]]
) -> list[tuple[np.ndarray, float]]:
    """Seeded k-means++ / Lloyd clustering of the rows of X into k
    clusters for each job ``(k, rng)``, where ``sq = sq_distances(X, X)``.

    Seeds ``_KMEANS_RESTARTS`` restarts of every job in one batch
    (``_kmeans_pp_starts``), runs Lloyd from each start and keeps the
    first restart with the lowest inertia.  Returns per job the labels,
    renumbered by first appearance so they do not depend on the restart
    that won, and that inertia.  Rows whose squared distances do not sum
    to a finite value raise ValueError, whatever the k.
    """
    if not math.isfinite(sq.sum()):
        what = "squared distances overflow on finite" if np.isfinite(X).all() else "needs finite"
        raise ValueError(f"k-means {what} parameter vectors")
    out = []
    for starts in _kmeans_pp_starts(sq, jobs):
        # The centres are rows of X, so their first-pass distances are
        # columns of sq, bit for bit.
        labels, _, inertia = min(
            (_lloyd(X, sq, sq[:, chosen]) for chosen in starts), key=lambda run: run[2]
        )
        best = labels.tolist()
        rank = {l: i for i, l in enumerate(dict.fromkeys(best))}
        out.append((np.asarray([rank[l] for l in best]), inertia))
    return out


def _cluster_stack(thetas: list[ParameterVector]) -> tuple[np.ndarray, int]:
    """The models' stack times 2**e, the least e >= 0 that lifts its largest
    magnitude to 1/2 or more: exact, so no clustering decision changes, but
    squared distances of models below about 1e-154 no longer underflow."""
    X = stack_values(thetas)
    e = max(0, -math.frexp(float(np.abs(X).max()))[1])
    return np.ldexp(X, e), e


def kmeans(
    thetas: list[ParameterVector],
    k: int,
    seed: int,
    names: list[str] | None = None,
) -> ClusterAssignment:
    """Seeded k-means++ / Lloyd clustering of condition models (see
    ``_kmeans_core``); labels are keyed by ``names``, by default the
    positions as strings."""
    X, e = _cluster_stack(thetas)
    if not 1 <= k <= len(thetas):
        raise ValueError(f"k={k} out of range 1..{len(thetas)}")
    if names is None:
        names = [str(i) for i in range(len(thetas))]
    if len(names) != len(thetas):
        raise ValueError("names must align with thetas")
    [(category, inertia)] = _kmeans_core(X, sq_distances(X, X), [(k, random.Random(seed))])
    centroids = [
        ParameterVector(np.ldexp(X[category == c].mean(axis=0), -e), thetas[0].structure)
        for c in range(k)
    ]
    return ClusterAssignment(
        labels=dict(zip(names, category.tolist())),
        centroids=centroids,
        k=k,
        inertia=math.ldexp(inertia, -2 * e),
    )


def _silhouette(D: np.ndarray, lab: np.ndarray) -> float:
    """Mean silhouette of labels ``lab`` under distance matrix ``D``."""
    _, codes = np.unique(lab, return_inverse=True)
    onehot = codes[:, None] == np.arange(codes.max() + 1)
    if onehot.shape[1] < 2:
        raise ValueError("silhouette needs at least two clusters")
    sums = D @ onehot  # (K, k): summed distance from each point to each cluster
    sizes = onehot.sum(axis=0)
    rows = np.arange(len(lab))
    own_size = sizes[codes] - 1  # D[i, i] = 0 adds nothing to the own sum
    a = sums[rows, codes] / np.maximum(own_size, 1)
    means = sums / sizes
    means[rows, codes] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    s = np.divide(b - a, top, out=np.zeros_like(top), where=(own_size > 0) & (top > 0))
    return float(np.mean(s))


def auto_select_k(thetas: list[ParameterVector], seed: int) -> int:
    """Pick the cluster count in 2..K-1 maximizing the mean silhouette.

    Clusters every k through ``_kmeans_core`` with the sub-seed
    ``seed << 64 | k``, so all k share one batched seeding and each k gets
    the labels ``kmeans`` gives it with that seed.
    """
    K = len(thetas)
    X, _ = _cluster_stack(thetas)
    if K <= 3:
        return min(2, K)
    sq = sq_distances(X, X)
    D = np.sqrt(sq)
    jobs = [(k, random.Random(seed << 64 | k)) for k in range(2, K)]
    best_k, best_s = 2, -np.inf
    for (k, _), (labels, _) in zip(jobs, _kmeans_core(X, sq, jobs)):
        s = _silhouette(D, labels)
        if s > best_s:
            best_k, best_s = k, s
    return best_k


# ---------------------------------------------------------------------------
# Refit + full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Category:
    """A merged category: its member dataset names, in dataset order, and
    their pooled least-squares refit."""

    members: tuple[str, ...]
    fit: LsFit

    @property
    def name(self) -> str:
        """Name of the category model: its member names joined by '+'."""
        return "+".join(self.members)


def refit_clusters(
    problems: list[RegressionProblem], assignment: ClusterAssignment
) -> list[Category]:
    """Pooled least-squares refit of every category over its members, in
    category order."""
    groups: dict[int, list[RegressionProblem]] = {c: [] for c in range(assignment.k)}
    for p in problems:
        key = condition_of(p.condition_name)
        if key not in assignment.labels:
            raise ValueError(f"assignment does not cover condition {p.condition_name!r}")
        groups[assignment.labels[key]].append(p)
    for c, members in groups.items():
        if not members:
            raise ValueError(f"category {c} has no member problems")
    return [
        Category(tuple(p.condition_name for p in members), pooled_ls_fit(members))
        for members in groups.values()
    ]


@dataclass
class PipelineReport:
    """Aggregated outcome of one full pipeline run; serializes to JSON."""

    seed: int
    structure: ModelStructure
    literal_criterion: bool
    conditions: list[str]
    notes: list[str]
    bounds: BoundsReport | None
    grid: GridSpec
    search: GridSearchResult
    solve_result: SolveResult
    theta_names: list[str]
    clusters: ClusterAssignment
    categories: list[Category]
    fit_reports: list[FitReport]

    def to_dict(self) -> dict:
        sr = self.solve_result
        return {
            "schema": 1,
            "seed": self.seed,
            "structure": {
                "taps": self.structure.taps,
                "channels": self.structure.channels,
                "n_theta": self.structure.n_theta,
            },
            "k_clusters": self.clusters.k,
            "fusion_variant": self.search.hp.fusion_variant,
            "literal_criterion": self.literal_criterion,
            "conditions": list(self.conditions),
            "notes": list(self.notes),
            "bounds": self.bounds.to_dict() if self.bounds else None,
            "grid": {
                "lambda1_factors": list(self.grid.lambda1_factors),
                "lambda2_values": list(self.grid.lambda2_values),
                "lambda1_bound": self.search.lambda1_bound,
            },
            "selected_hyperparameters": asdict(self.search.hp),
            "score_table": [
                {**asdict(row), "score": row.score if np.isfinite(row.score) else None}
                for row in self.search.score_table
            ],
            "solve": {
                "objective": asdict(sr.objective),
                "iterations": sr.iterations,
                "converged": sr.converged,
                "primal_residual": sr.primal_residual,
                "dual_residual": sr.dual_residual,
                "merged_pairs": [list(p) for p in merged_pairs(sr.thetas)],
            },
            "thetas": {
                name: [float(x) for x in t.values]
                for name, t in zip(self.theta_names, sr.thetas)
            },
            "clusters": {
                "k": self.clusters.k,
                "inertia": self.clusters.inertia,
                "labels": dict(sorted(self.clusters.labels.items())),
                "centroids": [
                    [float(x) for x in c.values] for c in self.clusters.centroids
                ],
            },
            "refits": [
                {
                    "category": c,
                    "members": cat.members,
                    "model_source": cat.name,
                    "theta": [float(x) for x in cat.fit.theta.values],
                    "residual_norm_sq": cat.fit.residual_norm_sq,
                }
                for c, cat in enumerate(self.categories)
            ],
            "fit_reports": [asdict(r) for r in self.fit_reports],
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def load_problems(
    manifest: str | Path, structure: ModelStructure, roles: tuple[str, ...]
) -> dict[str, list[RegressionProblem]]:
    """Regression problems of the manifest's datasets in each of ``roles``.

    Each role's problems come in dataset-name order; datasets of other
    roles are not read.  A name listed twice in one role, or an entry whose
    channel count is not the structure's, raises IngestionError unread.
    """
    manifest = Path(manifest)
    by_role: dict[str, dict[str, ConditionDataset]] = {role: {} for role in roles}
    for entry in load_manifest(manifest):
        datasets = by_role.get(entry.role)
        if datasets is None:
            continue
        if entry.name in datasets:
            raise IngestionError(f"{entry.role} dataset {entry.name!r} is listed twice")
        if len(entry.channels) != structure.channels:
            raise IngestionError(
                f"{entry.role} dataset {entry.name!r} has {len(entry.channels)} channels, "
                f"structure requires {structure.channels}"
            )
        datasets[entry.name] = load_dataset(manifest.parent / entry.file, entry)
    return {
        role: [build_regressor(datasets[name], structure) for name in sorted(datasets)]
        for role, datasets in by_role.items()
    }


def _ingest(manifest: str | Path, structure: ModelStructure):
    """Sorted conditions, their estimation and validation problems, and the
    problems to cross-evaluate on (validation unless evaluation is listed)."""
    loaded = load_problems(manifest, structure, ("estimation", "validation", "evaluation"))
    paired: dict[tuple[str, str], RegressionProblem] = {}
    for role in ("estimation", "validation"):
        for p in loaded[role]:
            key = (role, condition_of(p.condition_name))
            if key in paired:
                raise IngestionError(f"condition {key[1]!r} has multiple {role} datasets")
            paired[key] = p
    conditions = sorted(c for role, c in paired if role == "estimation")
    if not conditions:
        raise IngestionError("manifest has no estimation datasets")
    missing = [c for c in conditions if ("validation", c) not in paired]
    if missing:
        raise IngestionError(f"conditions missing validation datasets: {missing}")
    estimation, validation = (
        [paired[role, c] for c in conditions] for role in ("estimation", "validation")
    )
    return conditions, estimation, validation, loaded["evaluation"] or validation


def run_pipeline(
    manifest: str | Path,
    structure: ModelStructure,
    grid: GridSpec,
    k_clusters: int,
    cfg: SolverConfig | None = None,
    seed: int = 0,
    *,
    fusion_variant: str = "l2",
    literal_criterion: bool = False,
    auto_k: bool = False,
) -> PipelineReport:
    """Run bounds, grid search, joint solve, clustering, refit, evaluation.

    A failing stage raises its own error.  Deterministic for fixed inputs
    and seed: rerunning yields a byte-identical JSON report.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    cfg = cfg or SolverConfig()
    notes: list[str] = []

    conditions, estimation, validation, evaluation = _ingest(manifest, structure)
    K = len(conditions)
    auto_k = auto_k and K > 2
    # A single condition clamps k to 1; any other k out of range fails
    # here, before the first solve.
    if k_clusters < 1 or (K >= 2 and not auto_k and k_clusters > K):
        raise ValueError(f"k={k_clusters} out of range 1..{K}")

    if K >= 2:
        bounds_report = compute_bounds(estimation)
    else:
        bounds_report = None
        notes.append("fusion undefined for a single condition; fusion stages skipped")

    search = grid_search(
        estimation,
        validation,
        grid,
        cfg,
        fusion_variant=fusion_variant,
        literal_criterion=literal_criterion,
    )

    solve_result = solve(estimation, search.hp, cfg)
    if not solve_result.converged:
        raise SolverNotConvergedError(
            f"solver did not converge in {solve_result.iterations} iterations"
        )
    # Nothing starts from the final state; at K = 48 it holds about 0.4 MB
    # through the clustering, where the run's memory peaks.
    solve_result = replace(solve_result, state=None)

    if auto_k:
        k_used = auto_select_k(solve_result.thetas, seed)
        notes.append(f"auto-selected k={k_used} by silhouette")
    else:
        k_used = min(k_clusters, K)
    assignment = kmeans(solve_result.thetas, k_used, seed, conditions)
    categories = refit_clusters(estimation, assignment)
    models = {cat.name: cat.fit.theta for cat in categories}
    fit_reports = cross_evaluate(models, evaluation)

    return PipelineReport(
        seed=seed,
        structure=structure,
        literal_criterion=literal_criterion,
        conditions=conditions,
        notes=notes,
        bounds=bounds_report,
        grid=grid,
        search=search,
        solve_result=solve_result,
        theta_names=[p.condition_name for p in estimation],
        clusters=assignment,
        categories=categories,
        fit_reports=fit_reports,
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def json_text(obj) -> str:
    """The text of every JSON file written: two-space indent, a trailing
    newline, and floats in Python's shortest round-trip form (so reruns
    are byte-identical).  Non-finite floats raise ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def csv_writer(fh: TextIO):
    """The writer of every CSV that ``run``, ``fit`` and ``eval`` write: each
    row ends in a bare newline, and cells holding a comma or a double quote
    are quoted.  ``synth``'s dataset CSVs come from
    ``data.write_dataset_csv``, whose rows end in CRLF."""
    return csv.writer(fh, lineterminator="\n")


def write_csv(path: str | Path, rows: Iterable[list[str]]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv_writer(fh).writerows(rows)


def write_theta_csv(path: str | Path, names: list[str], thetas: list[ParameterVector]) -> None:
    n = thetas[0].structure.n_theta
    rows = [["name"] + [f"theta_{i}" for i in range(n)]]
    rows += [[name] + [f"{v:.17g}" for v in t.values] for name, t in zip(names, thetas)]
    write_csv(path, rows)


def read_theta_csv(path: str | Path, structure: ModelStructure) -> dict[str, ParameterVector]:
    """Models of a theta CSV written by ``write_theta_csv``, by name.

    Columns go by position: the name, then the coefficients.  Blank rows
    are skipped.  Read by ``data.read_csv_rows`` and ``data.float_columns``,
    as datasets are; a repeated name raises IngestionError too.
    """
    rows, broken = read_csv_rows(path)
    rownums = [n for n, row in enumerate(rows, start=1) if row]
    rows = [row for row in rows if row]
    if not rows:
        raise broken or IngestionError(f"{path}: empty theta CSV")
    header, body = rows[0], rows[1:]
    if len(header) - 1 != structure.n_theta:
        raise IngestionError(
            f"{path}: has {len(header) - 1} coefficients per row, structure "
            f"requires {structure.n_theta}"
        )
    names = [row[0] for row in body]
    repeat = next((i for i, n in enumerate(names) if n in names[:i]), len(body))
    # Rows up to a repeated name are checked first; a ragged repeat reports
    # its cell count, as any ragged row does.
    end = repeat + (repeat < len(body) and len(body[repeat]) != len(header))
    values = float_columns(path, header, body[:end], rownums[1:], range(1, len(header)))
    if repeat < len(body):
        raise IngestionError(f"{path}: model {names[repeat]!r} is listed twice")
    if broken:
        raise broken
    return {name: ParameterVector(v, structure) for name, v in zip(names, values)}


def write_fit_matrix_csv(path: str | Path, reports: list[FitReport]) -> None:
    sources = list(dict.fromkeys(r.model_source for r in reports))
    datasets = list(dict.fromkeys(r.eval_dataset for r in reports))
    cells = {(r.model_source, r.eval_dataset): r.fit_percent for r in reports}
    rows = [["model_source"] + datasets]
    for s in sources:
        fits = (cells.get((s, d)) for d in datasets)
        rows.append([s] + ["" if v is None else f"{v:.17g}" for v in fits])
    write_csv(path, rows)
