"""Reference checks the tests compare the package against.

``solve_oracle`` is a deliberately independent slow minimizer: plain
subgradient descent with diminishing steps and best-iterate tracking,
sharing only objective evaluation with ``fusedfir.solve``.
``coalescence_certificate`` checks the bounds' theory constructively:
it builds dual-ball elements that prove the coalesced point optimal.
``parse_csv_rows`` is the dataset reader's oracle: it reads a CSV row by
row and converts each cell with ``float``, where ``load_dataset`` converts
all cells in one numpy call.  The remaining helpers restate, in test terms, what the package
computes elsewhere.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fusedfir import (
    Hyperparameters,
    IngestionError,
    ParameterVector,
    RegressionProblem,
    SolveResult,
    compute_bounds,
    merged_pairs,
    objective,
)
from fusedfir.criterion import sq_distances

# Floating-point slack on the unit dual-ball membership test.
_CERT_SLACK = 1e-9

_ORACLE_MAX_K = 6
_ORACLE_MAX_NTHETA = 20
_ORACLE_MAX_ROWS = 100


def max_pairwise_distance(thetas: list[ParameterVector]) -> float:
    stack = np.array([t.values for t in thetas], ndmin=2)  # one empty row for none
    return math.sqrt(sq_distances(stack, stack).max())


def is_coalesced(thetas: list[ParameterVector]) -> bool:
    """True when every pair of condition models has effectively merged."""
    return len(merged_pairs(thetas)) == math.comb(len(thetas), 2)


def kkt_necessary_margin(problems: list[RegressionProblem], lambda1: float) -> list[float]:
    """Per-condition slack of the coalesced point's necessary condition.

    All margins are nonnegative exactly when lambda1 >= lambda1_max.
    """
    grads = compute_bounds(problems).per_condition_gradients
    return [lambda1 - float(np.linalg.norm(g)) / (len(problems) - 1) for g in grads]


@dataclass(frozen=True)
class CoalescenceCertificate:
    z_norm_max: float
    certified: bool
    stationarity_gap: float


def coalescence_certificate(
    problems: list[RegressionProblem], lambda1: float
) -> CoalescenceCertificate:
    """Constructive optimality check of the coalesced point.

    The candidate dual-ball elements z_ki = (g_k - g_i) / (lambda1 K)
    satisfy the stationarity identity sum_{i != k} z_ki = g_k / lambda1
    algebraically (the gradients sum to zero); when additionally every
    pair norm is at most 1 the coalesced point theta_k = theta_star is
    optimal.  ``compute_bounds`` raises ``FusionUndefinedError`` for a
    single condition.
    """
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    G = np.asarray(compute_bounds(problems).per_condition_gradients)
    scale = lambda1 * len(problems)
    z_norm_max = float(np.sqrt(sq_distances(G, G).max())) / scale
    # sum_{i != k} z_ki - g_k / lambda1 = -sum_i g_i / (lambda1 K) for every k.
    stationarity_gap = float(np.abs(G.sum(axis=0)).max()) / scale
    return CoalescenceCertificate(
        z_norm_max=z_norm_max,
        certified=z_norm_max <= 1.0 + _CERT_SLACK,
        stationarity_gap=stationarity_gap,
    )


def _single_linkage_groups(stack: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy single-linkage grouping of rows at distance tolerance tol."""
    K = stack.shape[0]
    labels = list(range(K))
    for i in range(K):
        for j in range(i + 1, K):
            if np.linalg.norm(stack[i] - stack[j]) <= tol:
                old, new = labels[j], labels[i]
                labels = [new if l == old else l for l in labels]
    groups: dict[int, list[int]] = {}
    for idx, l in enumerate(labels):
        groups.setdefault(l, []).append(idx)
    return list(groups.values())


def solve_oracle(
    problems: list[RegressionProblem],
    hp: Hyperparameters,
    iterations: int = 200_000,
    seed: int = 0,
) -> SolveResult:
    """Desk-scale reference minimizer used to cross-check ``solve``.

    Subgradient descent with step c/sqrt(t) and best-iterate tracking.  At
    the l1 kinks the minimum-norm subdifferential element is used, with
    coefficients within one step's pull of zero treated as sitting at the
    kink, which suppresses the chatter plain sign subgradients produce.
    The tracked candidate set also includes snapped copies of the iterates
    (tiny coefficients zeroed, near-equal condition models averaged) and a
    tail average, all scored by plain objective evaluation.  Shares no
    minimization code with ``solve``.
    """
    if any(p.structure != problems[0].structure for p in problems):
        raise ValueError("structure mismatch between problems")
    structure = problems[0].structure
    K, n = len(problems), structure.n_theta
    if K > _ORACLE_MAX_K or n > _ORACLE_MAX_NTHETA:
        raise ValueError(
            f"oracle size guard: K <= {_ORACLE_MAX_K} and "
            f"n_theta <= {_ORACLE_MAX_NTHETA} required (got K={K}, n_theta={n})"
        )
    if any(p.n_rows > _ORACLE_MAX_ROWS for p in problems):
        raise ValueError(f"oracle size guard: M <= {_ORACLE_MAX_ROWS} required")

    G = np.asarray([2.0 * p.Phi.T @ p.Phi for p in problems])
    bvec = np.asarray([2.0 * p.Phi.T @ p.Y for p in problems])
    c0 = float(sum(p.Y @ p.Y for p in problems))
    squared = hp.fusion_variant == "l2_squared"
    # Pair rows theta_i - theta_j (i < j) are formed once per step.  Row i of
    # ``pair_of`` indexes [pair rows; negated pair rows] by the j != i in
    # ascending order, so each condition sums its fusion terms in j order.
    ii, jj = np.triu_indices(K, k=1)
    pid = np.empty((K, K), dtype=np.intp)
    pid[ii, jj] = np.arange(len(ii))
    pid[jj, ii] = len(ii) + np.arange(len(ii))
    pair_of = pid[~np.eye(K, dtype=bool)].reshape(K, K - 1)

    def value_and_smooth_grad(th: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and the smooth+fusion subgradient (l1 excluded)."""
        Gth = np.einsum("kij,kj->ki", G, th)
        f = c0 - float((bvec * th).sum()) + 0.5 * float((th * Gth).sum())
        g = Gth - bvec
        if K >= 2 and hp.lambda1 > 0.0:
            diffs = th[ii] - th[jj]
            if squared:
                f += hp.lambda1 * float((diffs ** 2).sum())
                terms = diffs
                weight = 2.0 * hp.lambda1
            else:
                norms = np.sqrt((diffs * diffs).sum(axis=1))
                f += hp.lambda1 * float(norms.sum())
                inv = np.where(norms > 1e-300, 1.0 / np.maximum(norms, 1e-300), 0.0)
                terms = diffs * inv[:, None]
                weight = hp.lambda1
            g += weight * np.concatenate([terms, -terms])[pair_of].sum(axis=1)
        f += hp.lambda2 * float(np.abs(th).sum())
        return f, g

    def f_value(th: np.ndarray) -> float:
        return value_and_smooth_grad(th)[0]

    # Safe initial step: reciprocal of the largest smooth curvature present.
    curvature = max(float(np.linalg.eigvalsh(Gk)[-1]) for Gk in G)
    if squared:
        curvature += 4.0 * hp.lambda1 * K
    c = 1.0 / max(curvature, 1e-12)

    rng = np.random.default_rng(seed)
    theta = np.asarray(
        [np.linalg.lstsq(p.Phi, p.Y, rcond=None)[0] for p in problems]
    )
    theta = theta + 1e-9 * (1.0 + np.abs(theta).max()) * rng.standard_normal(theta.shape)

    best_f = f_value(theta)
    best_theta = theta.copy()

    def consider(th: np.ndarray, val: float | None = None) -> None:
        nonlocal best_f, best_theta
        if val is None:
            val = f_value(th)
        if val < best_f:
            best_f = val
            best_theta = th.copy()

    def polish(th: np.ndarray) -> None:
        scale = 1.0 + float(np.abs(th).max())
        for tol in (1e-10, 1e-8, 1e-6, 1e-4):
            cand = np.where(np.abs(th) <= tol * scale, 0.0, th)
            consider(cand)
            if K >= 2:
                for grp in _single_linkage_groups(cand, tol * scale):
                    if len(grp) > 1:
                        merged = cand.copy()
                        merged[grp] = cand[grp].mean(axis=0)
                        consider(merged)
                        consider(np.where(np.abs(merged) <= tol * scale, 0.0, merged))

    # Annealed restarts: each stage reruns the c/sqrt(t) schedule from the
    # best point so far with a smaller constant, shrinking the kink-chatter
    # floor geometrically while early stages cover the travel distance.
    stage_fractions = (0.5, 0.25, 0.25)
    stage_scales = (1.0, 3e-2, 1e-3)
    tail_sum = np.zeros_like(theta)
    tail_count = 0

    for frac, scale in zip(stage_fractions, stage_scales):
        steps = max(1, int(frac * iterations))
        c_stage = c * scale
        theta = best_theta.copy()
        for t in range(1, steps + 1):
            eta = c_stage / math.sqrt(t)
            f, g = value_and_smooth_grad(theta)
            if hp.lambda2 > 0.0:
                sub = g + hp.lambda2 * np.sign(theta)
                # Minimum-norm element where the iterate sits at the kink
                # (within one step's pull of zero); the iterate itself is
                # left untouched so escaping coordinates can accumulate.
                at_kink = np.abs(theta) <= eta * hp.lambda2
                shrunk = np.copysign(np.maximum(np.abs(g) - hp.lambda2, 0.0), g)
                sub = np.where(at_kink, shrunk, sub)
            else:
                sub = g
            consider(theta, f)
            theta = theta - eta * sub
            if t % 1000 == 0:
                polish(best_theta)
            if scale == stage_scales[-1]:
                tail_sum += theta
                tail_count += 1
        consider(theta)
        polish(best_theta)

    if tail_count:
        consider(tail_sum / tail_count)
    polish(best_theta)

    thetas = [ParameterVector(best_theta[k], structure) for k in range(K)]
    return SolveResult(
        thetas=thetas,
        objective=objective(problems, thetas, hp),
        iterations=iterations,
        converged=True,
        primal_residual=0.0,
        dual_residual=0.0,
        trace=None,
    )


def parse_float_row(
    path: str | Path, rownum: int, columns: list[str], cells: list[str]
) -> list[float]:
    """Finite floats from one CSV row's cells, one per column.  A non-numeric
    or non-finite cell raises IngestionError naming the file, row and column."""
    vals = []
    for column, cell in zip(columns, cells):
        cell = cell.strip()
        try:
            v = float(cell)
        except ValueError:
            raise IngestionError(
                f"{path}: row {rownum}, column {column!r}: non-numeric cell {cell!r}"
            ) from None
        if not math.isfinite(v):
            raise IngestionError(
                f"{path}: row {rownum}, column {column!r}: non-finite value {cell!r}"
            )
        vals.append(v)
    return vals


def parse_csv_rows(path: Path, wanted: list[str]) -> np.ndarray:
    """The ``wanted`` columns of a dataset CSV, read row by row with ``csv``."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise IngestionError(f"{path}: row 1: {exc}") from None
        header = [h.strip() for h in header]
        seen: set[str] = set()
        for h in header:
            if h in seen:
                raise IngestionError(f"{path}: duplicate header column {h!r}")
            seen.add(h)
        col_index = {h: i for i, h in enumerate(header)}
        for name in wanted:
            if name not in col_index:
                raise IngestionError(f"{path}: header is missing column {name!r}")
        take = [col_index[name] for name in wanted]

        rows: list[list[float]] = []
        blank = None  # first blank row; only trailing ones are accepted
        rownum = 1  # the last row read; csv raises while reading the next
        try:
            for rownum, row in enumerate(reader, start=2):
                if not row:
                    blank = blank or rownum
                    continue
                if blank is not None:
                    raise IngestionError(f"{path}: row {blank} is blank but data follows")
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}: row {rownum} has {len(row)} cells, header has "
                        f"{len(header)}"
                    )
                rows.append(parse_float_row(path, rownum, wanted, [row[i] for i in take]))
        except csv.Error as exc:
            raise IngestionError(f"{path}: row {rownum + 1}: {exc}") from None
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)
