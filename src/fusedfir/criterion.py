"""The joint estimation criterion and its proximal pieces.

The criterion couples per-condition squared error with a pairwise
Euclidean fusion penalty (pulling condition models together) and an l1
penalty (pruning irrelevant coefficients):

    sum_k ||Y_k - Phi_k theta_k||^2
        + lambda1 * sum_{k<i} ||theta_k - theta_i||_2
        + lambda2 * sum_k ||theta_k||_1

The fusion sum runs over unordered pairs, each counted once.  A smooth
variant squares the pair distances.  Every pairwise Euclidean distance
the package takes, here, in the solver's merge checks, the bounds'
certificate and the clustering, comes from ``sq_distances``; only the
solver's independent oracle computes its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .data import ParameterVector, RegressionProblem

FusionVariant = Literal["l2", "l2_squared"]

FUSION_VARIANTS = ("l2", "l2_squared")


@dataclass(frozen=True)
class Hyperparameters:
    lambda1: float
    lambda2: float
    fusion_variant: FusionVariant = "l2"

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.fusion_variant not in FUSION_VARIANTS:
            raise ValueError(
                f"fusion_variant must be one of {FUSION_VARIANTS}, "
                f"got {self.fusion_variant!r}"
            )


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Cost terms kept unweighted alongside their weights.

    ``total`` equals fit_term + lambda1*fusion_term + lambda2*sparsity_term
    by construction.
    """

    fit_term: float
    fusion_term: float
    sparsity_term: float
    lambda1: float
    lambda2: float
    total: float


def pair_list(K: int) -> list[tuple[int, int]]:
    """Unordered index pairs (k, i), k < i, grouped by ascending larger index.

    This fixed order makes the fusion sum extendable one condition at a
    time, so adding condition K appends exactly the K-1 new pair terms.
    """
    return [(k, i) for i in range(K) for k in range(i)]


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every row of A to every row of B.

    For a stack S, the entries of ``sq_distances(S, S)`` at
    ``np.tril_indices(len(S), -1)`` are its pairs in ``pair_list`` order.
    """
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def _shared_stack(thetas: list[ParameterVector]) -> np.ndarray:
    if not thetas:
        raise ValueError("need at least one parameter vector")
    structure = thetas[0].structure
    for t in thetas:
        if t.structure != structure:
            raise ValueError("parameter vectors must share one structure")
    return np.asarray([t.values for t in thetas])


def fusion_value(thetas: list[ParameterVector]) -> float:
    """Sum of pairwise Euclidean distances, one term per unordered pair."""
    S = _shared_stack(thetas)
    total = 0.0
    # One row at a time, in pair_list order: no (K, K, n) temporary, and
    # adding a condition adds exactly its own row's sum.
    for i in range(1, len(S)):
        total += float(np.sqrt(sq_distances(S[i : i + 1], S[:i])).sum())
    return total


def fusion_value_squared(thetas: list[ParameterVector]) -> float:
    """Sum of squared pairwise Euclidean distances (smooth fusion variant)."""
    S = _shared_stack(thetas)
    return float(sq_distances(S, S)[np.tril_indices(len(S), -1)].sum())


def objective(
    problems: list[RegressionProblem],
    thetas: list[ParameterVector],
    hp: Hyperparameters,
) -> ObjectiveBreakdown:
    """Evaluate the joint criterion exactly at the given parameters."""
    if len(problems) != len(thetas) or not problems:
        raise ValueError(
            f"got {len(problems)} problems and {len(thetas)} parameter vectors"
        )
    for p, t in zip(problems, thetas):
        if p.structure != t.structure:
            raise ValueError(
                f"structure mismatch for condition {p.condition_name!r}"
            )
    fit = 0.0
    for p, t in zip(problems, thetas):
        r = p.Y - p.Phi @ t.values
        fit += float(r @ r)
    if hp.fusion_variant == "l2":
        fusion = fusion_value(thetas)
    else:
        fusion = fusion_value_squared(thetas)
    sparsity = float(sum(np.abs(t.values).sum() for t in thetas))
    return ObjectiveBreakdown(
        fit_term=fit,
        fusion_term=fusion,
        sparsity_term=sparsity,
        lambda1=hp.lambda1,
        lambda2=hp.lambda2,
        total=fit + hp.lambda1 * fusion + hp.lambda2 * sparsity,
    )


def prox_block_l2(v: np.ndarray, tau: float) -> np.ndarray:
    """Proximal map of tau*||.||_2 on each row along the last axis: shrink
    the row toward 0, to 0 when its norm is at most tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > tau, 1.0 - tau / np.maximum(norms, 1e-300), 0.0)
    return scale * v


def prox_l1(v: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise soft threshold sign(v) * max(|v| - tau, 0)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
