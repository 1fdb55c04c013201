"""Closed-form penalty bounds.

All quantities revolve around the pooled least-squares solution theta_star
and the per-condition gradients g_k = 2 Phi_k^T (Y_k - Phi_k theta_star),
which sum to zero by pooled stationarity.  The fusion weight above which
the coalesced point satisfies the necessary first-order condition is
max_k ||g_k|| / (K - 1); a slightly larger weight, 2 max_k ||g_k|| / K,
provably suffices because it exhibits feasible dual-ball elements for
every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ParameterVector, RegressionProblem, shared_structure
from .estimation import pooled_ls_fit


class FusionUndefinedError(ValueError):
    """Raised when a fusion bound is requested for a single condition."""


@dataclass(frozen=True)
class BoundsReport:
    lambda1_max: float
    lambda2_max: float
    per_condition_gradients: list[np.ndarray]
    theta_star: ParameterVector
    lambda1_sufficient: float

    def to_dict(self) -> dict:
        return {
            "lambda1_max": self.lambda1_max,
            "lambda2_max": self.lambda2_max,
            "lambda1_sufficient": self.lambda1_sufficient,
            "theta_star": [float(x) for x in self.theta_star.values],
            "per_condition_gradients": [
                [float(x) for x in g] for g in self.per_condition_gradients
            ],
        }


def _pooled_gradients(
    problems: list[RegressionProblem],
) -> tuple[list[np.ndarray], list[float], ParameterVector]:
    """Per-condition gradients at the pooled fit, their norms and the fit."""
    if len(problems) < 2:
        raise FusionUndefinedError("fusion bound undefined for a single condition")
    star = pooled_ls_fit(problems).theta
    grads = [2.0 * p.Phi.T @ (p.Y - p.Phi @ star.values) for p in problems]
    return grads, [float(np.linalg.norm(g)) for g in grads], star


def _fusion_bounds(norms: list[float]) -> tuple[float, float]:
    """(necessary, sufficient) fusion weights from the gradient norms."""
    return max(norms) / (len(norms) - 1), 2.0 * max(norms) / len(norms)


def lambda1_max(problems: list[RegressionProblem]) -> float:
    """Smallest fusion weight consistent with coalesced first-order optimality."""
    return _fusion_bounds(_pooled_gradients(problems)[1])[0]


def lambda2_max(problems: list[RegressionProblem]) -> float:
    """Sparsity weight above which the all-zero solution is optimal."""
    shared_structure(problems, "problem")
    return max(2.0 * float(np.abs(p.Phi.T @ p.Y).max()) for p in problems)


def compute_bounds(problems: list[RegressionProblem]) -> BoundsReport:
    """Both penalty bounds plus the pooled fit they are evaluated at."""
    grads, norms, star = _pooled_gradients(problems)
    necessary, sufficient = _fusion_bounds(norms)
    return BoundsReport(
        lambda1_max=necessary,
        lambda2_max=lambda2_max(problems),
        per_condition_gradients=grads,
        theta_star=star,
        lambda1_sufficient=sufficient,
    )

