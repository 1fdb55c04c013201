"""Least-squares baselines: per-condition fits and the pooled fit.

A well-conditioned problem is solved through its Gram (normal-equation)
system: with n <= 512 unknowns and kappa(Phi^T Phi) * 2^-52 <= 1e-12 (a
Gram condition number up to about 4.5e3), that system loses no more than
1e-12 relative accuracy and costs one n x n solve.  Every other problem,
ill-conditioned or rank-deficient, goes to an orthogonal (SVD)
factorization, which deterministically yields the minimum-norm solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ParameterVector, RegressionProblem, shared_structure

# Cost guard: the Gram eigenvalues are only computed up to this size.
_GRAM_EIG_LIMIT = 512
# Largest relative error the Gram path may carry: kappa(G) * eps must not
# exceed it.
_GRAM_SOLVE_TOL = 1e-12


@dataclass(frozen=True)
class LsFit:
    """A least-squares solution with its residual and Gram diagnostics."""

    theta: ParameterVector
    residual_norm_sq: float
    gram_min_eig: float | None
    gram_positive_definite: bool


def _gram_diagnostics(gram: np.ndarray) -> tuple[float | None, bool, bool]:
    """Smallest eigenvalue, positive definiteness, and whether the Gram
    system is conditioned well enough to solve directly.

    Above the eigenvalue limit only a Cholesky factorization is made, and a
    pivot below 1e-12 times the largest diagonal entry counts as singular:
    rounding can leave an exactly singular Gram a tiny positive pivot.
    """
    if gram.shape[0] <= _GRAM_EIG_LIMIT:
        eigs = np.linalg.eigvalsh(gram)
        min_eig, max_eig = float(eigs[0]), float(eigs[-1])
        pd = min_eig > 1e-12 * max(1.0, max_eig)
        solvable = (
            min_eig > 0.0 and max_eig * np.finfo(float).eps <= _GRAM_SOLVE_TOL * min_eig
        )
        return min_eig, pd, solvable
    try:
        pivots = np.diag(np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:
        return None, False, False
    return None, bool(pivots.min() > 1e-12 * max(1.0, gram.diagonal().max())), False


def ls_fit(p: RegressionProblem) -> LsFit:
    """Minimize ||Y - Phi theta||^2; minimum-norm solution when singular.

    The Gram system Phi^T Phi theta = Phi^T Y is solved directly when
    n_theta <= 512 and its condition number times 2^-52 is at most 1e-12;
    otherwise ``np.linalg.lstsq`` (SVD) gives the answer.
    """
    if not (np.all(np.isfinite(p.Phi)) and np.all(np.isfinite(p.Y))):
        raise ValueError(f"non-finite inputs in problem {p.condition_name!r}")
    gram = p.Phi.T @ p.Phi
    min_eig, pd, solvable = _gram_diagnostics(gram)
    if solvable:
        theta = np.linalg.solve(gram, p.Phi.T @ p.Y)
    else:
        theta, *_ = np.linalg.lstsq(p.Phi, p.Y, rcond=None)
    residual = p.Y - p.Phi @ theta
    return LsFit(
        theta=ParameterVector(theta, p.structure),
        residual_norm_sq=float(residual @ residual),
        gram_min_eig=min_eig,
        gram_positive_definite=pd,
    )


def qr_compress(p: RegressionProblem) -> RegressionProblem:
    """The problem as the n + 1 rows of R in [Phi, Y] = QR, or as it is when
    it has no more rows.  ||Y - Phi theta||^2 is the same at every theta
    (Golub and Van Loan, Matrix Computations, 5.3): the last row,
    [0 ... 0 | rho], carries the residual that Phi's columns leave out.
    Not for FIT, which needs the spread of the raw Y."""
    n = p.structure.n_theta
    if p.n_rows <= n + 1:
        return p
    R = np.linalg.qr(np.column_stack([p.Phi, p.Y]), mode="r")
    return RegressionProblem(R[:, n], R[:, :n], p.structure, p.condition_name)


def stack_problems(problems: list[RegressionProblem]) -> RegressionProblem:
    """Vertically stack problems sharing one structure into a single system."""
    structure = shared_structure(problems, "problem")
    return RegressionProblem(
        Y=np.concatenate([p.Y for p in problems]),
        Phi=np.vstack([p.Phi for p in problems]),
        structure=structure,
        condition_name="+".join(p.condition_name for p in problems),
    )


def pooled_ls_fit(problems: list[RegressionProblem]) -> LsFit:
    """Single theta minimizing the summed squared residuals of all problems."""
    return ls_fit(stack_problems(problems))
