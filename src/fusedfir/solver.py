"""Joint minimization of the fused estimation criterion.

``solve`` runs ADMM in standard form (Boyd et al. 2011, sections 3 and
5.1): theta minimizes the squared error, plus the squared-distance fusion
when that variant is chosen, subject to A theta = z with A = [D; I].  D
takes the signed difference of every condition pair in ``pair_list``
order under Euclidean fusion and has no rows otherwise.  One auxiliary
block z and one scaled dual y hold both penalties: the block-l2 prox acts
on the pair rows and the l1 prox on the condition rows.  The theta step
solves its coupled positive-definite system exactly: the complete-graph
coupling is a rank-n_theta correction of the per-condition systems, so
explicit inverses, rebuilt with scipy only when rho changes, give the
joint minimizer each iteration in a few batched products.

``solve_oracle`` is a deliberately independent slow check: plain
subgradient descent with diminishing steps and best-iterate tracking,
sharing only objective evaluation with the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .criterion import (
    Hyperparameters,
    ObjectiveBreakdown,
    objective,
    pair_distances,
    pair_list,
    prox_block_l2,
    prox_l1,
)
from .data import ParameterVector, RegressionProblem

# Conditions k, i are reported as merged when ||theta_k - theta_i|| falls
# below this factor times (1 + max_k ||theta_k||).
MERGE_REL_TOL = 1e-5


class SolverNumericalError(RuntimeError):
    """Raised when iterates stop being finite."""


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0
    eps_abs: float = 1e-8
    eps_rel: float = 1e-6
    max_iter: int = 50_000
    trace: bool = False

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    thetas: list[ParameterVector]
    objective: ObjectiveBreakdown
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    trace: list[tuple[int, float, float, float]] | None = None


def max_pairwise_distance(thetas: list[ParameterVector]) -> float:
    stack = np.asarray([t.values for t in thetas])
    return max((float(d.max()) for d in pair_distances(stack)), default=0.0)


def merge_threshold(thetas: list[ParameterVector], rel: float = MERGE_REL_TOL) -> float:
    scale = max((float(np.linalg.norm(t.values)) for t in thetas), default=0.0)
    return rel * (1.0 + scale)


def is_coalesced(thetas: list[ParameterVector], rel: float = MERGE_REL_TOL) -> bool:
    """True when every pair of condition models has effectively merged."""
    return max_pairwise_distance(thetas) <= merge_threshold(thetas, rel)


def merged_pairs(
    thetas: list[ParameterVector], rel: float = MERGE_REL_TOL
) -> list[tuple[int, int]]:
    """Index pairs whose models coincide up to the merge threshold."""
    thr = merge_threshold(thetas, rel)
    dists = chain.from_iterable(pair_distances(np.asarray([t.values for t in thetas])))
    return [pair for pair, d in zip(pair_list(len(thetas)), dists) if float(d) <= thr]


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of a 2-D array, summed by numpy itself.

    np.linalg.norm hands large arrays to a threaded BLAS dot whose spinning
    worker threads doubled the CPU time of solves with many pairs.
    """
    return math.sqrt(np.einsum("ij,ij->", x, x))


class _ThetaStep:
    """Exact solver for H theta = rhs with H = blockdiag(M_k) - corr * B B^T.

    M_k = G_k + m_diag * I and B stacks K copies of the identity.  With the
    coupling weight c, m_diag = c K + rho and corr = c give the theta-step
    Hessian of every fusion variant: diagonal blocks G_k + (c (K - 1) + rho) I
    and off-diagonal blocks -c I.  It holds M_k^-1 as a (K, n, n) stack and,
    if corr > 0, the inverse of the capacity matrix I/corr - sum_k M_k^-1,
    so a solve (Woodbury identity) makes no scipy call.
    """

    def __init__(self, G: np.ndarray, m_diag: float, corr: float):
        eye = np.eye(G.shape[1])
        self._Minv = np.asarray([cho_solve(cho_factor(Gk + m_diag * eye), eye) for Gk in G])
        self._capinv = None
        if corr > 0.0:
            # Capacity matrix of the rank-n coupling; PD because A is PD.
            self._capinv = cho_solve(cho_factor(eye / corr - self._Minv.sum(axis=0)), eye)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        part = np.einsum("kij,kj->ki", self._Minv, rhs)
        if self._capinv is None:
            return part
        return part + self._Minv @ (self._capinv @ part.sum(axis=0))


def _check_problems(problems: list[RegressionProblem]) -> None:
    if not problems:
        raise ValueError("need at least one problem")
    structure = problems[0].structure
    for p in problems:
        if p.structure != structure:
            raise ValueError(
                f"structure mismatch: {p.condition_name!r} differs from "
                f"{problems[0].condition_name!r}"
            )


def solve(
    problems: list[RegressionProblem],
    hp: Hyperparameters,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """ADMM minimization of the joint criterion over all condition models.

    Stops once primal and dual residuals fall below their mixed
    absolute/relative thresholds; hitting max_iter returns a result with
    ``converged=False`` rather than raising.
    """
    cfg = cfg or SolverConfig()
    _check_problems(problems)
    structure = problems[0].structure
    K, n = len(problems), structure.n_theta

    G = np.asarray([2.0 * p.Phi.T @ p.Phi for p in problems])
    b = np.asarray([2.0 * p.Phi.T @ p.Y for p in problems])
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite data in problems")

    # A = [D; I]: D has one signed-difference row per pair under Euclidean
    # fusion and none otherwise; squared fusion stays in the smooth part.
    pairs = pair_list(K) if hp.fusion_variant == "l2" and hp.lambda1 > 0.0 else []
    P = len(pairs)
    lo, hi = np.asarray(pairs, dtype=int).reshape(P, 2).T
    inc_t = np.zeros((K, P))  # D^T, the transposed signed pair incidence
    inc_t[lo, np.arange(P)] = 1.0
    inc_t[hi, np.arange(P)] = -1.0
    smooth_c = 2.0 * hp.lambda1 if hp.fusion_variant == "l2_squared" and K >= 2 else 0.0

    def At(x: np.ndarray) -> np.ndarray:
        return inc_t @ x[:P] + x[P:]

    def make_step(rho_val: float) -> _ThetaStep:
        # Conditions couple through rho D^T D when z holds pair differences
        # and through the squared-fusion Hessian otherwise.
        c = rho_val if P else smooth_c
        return _ThetaStep(G, c * K + rho_val, c)

    rho = cfg.rho
    rescales = 0
    step = make_step(rho)
    z = np.zeros((P + K, n))
    y = np.zeros_like(z)

    trace: list[tuple[int, float, float, float]] | None = [] if cfg.trace else None
    r_norm = np.inf
    s_norm = np.inf
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        # b + rho A^T(z - y), with the pair part added last: this order fixes
        # the rounding that the benchmark's recorded iteration counts rest on.
        zy = z - y
        rhs = b + rho * zy[P:]
        rhs += rho * (inc_t @ zy[:P])
        theta = step.solve(rhs)
        if not np.all(np.isfinite(theta)):
            raise SolverNumericalError(f"non-finite iterate at iteration {it}")

        Ath = np.concatenate((theta[lo] - theta[hi], theta))
        z_old = z
        v = Ath + y
        z = np.concatenate(
            (prox_block_l2(v[:P], hp.lambda1 / rho), prox_l1(v[P:], hp.lambda2 / rho))
        )
        y = v - z

        r_norm = _norm(Ath - z)
        s_norm = rho * _norm(At(z - z_old))
        eps_pri = cfg.eps_abs * np.sqrt(z.size) + cfg.eps_rel * max(_norm(theta), _norm(z))
        eps_dual = cfg.eps_abs * np.sqrt(theta.size) + cfg.eps_rel * rho * _norm(At(y))

        if trace is not None:
            obj_now = objective(
                problems, [ParameterVector(t, structure) for t in theta], hp
            ).total
            trace.append((it, obj_now, r_norm, s_norm))

        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break

        if rescales < 10 and max(r_norm, s_norm) > 10.0 * min(r_norm, s_norm):
            factor = 2.0 if r_norm > s_norm else 0.5
            rho *= factor
            y /= factor
            step = make_step(rho)
            rescales += 1

    thetas = [ParameterVector(theta[k], structure) for k in range(K)]
    return SolveResult(
        thetas=thetas,
        objective=objective(problems, thetas, hp),
        iterations=it,
        converged=converged,
        primal_residual=r_norm,
        dual_residual=s_norm,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Independent slow oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_K = 6
_ORACLE_MAX_NTHETA = 20
_ORACLE_MAX_ROWS = 100


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
    _check_problems(problems)
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
