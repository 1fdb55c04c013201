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
explicit inverses, rebuilt in numpy only when rho changes, give the joint
minimizer each iteration in a few batched products.

The penalty rho starts at ``SolverConfig.rho`` and adapts by residual
balancing on relative residuals (Wohlberg 2017), on the schedule OSQP uses
(Stellato et al. 2020): every ``RHO_ADAPT_EVERY`` iterations, with
r_rel = r / max(||theta||, ||z||) and s_rel = s / (rho ||A^T y||), the
scales of the stopping thresholds, rho is multiplied by
sqrt(r_rel / s_rel) clipped to [``RHO_FACTOR_MIN``, ``RHO_FACTOR_MAX``]
whenever that ratio leaves [1/``RHO_BAND``, ``RHO_BAND``].  Both relative
residuals are unchanged when the data and both weights are scaled together
or when conditions are duplicated, so neither moves the schedule.  After
``RHO_MAX_CHANGES`` changes rho stays fixed, which keeps ADMM's
convergence guarantee.

For a fixed rho, scaled ADMM is a fixed-point iteration v <- T(v) on
v = A theta + y (Douglas-Rachford; Boyd et al. 2011, section 3): z =
prox(v) and y = v - z, so v holds the whole state, and T(v) is the v of
the next plain step.  After each plain step ``solve`` extrapolates by
type-II Anderson acceleration: with the last ``ANDERSON_MEMORY``
differences dG of the residuals g = T(v) - v and dT of the T(v), it takes
gamma = argmin ||g - dG^T gamma|| and moves to T(v) - dT^T gamma, which
sets z and y for the next theta step.  The safeguard is a simple form of
Zhang, O'Donoghue & Boyd 2020's, which accepts extrapolations only while
||g|| keeps falling: when ||g|| grows from one iteration to the next, the
history is dropped and the plain step T(v) is taken.  A singular or
non-finite least-squares solve also keeps the plain step.  A rho change
rescales y and changes T, so it drops the history too.

The stopping test is checked on every iteration, on the plain step from
the (z_in, y_in) the theta step used, extrapolated or not: r = A theta - z
and s = rho A^T (z - z_in).  The theta- and z-step optimality conditions
make rho y a subgradient of the penalties at z and s the gradient
residual of the Lagrangian at theta, for any (z_in, y_in), so it is the
same KKT residual test as for plain ADMM.

Warm starts.  Every ``SolveResult`` carries its final state: z, y, rho and
the theta step built for that rho.  Passed back as ``start``, it replaces
the cold start z = y = 0 at ``SolverConfig.rho``.  ADMM converges from any
(z, y), so the start changes only how many iterations the solve takes
and where, within the stopping tolerance, it stops; the stopping test and
the rho policy (with a fresh budget of changes) are the same.  This is
how a grid of weights is solved along a path, each point from its
neighbour's answer (Friedman, Hastie & Tibshirani 2010; Chi & Lange 2015
for this fusion penalty).  A state whose z has another shape, as when a
zero Euclidean fusion weight leaves no pair rows, is ignored.  The
carried theta step is kept when it solves the same system, that is for
the same G_k, rho and coupling weight: under Euclidean fusion that holds
for every start at the same rho, because the theta step does not involve
the weights; under squared fusion it needs the same lambda1 as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criterion import (
    Hyperparameters,
    ObjectiveBreakdown,
    objective,
    pair_list,
    prox_block_l2,
    prox_l1,
    sq_distances,
)
from .data import ParameterVector, RegressionProblem, shared_structure, stack_values

# Conditions k, i are reported as merged when ||theta_k - theta_i|| falls
# below this factor times (1 + max_k ||theta_k||).
MERGE_REL_TOL = 1e-5

# Residual-balancing rho policy (module docstring).
RHO_ADAPT_EVERY = 10
RHO_BAND = 2.0
RHO_FACTOR_MIN = 1e-2
RHO_FACTOR_MAX = 1e2
RHO_MAX_CHANGES = 20

# Anderson acceleration (module docstring): past residuals per extrapolation.
ANDERSON_MEMORY = 5


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
        # math.isfinite first: every comparison with nan is False.
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite (got {self.rho})")
        for name in ("eps_abs", "eps_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite (got {value})")
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
    rho: float = math.nan  # final penalty
    rho_changes: int = 0
    anderson_steps: int = 0  # accepted extrapolations
    # Where the solve stopped, to start the next one from; None once dropped,
    # as in run_pipeline's report.
    state: SolverState | None = field(default=None, repr=False, compare=False)


def merge_threshold(thetas: list[ParameterVector]) -> float:
    scale = max((float(np.linalg.norm(t.values)) for t in thetas), default=0.0)
    return MERGE_REL_TOL * (1.0 + scale)


def merged_pairs(thetas: list[ParameterVector]) -> list[tuple[int, int]]:
    """Index pairs whose models coincide up to the merge threshold."""
    thr = merge_threshold(thetas)
    stack = stack_values(thetas)
    dists = np.sqrt(sq_distances(stack, stack)[np.tril_indices(len(thetas), -1)])
    return [pair for pair, d in zip(pair_list(len(thetas)), dists) if d <= thr]


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of a 2-D array, summed by numpy itself.

    np.linalg.norm hands large arrays to a threaded BLAS dot whose spinning
    worker threads doubled the CPU time of solves with many pairs.
    """
    return math.sqrt(np.einsum("ij,ij->", x, x))


# cho_factor and cho_solve keep scipy.linalg's names and call shapes: the
# benchmark in perfbench/ counts calls to both by name (README, "Benchmark
# contract").
def cho_factor(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of a PD matrix or (K, n, n) stack, flagged lower.

    Raises ``np.linalg.LinAlgError`` when a matrix is not positive definite.
    """
    return np.linalg.cholesky(a), True


def cho_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """Solve M x = b given ``cho_factor(M)``, as L^-T (L^-1 b), batched."""
    L, _lower = factor
    Linv = np.linalg.inv(L)
    return np.swapaxes(Linv, -1, -2) @ (Linv @ b)


class _ThetaStep:
    """Exact solver for H theta = rhs with H = blockdiag(M_k) - corr * B B^T.

    M_k = G_k + m_diag * I and B stacks K copies of the identity.  With the
    coupling weight c, m_diag = c K + rho and corr = c give the theta-step
    Hessian of every fusion variant: diagonal blocks G_k + (c (K - 1) + rho) I
    and off-diagonal blocks -c I.  It holds M_k^-1 as a (K, n, n) stack and,
    if corr > 0, the inverse of the capacity matrix I/corr - sum_k M_k^-1,
    both built by Cholesky, so a solve (Woodbury identity) is a few products.
    """

    def __init__(self, G: np.ndarray, m_diag: float, corr: float):
        self._G, self._coupling = G, (m_diag, corr)
        eye = np.eye(G.shape[1])
        self._Minv = cho_solve(cho_factor(G + m_diag * eye), eye)
        self._capinv = None
        if corr > 0.0:
            # Inverse of the capacity matrix I/corr - S of the rank-n coupling
            # (PD because H is), as corr (I - corr S)^-1, so that a tiny corr
            # cannot overflow.
            cap = eye - corr * self._Minv.sum(axis=0)
            self._capinv = corr * cho_solve(cho_factor(cap), eye)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        part = np.einsum("kij,kj->ki", self._Minv, rhs)
        if self._capinv is None:
            return part
        return part + self._Minv @ (self._capinv @ part.sum(axis=0))

    def built_for(self, G: np.ndarray, m_diag: float, corr: float) -> bool:
        """True when this step solves the system of these arguments."""
        return self._coupling == (m_diag, corr) and np.array_equal(self._G, G)


@dataclass(frozen=True, eq=False)
class SolverState:
    """The final (z, y, rho) of a solve and the theta step built for rho."""

    z: np.ndarray
    y: np.ndarray
    rho: float
    step: _ThetaStep


def _rho_factor(num: float, den: float) -> float:
    """Residual-balancing factor for rho, given r_rel / s_rel = num / den.

    The ratio comes cross-multiplied so that zero scales need no division:
    1.0 (no change) inside the band and when num and den are both zero,
    the upper clip when only s_rel is zero, the lower one when only r_rel is.
    """
    if num > RHO_BAND * den:
        return RHO_FACTOR_MAX if den == 0.0 else min(math.sqrt(num / den), RHO_FACTOR_MAX)
    if den > RHO_BAND * num:
        return RHO_FACTOR_MIN if num == 0.0 else max(math.sqrt(num / den), RHO_FACTOR_MIN)
    return 1.0


def _anderson_point(
    gram: np.ndarray, dG: np.ndarray, dT: np.ndarray, g: np.ndarray, Tv: np.ndarray
) -> np.ndarray | None:
    """Type-II Anderson point Tv - dT^T gamma, gamma = argmin ||g - dG^T gamma||.

    gamma solves the normal equations with ``gram`` = dG dG^T; a singular
    or non-finite solve returns None, and the caller keeps the plain step.
    The long products use einsum, not BLAS (see ``_norm``).
    """
    with np.errstate(all="ignore"):
        try:
            gamma = np.linalg.solve(gram, np.einsum("ij,j->i", dG, g))
        except np.linalg.LinAlgError:
            return None
        v = Tv - np.einsum("i,ij->j", gamma, dT)
    return v if np.isfinite(v).all() else None


def solve(
    problems: list[RegressionProblem],
    hp: Hyperparameters,
    cfg: SolverConfig | None = None,
    start: SolverState | None = None,
) -> SolveResult:
    """ADMM minimization of the joint criterion over all condition models.

    Stops once primal and dual residuals fall below their mixed
    absolute/relative thresholds; hitting max_iter returns a result with
    ``converged=False`` rather than raising.  ``start``, another solve's
    ``state``, sets the first iterate (module docstring); the arrays it
    holds are never written to.
    """
    cfg = cfg or SolverConfig()
    structure = shared_structure(problems, "problem")
    K, n = len(problems), structure.n_theta

    G = np.asarray([2.0 * p.Phi.T @ p.Phi for p in problems])
    b = np.asarray([2.0 * p.Phi.T @ p.Y for p in problems])
    if not np.isfinite(b).all():
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

    def make_step(rho_val: float, carried: _ThetaStep | None = None) -> _ThetaStep:
        # Conditions couple through rho D^T D when z holds pair differences
        # and through the squared-fusion Hessian otherwise.
        c = rho_val if P else smooth_c
        if carried is not None and carried.built_for(G, c * K + rho_val, c):
            return carried
        return _ThetaStep(G, c * K + rho_val, c)

    def prox(v: np.ndarray) -> np.ndarray:
        z = np.empty_like(v)
        prox_block_l2(v[:P], hp.lambda1 / rho, out=z[:P])
        prox_l1(v[P:], hp.lambda2 / rho, out=z[P:])
        return z

    rho_changes = 0
    if start is not None and start.z.shape == (P + K, n):
        rho, z, y = start.rho, start.z, start.y
        step = make_step(rho, start.step)
    else:
        rho = cfg.rho
        step = make_step(rho)
        z = np.zeros((P + K, n))
        y = np.zeros_like(z)
    v = z + y  # the fixed-point state: z = prox(v) and y = v - z
    abs_pri = cfg.eps_abs * np.sqrt(z.size)
    abs_dual = cfg.eps_abs * np.sqrt(K * n)

    # Anderson history: the last m differences of g = T(v) - v and of T(v),
    # one flat row each, and the Gram matrix of the g differences.
    m = ANDERSON_MEMORY
    dG = np.empty((m, z.size))
    dT = np.empty((m, z.size))
    gram = np.empty((m, m))
    filled = slot = 0
    g_prev = T_prev = None
    g_norm_prev = np.inf
    anderson_steps = 0

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
        if not np.isfinite(theta).all():
            raise SolverNumericalError(f"non-finite iterate at iteration {it}")

        # The plain ADMM step from (z, y) = (z_in, v - z_in): Tv = T(v).
        Ath = np.concatenate((np.take(theta, lo, axis=0) - np.take(theta, hi, axis=0), theta))
        z_in = z
        Tv = Ath + y
        z = prox(Tv)
        y = Tv - z

        r_norm = _norm(Ath - z)
        s_norm = rho * _norm(At(z - z_in))
        scale_pri = max(_norm(theta), _norm(z))
        scale_dual = rho * _norm(At(y))
        eps_pri = abs_pri + cfg.eps_rel * scale_pri
        eps_dual = abs_dual + cfg.eps_rel * scale_dual

        if trace is not None:
            obj_now = objective(
                problems, [ParameterVector(t, structure) for t in theta], hp
            ).total
            trace.append((it, obj_now, r_norm, s_norm))

        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break

        if it % RHO_ADAPT_EVERY == 0 and rho_changes < RHO_MAX_CHANGES:
            # r_rel / s_rel = (r / scale_pri) / (s / scale_dual)
            factor = _rho_factor(r_norm * scale_dual, s_norm * scale_pri)
            if factor != 1.0:
                rho *= factor
                y = y / factor
                step = make_step(rho)
                rho_changes += 1
                # T itself changed: restart from the plain step.
                v = z + y
                filled = slot = 0
                g_prev = T_prev = None
                g_norm_prev = np.inf
                continue

        g_mat = Tv - v
        g_norm = _norm(g_mat)
        g, Tv_flat = g_mat.ravel(), Tv.ravel()
        v = Tv
        if g_norm > g_norm_prev:
            # The last step did not reduce ||g||: plain step, fresh history.
            filled = slot = 0
        elif g_prev is not None:
            dG[slot] = g - g_prev
            dT[slot] = Tv_flat - T_prev
            filled = min(filled + 1, m)
            row = np.einsum("ij,j->i", dG[:filled], dG[slot])
            gram[slot, :filled] = row
            gram[:filled, slot] = row
            slot = (slot + 1) % m
            v_aa = _anderson_point(gram[:filled, :filled], dG[:filled], dT[:filled], g, Tv_flat)
            if v_aa is not None:
                v = v_aa.reshape(Tv.shape)
                z = prox(v)
                y = v - z
                anderson_steps += 1
        g_prev, T_prev, g_norm_prev = g, Tv_flat, g_norm

    thetas = [ParameterVector(theta[k], structure) for k in range(K)]
    return SolveResult(
        thetas=thetas,
        objective=objective(problems, thetas, hp),
        iterations=it,
        converged=converged,
        primal_residual=r_norm,
        dual_residual=s_norm,
        trace=trace,
        rho=rho,
        rho_changes=rho_changes,
        anderson_steps=anderson_steps,
        state=SolverState(z, y, rho, step),
    )

