from __future__ import annotations

import numpy as np
import pytest

from fusedfir import (
    Hyperparameters,
    ModelStructure,
    ParameterVector,
    RegressionProblem,
    SolverConfig,
    is_coalesced,
    ls_fit,
    max_pairwise_distance,
    merged_pairs,
    objective,
    pooled_ls_fit,
    solve,
    solve_oracle,
)
from fusedfir.solver import _ThetaStep

from conftest import random_problems, scalar_pair


class TestClosedForms:
    def test_fused_pair_partial_shrink(self):
        # For the scalar pair the unfused solution is y_k -/+ lambda1/2.
        result = solve(scalar_pair(), Hyperparameters(1.0, 0.0))
        assert result.converged
        np.testing.assert_allclose(result.thetas[0].values, [0.5], atol=1e-6)
        np.testing.assert_allclose(result.thetas[1].values, [1.5], atol=1e-6)
        assert result.objective.total == pytest.approx(1.5, abs=1e-9)

    def test_fused_pair_coalesces_at_threshold(self):
        problems = scalar_pair()
        result = solve(problems, Hyperparameters(2.0, 0.0))
        star = pooled_ls_fit(problems).theta.values
        for t in result.thetas:
            np.testing.assert_allclose(t.values, star, atol=1e-5)
        assert is_coalesced(result.thetas)

    def test_squared_variant_closed_form(self):
        # Stationarity of the smooth pair penalty gives (2/3, 4/3) at weight 1.
        result = solve(scalar_pair(), Hyperparameters(1.0, 0.0, fusion_variant="l2_squared"))
        np.testing.assert_allclose(result.thetas[0].values, [2.0 / 3.0], atol=1e-6)
        np.testing.assert_allclose(result.thetas[1].values, [4.0 / 3.0], atol=1e-6)

    def test_lasso_only_scalar(self):
        # Single condition, Phi=[1], Y=[2]: soft threshold at lambda2/2.
        s = ModelStructure(taps=1, channels=1)
        p = RegressionProblem(Y=np.array([2.0]), Phi=np.array([[1.0]]), structure=s, condition_name="A0-1")
        result = solve([p], Hyperparameters(0.0, 1.0))
        np.testing.assert_allclose(result.thetas[0].values, [1.5], atol=1e-6)


class TestDecoupling:
    @pytest.mark.parametrize("seed,K", [(0, 2), (1, 3), (2, 4)])
    def test_zero_weights_match_per_condition_ls(self, seed, K):
        problems = random_problems(seed, K=K, n=8, M=30)
        result = solve(problems, Hyperparameters(0.0, 0.0))
        assert result.converged
        for p, t in zip(problems, result.thetas):
            gap = np.abs(t.values - ls_fit(p).theta.values).max()
            assert gap <= 1e-6


class TestInvariants:
    def test_convexity_certificate(self):
        problems = random_problems(5, K=3, n=5, M=20)
        hp = Hyperparameters(1.0, 0.5)
        a = solve(problems, hp).thetas
        b = solve(problems, Hyperparameters(5.0, 2.0)).thetas
        fa = objective(problems, a, hp).total
        fb = objective(problems, b, hp).total
        s = problems[0].structure
        for t in (0.25, 0.5, 0.75):
            mid = [
                ParameterVector(t * x.values + (1 - t) * y.values, s)
                for x, y in zip(a, b)
            ]
            fmid = objective(problems, mid, hp).total
            assert fmid <= t * fa + (1 - t) * fb + 1e-9

    def test_never_beaten_by_feasible_candidates(self):
        for seed in range(4):
            problems = random_problems(seed + 20, K=3, n=6, M=25)
            from fusedfir import lambda1_max, lambda2_max

            hp = Hyperparameters(
                0.4 * lambda1_max(problems), 0.2 * lambda2_max(problems)
            )
            result = solve(problems, hp)
            ls_point = [ls_fit(p).theta for p in problems]
            star = pooled_ls_fit(problems).theta
            pooled_point = [star for _ in problems]
            assert result.objective.total <= objective(problems, ls_point, hp).total + 1e-9
            assert result.objective.total <= objective(problems, pooled_point, hp).total + 1e-9

    def test_permutation_equivariance(self):
        problems = random_problems(7, K=4, n=4, M=15)
        hp = Hyperparameters(2.0, 0.1)
        base = solve(problems, hp)
        perm = [3, 1, 0, 2]
        permuted = solve([problems[i] for i in perm], hp)
        for i, j in enumerate(perm):
            np.testing.assert_allclose(
                permuted.thetas[i].values, base.thetas[j].values, atol=1e-6
            )
        assert permuted.objective.total == pytest.approx(
            base.objective.total, abs=1e-10
        )

    def test_determinism(self):
        problems = random_problems(8, K=3, n=5, M=18)
        hp = Hyperparameters(1.5, 0.7)
        a = solve(problems, hp)
        b = solve(problems, hp)
        assert a.iterations == b.iterations
        for ta, tb in zip(a.thetas, b.thetas):
            np.testing.assert_array_equal(ta.values, tb.values)


class TestSolverMechanics:
    def test_max_iter_returns_unconverged(self):
        problems = random_problems(9, K=3, n=5, M=18)
        result = solve(problems, Hyperparameters(1.0, 1.0), SolverConfig(max_iter=3))
        assert not result.converged
        assert result.iterations == 3

    def test_non_finite_input_rejected(self):
        problems = random_problems(10, K=2, n=3, M=10)
        bad = RegressionProblem.__new__(RegressionProblem)
        object.__setattr__(bad, "Y", problems[0].Y.copy())
        object.__setattr__(bad, "Phi", problems[0].Phi.copy())
        bad.Y[0] = np.nan
        object.__setattr__(bad, "structure", problems[0].structure)
        object.__setattr__(bad, "condition_name", "bad")
        with pytest.raises(ValueError, match="non-finite"):
            solve([bad, problems[1]], Hyperparameters(0.0, 0.0))

    def test_trace_rows(self):
        problems = random_problems(11, K=2, n=3, M=10)
        result = solve(problems, Hyperparameters(0.5, 0.1), SolverConfig(trace=True))
        assert result.trace is not None
        assert len(result.trace) == result.iterations
        it, obj, r, s = result.trace[-1]
        assert it == result.iterations
        assert obj == pytest.approx(result.objective.total, rel=1e-6)

    def test_single_condition(self):
        problems = random_problems(13, K=1, n=4, M=12)
        result = solve(problems, Hyperparameters(0.0, 0.5))
        assert result.converged

    def test_coalescence_helpers(self):
        s = ModelStructure(taps=2, channels=1)
        a = ParameterVector(np.array([1.0, 2.0]), s)
        b = ParameterVector(np.array([1.0, 2.0 + 1e-9]), s)
        c = ParameterVector(np.array([5.0, 5.0]), s)
        assert max_pairwise_distance([a, b]) <= 1e-8
        assert is_coalesced([a, b])
        assert not is_coalesced([a, b, c])
        assert merged_pairs([a, b, c]) == [(0, 1)]


def _gram(rng: np.random.Generator, n: int, M: int, rank_deficient: bool) -> np.ndarray:
    """2 Phi^T Phi; a rank-deficient Phi has a duplicated and a zeroed column."""
    Phi = rng.standard_normal((M, n))
    if rank_deficient:
        Phi[:, 1] = Phi[:, 0]
        Phi[:, 2] = 0.0
    return 2.0 * Phi.T @ Phi


class TestThetaStep:
    """The batched inverse theta step against a dense solve of the
    assembled (K n) x (K n) system, which also checks the capacity matrix
    at large rho * K and with singular G_k."""

    @pytest.mark.parametrize("K", [2, 6, 48])
    @pytest.mark.parametrize("rho", [2.0**-10, 1.0, 2.0**20])
    @pytest.mark.parametrize("coupling", ["l2", "l2_squared", "uncoupled"])
    def test_matches_dense_solve(self, K, rho, coupling):
        n, M = 6, 20
        rng = np.random.default_rng(K)
        G = np.asarray([_gram(rng, n, M, rank_deficient=k == 0) for k in range(K)])
        # (m_diag, corr) as solve builds them for each fusion variant.
        if coupling == "l2":
            m_diag, corr = rho * (K + 1), rho
        elif coupling == "l2_squared":
            lambda1 = 0.7
            m_diag, corr = 2.0 * lambda1 * K + rho, 2.0 * lambda1
        else:
            m_diag, corr = rho, 0.0
        A = np.kron(np.eye(K), m_diag * np.eye(n)) - corr * np.kron(np.ones((K, K)), np.eye(n))
        for k in range(K):
            A[k * n:(k + 1) * n, k * n:(k + 1) * n] += G[k]
        rhs = rng.standard_normal((K, n)) * np.maximum(1.0, rho)
        expected = np.linalg.solve(A, rhs.ravel()).reshape(K, n)
        got = _ThetaStep(G, m_diag, corr).solve(rhs)
        # Relative to the solution's norm: entries near zero carry the
        # dense solve's own rounding.
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


class TestOracle:
    def test_size_guard(self):
        problems = random_problems(14, K=2, n=25, M=30)
        with pytest.raises(ValueError, match="size guard"):
            solve_oracle(problems, Hyperparameters(0.0, 0.0), iterations=10)
        problems = random_problems(15, K=2, n=4, M=150)
        with pytest.raises(ValueError, match="size guard"):
            solve_oracle(problems, Hyperparameters(0.0, 0.0), iterations=10)

    def test_matches_ls_at_zero_weights(self):
        problems = random_problems(16, K=2, n=5, M=20)
        oracle = solve_oracle(problems, Hyperparameters(0.0, 0.0), iterations=5000, seed=0)
        ls_total = sum(ls_fit(p).residual_norm_sq for p in problems)
        assert oracle.objective.total == pytest.approx(ls_total, rel=1e-6, abs=1e-6)

    def test_scalar_pair_agreement(self):
        problems = scalar_pair()
        hp = Hyperparameters(1.0, 0.0)
        fast = solve(problems, hp)
        slow = solve_oracle(problems, hp, iterations=20_000, seed=1)
        gap = abs(fast.objective.total - slow.objective.total) / (1 + slow.objective.total)
        assert gap <= 1e-5

    def test_squared_variant_agreement(self):
        problems = scalar_pair()
        hp = Hyperparameters(1.0, 0.0, fusion_variant="l2_squared")
        fast = solve(problems, hp)
        slow = solve_oracle(problems, hp, iterations=20_000, seed=2)
        gap = abs(fast.objective.total - slow.objective.total) / (1 + slow.objective.total)
        assert gap <= 1e-5

    def test_kinked_instance_agreement(self):
        from fusedfir import lambda1_max, lambda2_max

        problems = random_problems(17, K=3, n=6, M=30)
        hp = Hyperparameters(
            0.5 * lambda1_max(problems), 0.5 * lambda2_max(problems)
        )
        fast = solve(problems, hp)
        slow = solve_oracle(problems, hp, iterations=60_000, seed=3)
        gap = abs(fast.objective.total - slow.objective.total) / (1 + slow.objective.total)
        assert gap <= 1e-5
