from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusedfir import (
    Hyperparameters,
    ModelStructure,
    ParameterVector,
    RegressionProblem,
    SolverConfig,
    is_coalesced,
    lambda1_max,
    lambda2_max,
    ls_fit,
    max_pairwise_distance,
    merged_pairs,
    objective,
    pooled_ls_fit,
    solve,
    solve_oracle,
)
from fusedfir.solver import (
    ANDERSON_MEMORY,
    RHO_ADAPT_EVERY,
    RHO_FACTOR_MAX,
    RHO_FACTOR_MIN,
    RHO_MAX_CHANGES,
    _anderson_point,
    _rho_factor,
    _ThetaStep,
    cho_factor,
    cho_solve,
)

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


class TestAnderson:
    """The extrapolation step on its own, and its effect inside ``solve``."""

    def test_affine_map_reaches_its_fixed_point(self):
        # For an affine T with as many independent differences as
        # dimensions, the type-II point is T's fixed point exactly.
        rng = np.random.default_rng(0)
        dim = ANDERSON_MEMORY
        M = 0.5 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
        c = rng.standard_normal(dim)
        fixed = np.linalg.solve(np.eye(dim) - M, c)
        vs = [rng.standard_normal(dim)]
        for _ in range(dim):
            vs.append(M @ vs[-1] + c)
        Ts = [M @ v + c for v in vs]
        gs = [t - v for t, v in zip(Ts, vs)]
        dG = np.diff(gs, axis=0)
        dT = np.diff(Ts, axis=0)
        got = _anderson_point(dG @ dG.T, dG, dT, gs[-1], Ts[-1])
        np.testing.assert_allclose(got, fixed, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "case", ["zero_history", "nan_history", "inf_history", "overflowing_history"]
    )
    def test_degenerate_history_keeps_the_plain_step(self, case):
        # pytest turns RuntimeWarning into errors, so these also check
        # that the fallback is silent.
        g, Tv = np.ones(6), np.arange(6.0)
        dG = np.zeros((2, 6))
        if case == "nan_history":
            dG[0, 0] = np.nan
        elif case == "inf_history":
            dG[1, 2] = np.inf
        elif case == "overflowing_history":
            # A tiny but regular Gram matrix: gamma ~ 1e150 is finite, and
            # the step overflows.
            dG[0, 0], dG[1, 1] = 1e-150, 2e-150
        dT = np.full((2, 6), 1e300)
        with np.errstate(all="ignore"):
            gram = dG @ dG.T
        assert _anderson_point(gram, dG, dT, g, Tv) is None

    def test_solve_counts_accepted_extrapolations(self):
        # The last iteration stops on its plain step and extrapolates nothing.
        problems = random_problems(21, K=4, n=5, M=25)
        hp = Hyperparameters(0.3 * lambda1_max(problems), 0.1 * lambda2_max(problems))
        result = solve(problems, hp)
        assert result.converged
        assert 0 < result.anderson_steps < result.iterations


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

    @pytest.mark.parametrize("field", ["rho", "eps_abs", "eps_rel"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_config_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolverConfig(**{field: value})

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

    def test_subnormal_squared_fusion_weight(self):
        # The capacity inverse must not overflow when 1 / (2 lambda1) does.
        problems = random_problems(16, K=2, n=4, M=12)
        tiny = solve(problems, Hyperparameters(1e-310, 0.5, "l2_squared"))
        plain = solve(problems, Hyperparameters(0.0, 0.5, "l2_squared"))
        assert tiny.converged
        for a, b in zip(tiny.thetas, plain.thetas):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-12)

    def test_coalescence_helpers(self):
        s = ModelStructure(taps=2, channels=1)
        a = ParameterVector(np.array([1.0, 2.0]), s)
        b = ParameterVector(np.array([1.0, 2.0 + 1e-9]), s)
        c = ParameterVector(np.array([5.0, 5.0]), s)
        assert max_pairwise_distance([a, b]) <= 1e-8
        assert is_coalesced([a, b])
        assert not is_coalesced([a, b, c])
        assert merged_pairs([a, b, c]) == [(0, 1)]


class TestIdenticalConditions:
    @pytest.mark.parametrize("variant", ["l2", "l2_squared"])
    def test_copies_match_single_condition(self, variant):
        # Identical conditions leave the fusion term at zero, whichever way
        # the solver carries it.
        (p,) = random_problems(14, K=1, n=5, M=20)
        single = solve([p], Hyperparameters(0.0, 0.5)).thetas[0].values
        result = solve([p] * 4, Hyperparameters(0.8, 0.5, variant))
        assert result.converged
        for t in result.thetas:
            assert np.linalg.norm(t.values - single) <= 1e-9 * (1 + np.linalg.norm(single))

    def test_single_condition_ignores_fusion_weight(self):
        problems = random_problems(15, K=1, n=5, M=20)
        a = solve(problems, Hyperparameters(0.0, 0.5))
        b = solve(problems, Hyperparameters(3.0, 0.5))
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.thetas[0].values, b.thetas[0].values)


def random_instance(seed, K, variant, fractions):
    """Small random problems with weights at the given fractions of their
    bounds (no fusion weight for a single condition)."""
    problems = random_problems(seed, K=K, n=4, M=12)
    l1 = fractions[0] * lambda1_max(problems) if K >= 2 else 0.0
    return problems, Hyperparameters(l1, fractions[1] * lambda2_max(problems), variant)


instances = dict(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 4),
    variant=st.sampled_from(["l2", "l2_squared"]),
    fractions=st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2)),
)


class TestRhoPolicy:
    @pytest.mark.parametrize(
        "num,den,factor",
        [
            (0.0, 0.0, 1.0),  # r = s = 0, or every scale zero
            (1.0, 0.0, RHO_FACTOR_MAX),  # only s_rel is zero
            (0.0, 1.0, RHO_FACTOR_MIN),  # only r_rel is zero
            (1.0, 1.0, 1.0),
            (2.0, 1.0, 1.0),  # the band is closed
            (1.0, 2.0, 1.0),
            (9.0, 1.0, 3.0),
            (1.0, 9.0, 1.0 / 3.0),
            (1e6, 1.0, RHO_FACTOR_MAX),
            (1.0, 1e6, RHO_FACTOR_MIN),
        ],
    )
    def test_factor(self, num, den, factor):
        assert _rho_factor(num, den) == pytest.approx(factor, rel=1e-15)

    @given(rho=st.sampled_from([1e-6, 1.0, 1e6]), **instances)
    def test_changes_capped(self, seed, K, variant, fractions, rho):
        problems, hp = random_instance(seed, K, variant, fractions)
        result = solve(problems, hp, SolverConfig(rho=rho, max_iter=2000))
        assert 0 <= result.rho_changes <= RHO_MAX_CHANGES
        if result.rho_changes == 0:
            assert result.rho == rho

    @pytest.mark.parametrize("rho,factor", [(1e-60, RHO_FACTOR_MAX), (1e60, RHO_FACTOR_MIN)])
    def test_far_start_clips_each_change_until_the_cap(self, rho, factor):
        # So far from balance that every check wants more than the clip,
        # and twenty clipped changes still leave rho far out.
        problems = random_problems(5, K=3, n=4, M=20)
        hp = Hyperparameters(0.5 * lambda1_max(problems), 0.1 * lambda2_max(problems))
        result = solve(problems, hp, SolverConfig(rho=rho, max_iter=400))
        assert result.rho_changes == RHO_MAX_CHANGES
        assert result.rho == pytest.approx(rho * factor**RHO_MAX_CHANGES, rel=1e-12)

    def test_balanced_residuals_keep_rho(self):
        # Large enough that the restarted solve passes more than two checks.
        problems = random_problems(0, K=6, n=8, M=40)
        hp = Hyperparameters(0.5 * lambda1_max(problems), 0.1 * lambda2_max(problems))
        first = solve(problems, hp)
        assert first.converged and first.rho_changes > 0
        # Restarted at the rho the first solve settled on, the residuals
        # stay inside the band at every check.
        again = solve(problems, hp, SolverConfig(rho=first.rho))
        assert again.converged
        assert again.iterations > 2 * RHO_ADAPT_EVERY
        assert again.rho_changes == 0
        assert again.rho == first.rho


class TestAccuracy:
    """The default stopping test is a KKT residual test on the plain ADMM
    step, whether or not the step started from an extrapolated point, so
    its answer's objective stays close to that of a much tighter solve."""

    @given(**instances)
    def test_default_tolerance_objective_near_tight_solve(self, seed, K, variant, fractions):
        problems, hp = random_instance(seed, K, variant, fractions)
        default = solve(problems, hp)
        tight = solve(problems, hp, SolverConfig(eps_abs=1e-12, eps_rel=1e-10))
        assert default.converged and tight.converged
        f, f_tight = default.objective.total, tight.objective.total
        assert abs(f - f_tight) <= 1e-6 * (1.0 + abs(f_tight))


class TestScaleEquivariance:
    """Scaling Y by c scales theta by c when the weights follow: lambda2
    and the Euclidean fusion weight scale with c, the squared-fusion weight
    does not (its penalty is quadratic like the fit).  The absolute
    tolerance is given in the data's units, so both solves stop by the same
    relative test."""

    @given(c=st.sampled_from([1e-3, 1e3]), **instances)
    def test_scaled_data_scales_theta(self, seed, K, variant, fractions, c):
        problems, hp = random_instance(seed, K, variant, fractions)
        base = solve(problems, hp)
        l1 = hp.lambda1 * c if variant == "l2" else hp.lambda1
        scaled = solve(
            [replace(p, Y=c * p.Y) for p in problems],
            Hyperparameters(l1, c * hp.lambda2, variant),
            SolverConfig(eps_abs=c * SolverConfig().eps_abs),
        )
        assert base.converged and scaled.converged
        theta = np.asarray([t.values for t in base.thetas])
        theta_c = np.asarray([t.values for t in scaled.thetas])
        assert np.linalg.norm(theta_c / c - theta) <= 1e-6 * (1.0 + np.linalg.norm(theta))


class TestPermutationEquivariance:
    """The criterion is symmetric in the conditions, so solving them in
    another order permutes the coefficient vectors and nothing else."""

    @given(data=st.data(), **dict(instances, K=st.integers(2, 4)))
    def test_permuted_conditions_permute_theta(self, seed, K, variant, fractions, data):
        problems, hp = random_instance(seed, K, variant, fractions)
        perm = data.draw(st.permutations(range(K)))
        base = solve(problems, hp)
        permuted = solve([problems[i] for i in perm], hp)
        assert base.converged and permuted.converged
        theta = np.asarray([t.values for t in base.thetas])
        theta_p = np.asarray([t.values for t in permuted.thetas])
        assert np.linalg.norm(theta_p - theta[perm]) <= 1e-6 * (1.0 + np.linalg.norm(theta))


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


def _spd(rng: np.random.Generator, shape: tuple[int, ...], n: int) -> np.ndarray:
    """Random symmetric positive-definite matrices of the given stack shape."""
    A = rng.standard_normal((*shape, n + 3, n))
    return np.swapaxes(A, -1, -2) @ A + 0.1 * np.eye(n)


class TestCholeskyHelpers:
    """The solver's numpy ``cho_factor``/``cho_solve`` against scipy's, on
    single matrices and on the (K, n, n) stacks the theta step inverts."""

    @pytest.mark.parametrize("shape", [(), (1,), (6,), (48,)])
    @pytest.mark.parametrize("n", [1, 6, 15])
    def test_inverse_matches_scipy(self, shape, n):
        from scipy.linalg import cho_factor as sp_factor, cho_solve as sp_solve

        M = _spd(np.random.default_rng(n + len(shape)), shape, n)
        eye = np.eye(n)
        got = cho_solve(cho_factor(M), eye)
        assert got.shape == M.shape
        for got_k, M_k in zip(got.reshape(-1, n, n), M.reshape(-1, n, n)):
            expected = sp_solve(sp_factor(M_k), eye)
            assert np.linalg.norm(got_k - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_stack_equals_per_matrix(self):
        M = _spd(np.random.default_rng(3), (48,), 15)
        eye = np.eye(15)
        per_matrix = np.asarray([cho_solve(cho_factor(M_k), eye) for M_k in M])
        np.testing.assert_array_equal(cho_solve(cho_factor(M), eye), per_matrix)

    @pytest.mark.parametrize("shape", [(), (6,)])
    def test_indefinite_raises(self, shape):
        M = _spd(np.random.default_rng(4), shape, 5)
        M.reshape(-1, 5, 5)[-1, 2, 2] = -1.0  # the last stacked matrix, or the only one
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(M)


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

    @pytest.mark.parametrize(
        "seed,variant,lambda2_factor", [(0, "l2", 0.5), (1, "l2", 0.0), (2, "l2_squared", 0.1)]
    )
    def test_duplicated_column_agreement(self, seed, variant, lambda2_factor):
        # A repeated regressor column makes every Phi rank-deficient, so the
        # fit term alone has no unique minimizer.
        s = ModelStructure(taps=6, channels=1)
        problems = [
            RegressionProblem(
                Y=p.Y, Phi=np.column_stack([p.Phi, p.Phi[:, 0]]), structure=s,
                condition_name=p.condition_name,
            )
            for p in random_problems(seed + 100, K=3, n=5, M=20)
        ]
        hp = Hyperparameters(
            0.5 * lambda1_max(problems), lambda2_factor * lambda2_max(problems), variant
        )
        fast = solve(problems, hp)
        slow = solve_oracle(problems, hp, iterations=60_000, seed=seed)
        assert fast.converged
        gap = abs(fast.objective.total - slow.objective.total) / (1 + slow.objective.total)
        assert gap <= 1e-5

    def test_kinked_instance_agreement(self):
        problems = random_problems(17, K=3, n=6, M=30)
        hp = Hyperparameters(
            0.5 * lambda1_max(problems), 0.5 * lambda2_max(problems)
        )
        fast = solve(problems, hp)
        slow = solve_oracle(problems, hp, iterations=60_000, seed=3)
        gap = abs(fast.objective.total - slow.objective.total) / (1 + slow.objective.total)
        assert gap <= 1e-5
