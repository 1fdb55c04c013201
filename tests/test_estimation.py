from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusedfir import ModelStructure, RegressionProblem, compute_bounds, ls_fit, pooled_ls_fit
from fusedfir.estimation import _gram_diagnostics, qr_compress, stack_problems

from conftest import random_problems


def problem(Phi, Y, name="C0-1"):
    Phi = np.asarray(Phi, dtype=float)
    s = ModelStructure(taps=Phi.shape[1], channels=1)
    return RegressionProblem(Y=np.asarray(Y, dtype=float), Phi=Phi, structure=s, condition_name=name)


class TestLsFit:
    def test_identity_design(self):
        fit = ls_fit(problem(np.eye(2), [1.0, 1.0]))
        np.testing.assert_allclose(fit.theta.values, [1.0, 1.0], atol=1e-12)
        assert fit.residual_norm_sq <= 1e-20

    def test_zero_target(self):
        fit = ls_fit(problem(np.eye(3), np.zeros(3)))
        np.testing.assert_allclose(fit.theta.values, 0.0, atol=1e-14)

    def test_one_dimensional_normal_equation(self):
        # Hand solution theta = 1 with residual 2, cross-checked by a scan.
        p = problem([[1.0], [1.0]], [0.0, 2.0])
        fit = ls_fit(p)

        grid = np.linspace(-3.0, 3.0, 6001)
        sse = ((p.Y[:, None] - p.Phi @ grid[None, :]) ** 2).sum(axis=0)
        best = grid[np.argmin(sse)]
        assert abs(best - 1.0) < 1e-3

        np.testing.assert_allclose(fit.theta.values, [1.0], atol=1e-12)
        assert abs(fit.residual_norm_sq - 2.0) <= 1e-12

    def test_residual_orthogonality(self):
        for seed in range(5):
            p = random_problems(seed, K=1, n=6, M=20)[0]
            fit = ls_fit(p)
            lhs = np.abs(p.Phi.T @ (p.Y - p.Phi @ fit.theta.values)).max()
            assert lhs <= 1e-8 * (1.0 + np.abs(p.Phi.T @ p.Y).max())

    def test_rank_deficient_minimum_norm(self):
        # Duplicate columns: solutions form a line; lstsq picks minimum norm.
        Phi = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fit = ls_fit(problem(Phi, [2.0, 4.0, 6.0]))
        np.testing.assert_allclose(fit.theta.values, [1.0, 1.0], atol=1e-10)
        assert not fit.gram_positive_definite
        assert fit.gram_min_eig == pytest.approx(0.0, abs=1e-10)

    def test_gram_positive_definite_flag(self):
        fit = ls_fit(random_problems(0, K=1, n=4, M=30)[0])
        assert fit.gram_positive_definite
        assert fit.gram_min_eig > 0

    def test_non_finite_rejected(self):
        p = problem(np.eye(2), [1.0, 1.0])
        bad = RegressionProblem.__new__(RegressionProblem)
        object.__setattr__(bad, "Y", np.array([np.nan, 1.0]))
        object.__setattr__(bad, "Phi", p.Phi)
        object.__setattr__(bad, "structure", p.structure)
        object.__setattr__(bad, "condition_name", "bad")
        with pytest.raises(ValueError, match="non-finite"):
            ls_fit(bad)


class TestSolvePaths:
    """``ls_fit`` solves the Gram system when it is well conditioned and
    falls back to ``lstsq`` (SVD) otherwise."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 15),
        extra_rows=st.integers(0, 60),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_gram_path_agrees_with_lstsq(self, seed, n, extra_rows, scale):
        rng = np.random.default_rng(seed)
        Phi = scale * rng.standard_normal((4 * n + extra_rows, n))
        Y = Phi @ rng.standard_normal(n) + rng.standard_normal(Phi.shape[0])
        assert _gram_diagnostics(Phi.T @ Phi)[2]  # the Gram path is taken
        theta = ls_fit(problem(Phi, Y)).theta.values
        ref = np.linalg.lstsq(Phi, Y, rcond=None)[0]
        assert np.linalg.norm(theta - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))

    def test_nearly_collinear_takes_lstsq_path(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(200)
        Phi = np.column_stack(
            [x, x + 9e-3 * rng.standard_normal(200), rng.standard_normal((200, 3))]
        )
        Y = Phi @ np.array([1.0, -1.0, 0.5, 0.0, 2.0]) + 0.1 * rng.standard_normal(200)
        eigs = np.linalg.eigvalsh(Phi.T @ Phi)
        assert 3e4 < eigs[-1] / eigs[0] < 8e4
        fit = ls_fit(problem(Phi, Y))
        assert fit.gram_positive_definite
        assert not _gram_diagnostics(Phi.T @ Phi)[2]
        np.testing.assert_array_equal(
            fit.theta.values, np.linalg.lstsq(Phi, Y, rcond=None)[0]
        )


class TestLargeGram:
    """Above 512 unknowns the Gram matrix is only Cholesky-factored: no
    smallest eigenvalue, and ``lstsq`` always gives theta."""

    @pytest.mark.parametrize("seed", range(4))
    def test_full_rank_and_duplicated_column(self, seed):
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((600, 513))
        Y = rng.standard_normal(600)
        fit = ls_fit(problem(Phi, Y))
        assert fit.gram_min_eig is None
        assert fit.gram_positive_definite
        np.testing.assert_array_equal(fit.theta.values, np.linalg.lstsq(Phi, Y, rcond=None)[0])

        Phi[:, 400] = Phi[:, 100]
        fit = ls_fit(problem(Phi, Y))
        assert fit.gram_min_eig is None
        assert not fit.gram_positive_definite


class TestPooled:
    def test_two_identity_conditions_average(self):
        p1 = problem(np.eye(2), [1.0, 1.0])
        p2 = problem(np.eye(2), [3.0, 3.0], name="C1-1")
        fit = pooled_ls_fit([p1, p2])
        np.testing.assert_allclose(fit.theta.values, [2.0, 2.0], atol=1e-12)

    def test_single_condition_reduces_to_ls(self):
        p = random_problems(3, K=1, n=5, M=25)[0]
        np.testing.assert_array_equal(
            pooled_ls_fit([p]).theta.values, ls_fit(p).theta.values
        )

    def test_matches_stacked_system(self):
        problems = random_problems(4, K=3, n=4, M=12)
        pooled = pooled_ls_fit(problems)
        stacked = ls_fit(stack_problems(problems))
        np.testing.assert_allclose(
            pooled.theta.values, stacked.theta.values, atol=1e-10
        )
        assert pooled.residual_norm_sq == pytest.approx(
            stacked.residual_norm_sq, rel=1e-10
        )

    def test_pooled_stationarity(self):
        # The per-condition gradients at the pooled solution cancel.
        problems = random_problems(5, K=4, n=6, M=20)
        star = pooled_ls_fit(problems).theta.values
        total = sum(p.Phi.T @ (p.Y - p.Phi @ star) for p in problems)
        assert np.abs(total).max() <= 1e-8

    def test_structure_mismatch(self):
        p1 = problem(np.eye(2), [1.0, 1.0])
        p2 = problem(np.eye(3), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="structure mismatch"):
            pooled_ls_fit([p1, p2])

    def test_empty(self):
        with pytest.raises(ValueError):
            pooled_ls_fit([])


def fit_term(p, theta):
    r = p.Y - p.Phi @ theta
    return float(r @ r)


class TestQrCompress:
    """The (n + 1)-row QR factor keeps every quantity that reads a problem
    only through ||Y - Phi theta||^2."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        data=st.data(),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
        repeat=st.booleans(),
    )
    def test_same_fits_gradients_and_bounds_as_the_built_rows(self, seed, n, data, scale, repeat):
        rows = data.draw(st.lists(st.integers(1, 3 * n), min_size=2, max_size=3), label="rows")
        rng = np.random.default_rng(seed)
        built = []
        for k, m in enumerate(rows):
            Phi = scale * rng.standard_normal((m, n))
            if repeat and n > 1:
                Phi[:, -1] = Phi[:, 0]  # rank-deficient
            Y = Phi @ rng.standard_normal(n) + 0.1 * scale * rng.standard_normal(Phi.shape[0])
            built.append(problem(Phi, Y, name=f"C{k}-1"))
        packed = [qr_compress(p) for p in built]
        floor = np.finfo(float).eps * sum(float(p.Y @ p.Y) for p in built)

        def close(a, b, absolute=floor):
            a, b = np.asarray(a), np.asarray(b)
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b) + absolute

        theta = rng.standard_normal(n)
        for p, c in zip(built, packed):
            assert c.n_rows <= n + 1
            assert c.n_rows == p.n_rows or c.n_rows == n + 1
            if p.n_rows <= n + 1:
                assert c is p
            close(fit_term(c, theta), fit_term(p, theta))
            fit, cfit = ls_fit(p), ls_fit(c)
            close(cfit.theta.values, fit.theta.values, 0.0)
            close(cfit.residual_norm_sq, fit.residual_norm_sq)
        close(pooled_ls_fit(packed).theta.values, pooled_ls_fit(built).theta.values, 0.0)
        bounds, cbounds = compute_bounds(built), compute_bounds(packed)
        close(cbounds.per_condition_gradients, bounds.per_condition_gradients)
        close(cbounds.lambda2_max, bounds.lambda2_max)

    @pytest.mark.parametrize("seed", range(5))
    def test_low_noise_fit_term_where_the_gram_form_cancels(self, seed):
        # Noise at 1e-7 of the signal: at the least-squares fit, the Gram
        # form ||Y||^2 - 2 b^T theta + theta^T G theta loses its digits to
        # cancellation, while the QR factor's residual keeps them.
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((400, 15))
        signal = Phi @ rng.standard_normal(15)
        Y = signal + 1e-7 * np.linalg.norm(signal) / 20.0 * rng.standard_normal(400)
        p = problem(Phi, Y)
        theta = ls_fit(p).theta.values
        exact = float(sum(
            (Fraction(y) - sum(Fraction(a) * Fraction(t) for a, t in zip(row, theta))) ** 2
            for y, row in zip(Y, Phi)
        ))
        gram = float(Y @ Y - 2.0 * (Phi.T @ Y) @ theta + theta @ (Phi.T @ Phi) @ theta)
        assert abs(gram - exact) > 1e-3 * exact
        assert abs(fit_term(qr_compress(p), theta) - exact) <= 1e-6 * exact
