from __future__ import annotations

import numpy as np
import pytest

from fusedfir import (
    FusionUndefinedError,
    Hyperparameters,
    ModelStructure,
    RegressionProblem,
    SolverConfig,
    compute_bounds,
    lambda1_max,
    lambda2_max,
    objective,
    solve,
)

from conftest import random_problems, scalar_pair
from reference import coalescence_certificate, is_coalesced, kkt_necessary_margin


def problem(Phi, Y, name="C0-1"):
    Phi = np.asarray(Phi, dtype=float)
    s = ModelStructure(taps=Phi.shape[1], channels=1)
    return RegressionProblem(Y=np.asarray(Y, dtype=float), Phi=Phi, structure=s, condition_name=name)


def scale_targets(problems, alpha):
    return [
        problem(p.Phi, alpha * p.Y, name=p.condition_name) for p in problems
    ]


class TestLambda1Max:
    def test_symmetric_identity_pair(self):
        p1 = problem(np.eye(2), [1.0, 1.0])
        p2 = problem(np.eye(2), [3.0, 3.0], name="C1-1")
        report = compute_bounds([p1, p2])
        np.testing.assert_allclose(report.theta_star.values, [2.0, 2.0], atol=1e-10)
        assert report.lambda1_max == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-10)

    def test_scalar_pair_threshold(self, tiny_pair):
        assert lambda1_max(tiny_pair) == pytest.approx(2.0, rel=1e-12)

    def test_identical_noise_free_conditions_zero(self):
        rng = np.random.default_rng(0)
        Phi = rng.standard_normal((10, 3))
        theta = rng.standard_normal(3)
        Y = Phi @ theta
        problems = [problem(Phi, Y), problem(Phi, Y, name="C1-1")]
        assert lambda1_max(problems) <= 1e-10

    def test_single_condition_rejected(self):
        with pytest.raises(FusionUndefinedError, match="single condition"):
            lambda1_max(random_problems(1, K=1, n=3, M=9))

    def test_permutation_invariance(self):
        problems = random_problems(2, K=4, n=5, M=20)
        base = lambda1_max(problems)
        assert lambda1_max(problems[::-1]) == pytest.approx(base, rel=1e-12)

    def test_scaling_linearity(self):
        problems = random_problems(3, K=3, n=4, M=15)
        base = lambda1_max(problems)
        for alpha in (0.5, 2.0, 13.0):
            assert lambda1_max(scale_targets(problems, alpha)) == pytest.approx(
                alpha * base, rel=1e-9
            )

    def test_gradients_sum_to_zero(self):
        report = compute_bounds(random_problems(4, K=4, n=6, M=25))
        total = np.sum(report.per_condition_gradients, axis=0)
        assert np.abs(total).max() <= 1e-8


class TestLambda2Max:
    def test_identity_hand_case(self):
        assert lambda2_max([problem(np.eye(2), [3.0, -4.0])]) == pytest.approx(8.0)

    def test_zero_targets(self):
        assert lambda2_max([problem(np.eye(2), [0.0, 0.0])]) == 0.0

    def test_above_bound_zeroes_everything(self):
        # At lambda2 = lambda2_max the zero vector meets every condition's
        # optimality condition with equality, whatever the fusion weight.
        problems = random_problems(5, K=3, n=5, M=20)
        for lambda2_factor in (1.0, 1.01):
            for lambda1_factor in (0.0, 1.0, 10.0):
                for variant in ("l2", "l2_squared"):
                    hp = Hyperparameters(
                        lambda1_factor * lambda1_max(problems),
                        lambda2_factor * lambda2_max(problems),
                        variant,
                    )
                    result = solve(problems, hp)
                    assert result.converged
                    for t in result.thetas:
                        assert np.abs(t.values).max() <= 1e-6

    def test_below_bound_keeps_something(self):
        problems = random_problems(6, K=3, n=5, M=20)
        assert max(np.abs(p.Phi.T @ p.Y).max() for p in problems) > 0
        hp = Hyperparameters(0.0, 0.5 * lambda2_max(problems))
        result = solve(problems, hp)
        assert max(np.abs(t.values).max() for t in result.thetas) > 1e-4


class TestMargins:
    def test_margin_zero_at_bound(self):
        problems = random_problems(7, K=3, n=4, M=16)
        bound = lambda1_max(problems)
        margins = kkt_necessary_margin(problems, bound)
        assert min(margins) == pytest.approx(0.0, abs=1e-12 * (1 + bound))

    def test_negative_below_bound(self):
        problems = random_problems(8, K=3, n=4, M=16)
        bound = lambda1_max(problems)
        assert min(kkt_necessary_margin(problems, 0.9 * bound)) < 0

    def test_linear_above_bound(self):
        problems = random_problems(9, K=3, n=4, M=16)
        bound = lambda1_max(problems)
        margins = kkt_necessary_margin(problems, 2.0 * bound)
        assert min(margins) >= bound - 1e-12 * (1 + bound)


class TestCertificate:
    def test_scalar_pair_hand_construction(self, tiny_pair):
        cert = coalescence_certificate(tiny_pair, 2.0)
        # gradients are (-2, 2); z_(hi,lo) = (2 - (-2)) / (2*2) = 1.
        assert cert.z_norm_max == pytest.approx(1.0, rel=1e-9)
        assert cert.certified
        assert cert.stationarity_gap <= 1e-10

    def test_large_weight_limit(self, tiny_pair):
        cert = coalescence_certificate(tiny_pair, 1e9)
        assert cert.z_norm_max <= 1e-8
        assert cert.certified

    def test_sufficient_bound_always_certifies(self):
        for seed in range(5):
            problems = random_problems(30 + seed, K=2 + seed % 3, n=5, M=20)
            suff = compute_bounds(problems).lambda1_sufficient
            for factor in (1.0, 1.3, 4.0):
                cert = coalescence_certificate(problems, factor * suff)
                assert cert.certified

    def test_stationarity_identity(self):
        for seed in range(5):
            problems = random_problems(40 + seed, K=3, n=6, M=25)
            bound = lambda1_max(problems)
            for lam in (0.5 * bound, bound, 2.0 * bound):
                cert = coalescence_certificate(problems, lam)
                assert cert.stationarity_gap <= 1e-10

    def test_invalid_inputs(self, tiny_pair):
        with pytest.raises(ValueError, match="positive"):
            coalescence_certificate(tiny_pair, 0.0)
        with pytest.raises(FusionUndefinedError):
            coalescence_certificate(tiny_pair[:1], 1.0)


class TestBoundRelations:
    def test_sufficient_to_necessary_ratio(self):
        for K in (2, 3, 4, 6):
            problems = random_problems(50 + K, K=K, n=4, M=14)
            ratio = compute_bounds(problems).lambda1_sufficient / lambda1_max(problems)
            assert ratio == pytest.approx(2.0 * (K - 1) / K, rel=1e-9)

    def test_k2_sufficient_equals_necessary(self):
        problems = random_problems(60, K=2, n=5, M=18)
        assert compute_bounds(problems).lambda1_sufficient == pytest.approx(
            lambda1_max(problems), rel=1e-12
        )

    def test_k2_weight_at_bound_is_optimal_coalesced(self):
        # At lambda1 = lambda1_max exactly, the weight sits on the necessary
        # bound, which for two conditions is also the sufficient one: the
        # pooled fit, shared by both conditions, is optimal.
        cfg = SolverConfig(eps_abs=1e-12, eps_rel=1e-10)
        for seed in range(20):
            problems = random_problems(seed, K=2, n=4, M=16)
            bound = lambda1_max(problems)
            assert coalescence_certificate(problems, bound).certified
            hp = Hyperparameters(bound, 0.0)
            star = compute_bounds(problems).theta_star
            f_star = objective(problems, [star, star], hp).total
            result = solve(problems, hp, cfg)
            assert result.converged
            f = result.objective.total
            assert f - f_star <= 1e-8 * (1.0 + f_star)
            assert f >= f_star - 1e-13 * (1.0 + f_star)

    def test_k2_bisection_threshold_matches_bound(self):
        # For two conditions the necessary bound is the exact threshold.
        for seed in range(3):
            problems = random_problems(70 + seed, K=2, n=4, M=16)
            bound = lambda1_max(problems)
            lo, hi = 0.5 * bound, 1.5 * bound
            for _ in range(12):
                mid = 0.5 * (lo + hi)
                result = solve(problems, Hyperparameters(mid, 0.0))
                if is_coalesced(result.thetas):
                    hi = mid
                else:
                    lo = mid
            assert abs(hi - bound) <= 0.01 * bound

    def test_below_bound_not_coalesced(self):
        for seed in range(3):
            problems = random_problems(80 + seed, K=3, n=4, M=16)
            bound = lambda1_max(problems)
            result = solve(problems, Hyperparameters(0.9 * bound, 0.0))
            assert not is_coalesced(result.thetas)

    def test_report_serializes(self):
        problems = random_problems(90, K=2, n=3, M=10)
        d = compute_bounds(problems).to_dict()
        assert set(d) == {
            "lambda1_max",
            "lambda2_max",
            "lambda1_sufficient",
            "theta_star",
            "per_condition_gradients",
        }
