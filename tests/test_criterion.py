from __future__ import annotations

import numpy as np
import pytest

from fusedfir import (
    Hyperparameters,
    ModelStructure,
    ParameterVector,
    fusion_value,
    fusion_value_squared,
    objective,
    prox_block_l2,
    prox_l1,
)
from fusedfir.criterion import pair_list, sq_distances

from conftest import random_problems, scalar_pair


def vec(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return ParameterVector(values, ModelStructure(taps=values.size, channels=1))


class TestFusionValue:
    def test_single_pair(self):
        assert fusion_value([vec([0.0]), vec([3.0])]) == 3.0

    def test_all_equal(self):
        t = vec([1.0, -2.0, 3.0])
        assert fusion_value([t, t, t]) == 0.0

    def test_three_point_hand_sum(self):
        # Distances 5, 10, 5 over the three pairs.
        thetas = [vec([0.0, 0.0]), vec([3.0, 4.0]), vec([6.0, 8.0])]
        assert fusion_value(thetas) == pytest.approx(20.0, abs=1e-12)

    def test_single_vector_is_zero(self):
        assert fusion_value([vec([5.0, 5.0])]) == 0.0

    def test_recursion_exact(self):
        rng = np.random.default_rng(10)
        for K in (2, 3, 5, 8):
            thetas = [vec(rng.standard_normal(4)) for _ in range(K)]
            stack = np.asarray([t.values for t in thetas])
            tail = float(np.linalg.norm(stack[:-1] - stack[-1], axis=1).sum())
            assert fusion_value(thetas) == fusion_value(thetas[:-1]) + tail

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        thetas = [vec(rng.standard_normal(5)) for _ in range(4)]
        shift = rng.standard_normal(5)
        shifted = [vec(t.values + shift) for t in thetas]
        assert fusion_value(shifted) == pytest.approx(fusion_value(thetas), rel=1e-12)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(12)
        thetas = [vec(rng.standard_normal(5)) for _ in range(3)]
        for alpha in (0.0, 0.5, 2.0, 7.25):
            scaled = [vec(alpha * t.values) for t in thetas]
            assert fusion_value(scaled) == pytest.approx(
                alpha * fusion_value(thetas), rel=1e-12, abs=1e-15
            )

    def test_structure_mismatch(self):
        with pytest.raises(ValueError):
            fusion_value([vec([1.0]), vec([1.0, 2.0])])

    def test_squared_variant(self):
        thetas = [vec([0.0, 0.0]), vec([3.0, 4.0]), vec([6.0, 8.0])]
        assert fusion_value_squared(thetas) == pytest.approx(25 + 100 + 25, abs=1e-12)


class TestObjective:
    def test_zero_weights_fit_only(self):
        problems = random_problems(1, K=3, n=4, M=10)
        thetas = [vec(np.zeros(4)) for _ in problems]
        out = objective(problems, thetas, Hyperparameters(0.0, 0.0))
        assert out.total == out.fit_term

    def test_zero_thetas_total_is_target_energy(self):
        problems = random_problems(2, K=3, n=4, M=10)
        thetas = [vec(np.zeros(4)) for _ in problems]
        out = objective(problems, thetas, Hyperparameters(0.0, 0.0))
        assert out.total == pytest.approx(
            sum(float(p.Y @ p.Y) for p in problems), rel=1e-12
        )

    def test_scalar_pair_hand_value(self):
        problems = scalar_pair()
        thetas = [vec([0.5]), vec([1.5])]
        out = objective(problems, thetas, Hyperparameters(1.0, 0.0))
        assert out.total == pytest.approx(1.5, abs=1e-12)
        assert out.fit_term == pytest.approx(0.5, abs=1e-12)
        assert out.fusion_term == pytest.approx(1.0, abs=1e-12)

    def test_weighted_identity(self):
        problems = random_problems(3, K=2, n=3, M=8)
        rng = np.random.default_rng(0)
        thetas = [vec(rng.standard_normal(3)) for _ in problems]
        hp = Hyperparameters(0.7, 0.3)
        out = objective(problems, thetas, hp)
        recomputed = out.fit_term + hp.lambda1 * out.fusion_term + hp.lambda2 * out.sparsity_term
        assert out.total == pytest.approx(recomputed, rel=1e-12)

    def test_permutation_invariance(self):
        problems = random_problems(4, K=4, n=3, M=9)
        rng = np.random.default_rng(1)
        thetas = [vec(rng.standard_normal(3)) for _ in problems]
        hp = Hyperparameters(0.5, 0.25)
        base = objective(problems, thetas, hp).total
        perm = [2, 0, 3, 1]
        permuted = objective(
            [problems[i] for i in perm], [thetas[i] for i in perm], hp
        ).total
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_length_mismatch(self):
        problems = random_problems(5, K=2, n=3, M=8)
        with pytest.raises(ValueError):
            objective(problems, [vec(np.zeros(3))], Hyperparameters(0.0, 0.0))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Hyperparameters(-1.0, 0.0)
        with pytest.raises(ValueError):
            Hyperparameters(0.0, np.inf)
        with pytest.raises(ValueError):
            Hyperparameters(0.0, 0.0, fusion_variant="cubed")


class TestProx:
    def test_block_l2_boundary(self):
        np.testing.assert_array_equal(prox_block_l2(np.array([3.0, 4.0]), 5.0), [0.0, 0.0])

    def test_block_l2_halving(self):
        np.testing.assert_allclose(
            prox_block_l2(np.array([3.0, 4.0]), 2.5), [1.5, 2.0], atol=1e-15
        )

    def test_block_l2_identity_at_zero_tau(self):
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(prox_block_l2(v, 0.0), v)

    def test_block_l2_zero_vector(self):
        np.testing.assert_array_equal(prox_block_l2(np.zeros(3), 1.0), np.zeros(3))

    def test_l1_cases(self):
        np.testing.assert_allclose(prox_l1(np.array([1.0]), 0.3), [0.7], atol=1e-15)
        np.testing.assert_array_equal(prox_l1(np.array([-0.2]), 0.3), [0.0])
        v = np.array([0.5, -1.5])
        np.testing.assert_array_equal(prox_l1(v, 0.0), v)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            prox_l1(np.ones(2), -0.1)
        with pytest.raises(ValueError):
            prox_block_l2(np.ones(2), -0.1)

    @pytest.mark.parametrize("which", ["l1", "block_l2"])
    def test_proximal_inequality(self, which):
        # The prox output must beat random perturbed candidates on
        # 0.5 ||x - v||^2 + tau * penalty(x).
        rng = np.random.default_rng(99 if which == "l1" else 98)
        for _ in range(50):
            dim = int(rng.integers(1, 8))
            v = 3.0 * rng.standard_normal(dim)
            tau = float(rng.random() * 2.0)
            if which == "l1":
                x = prox_l1(v, tau)
                pen = lambda z: np.abs(z).sum(axis=-1)
            else:
                x = prox_block_l2(v, tau)
                pen = lambda z: np.linalg.norm(z, axis=-1)
            val = 0.5 * ((x - v) ** 2).sum() + tau * pen(x)
            cands = x + rng.standard_normal((400, dim)) * rng.choice(
                [1e-3, 1e-1, 1.0], size=(400, 1)
            )
            cand_vals = 0.5 * ((cands - v) ** 2).sum(axis=1) + tau * pen(cands)
            assert val <= cand_vals.min() + 1e-8


class TestPairDistances:
    @pytest.mark.parametrize("K,n", [(1, 3), (2, 1), (3, 4), (7, 15), (10, 130)])
    def test_matches_per_pair_loop(self, K, n):
        # Read at the lower-triangle indices, the square roots come in
        # pair_list order, each bit-identical to the same norm taken one pair
        # at a time.
        stack = np.random.default_rng(K * n).standard_normal((K, n))
        sq = sq_distances(stack, stack)
        got = [float(x) for x in np.sqrt(sq[np.tril_indices(K, -1)])]
        expected = [
            float(np.sqrt(((stack[k] - stack[i]) ** 2).sum())) for k, i in pair_list(K)
        ]
        assert got == expected
        np.testing.assert_array_equal(sq, sq.T)
        assert not np.diag(sq).any()

    def test_pair_list_order(self):
        assert pair_list(1) == []
        assert pair_list(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


class TestDualNormSelfDuality:
    def test_numerical_self_duality(self):
        # sup { z^T x : ||x||_2 <= 1 } equals ||z||_2; random unit vectors in
        # low dimension get within 1% of the supremum.
        rng = np.random.default_rng(123)
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            z = rng.standard_normal(dim) * (1.0 + 9.0 * rng.random())
            x = rng.standard_normal((10_000, dim))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            vals = x @ z
            znorm = np.linalg.norm(z)
            assert vals.max() <= znorm + 1e-12
            assert vals.max() >= 0.99 * znorm
