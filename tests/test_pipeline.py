from __future__ import annotations

import csv
import json
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusedfir import (
    GridSpec,
    Hyperparameters,
    ModelStructure,
    ParameterVector,
    RegressionProblem,
    SolverConfig,
    SyntheticScenario,
    build_regressor,
    cross_evaluate,
    fit_metric,
    generate_synthetic,
    grid_search,
    kmeans,
    lambda2_max,
    ls_fit,
    refit_clusters,
    run_pipeline,
    solve,
)
from fusedfir.data import IngestionError, ManifestEntry, write_dataset_csv
import fusedfir.pipeline
from fusedfir.pipeline import (
    ScoreRow,
    _better_row,
    _kmeans_core,
    _kmeans_pp_starts,
    _lloyd,
    _silhouette,
    auto_select_k,
    json_text,
    read_theta_csv,
    write_theta_csv,
)
from fusedfir.criterion import sq_distances

from conftest import random_problems


def vec(values, structure=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    structure = structure or ModelStructure(taps=values.size, channels=1)
    return ParameterVector(values, structure)


class TestFitMetric:
    def test_perfect_prediction(self):
        assert fit_metric(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 100.0

    def test_mean_predictor(self):
        Y = np.array([1.0, 2.0, 3.0])
        assert fit_metric(Y, np.full(3, Y.mean())) == 0.0

    def test_hand_negative_case(self):
        assert fit_metric(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0])) == -100.0

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_metric(np.array([2.0, 2.0]), np.array([1.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_metric(np.ones(3), np.ones(4))

    def test_exactly_100_iff_equal(self):
        Y = np.array([1.0, 2.0, 4.0])
        assert fit_metric(Y, Y) == 100.0
        assert fit_metric(Y, Y + 1e-6) < 100.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal(20)
        Y_hat = Y + 0.1 * rng.standard_normal(20)
        base = fit_metric(Y, Y_hat)
        assert fit_metric(Y + 5.0, Y_hat + 5.0) == pytest.approx(base, rel=1e-12)


class TestKmeans:
    def test_separated_scalars(self):
        thetas = [vec([0.0]), vec([0.1]), vec([10.0])]
        out = kmeans(thetas, k=2, seed=0, names=["a", "b", "c"])
        assert out.labels["a"] == out.labels["b"] != out.labels["c"]

    def test_singletons_zero_inertia(self):
        thetas = [vec([0.0]), vec([5.0]), vec([9.0])]
        out = kmeans(thetas, k=3, seed=0)
        assert out.inertia == 0.0
        assert sorted(out.labels.values()) == [0, 1, 2]

    def test_two_near_one_far(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(4)
        thetas = [vec(base), vec(base + 1e-3), vec(base + 10.0)]
        out = kmeans(thetas, k=2, seed=3, names=["x", "y", "z"])
        assert out.labels["x"] == out.labels["y"] != out.labels["z"]

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(2)
        thetas = [vec(rng.standard_normal(3)) for _ in range(7)]
        out = kmeans(thetas, k=3, seed=5)
        X = np.asarray([t.values for t in thetas])
        for c in range(out.k):
            members = [i for i in range(7) if out.labels[str(i)] == c]
            np.testing.assert_allclose(
                out.centroids[c].values, X[members].mean(axis=0), atol=1e-8
            )

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        thetas = [vec(rng.standard_normal(3)) for _ in range(6)]
        a = kmeans(thetas, k=2, seed=11)
        b = kmeans(thetas, k=2, seed=11)
        assert a.labels == b.labels
        assert a.inertia == b.inertia

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans([vec([1.0])], k=2, seed=0)

    def test_silhouette_and_auto_k(self):
        rng = np.random.default_rng(4)
        thetas = (
            [vec(rng.standard_normal(2) * 0.05) for _ in range(3)]
            + [vec(rng.standard_normal(2) * 0.05 + 10.0) for _ in range(3)]
        )
        names = [str(i) for i in range(6)]
        out = kmeans(thetas, k=2, seed=0, names=names)
        X = np.asarray([t.values for t in thetas])
        labels = np.asarray([out.labels[name] for name in names])
        assert _silhouette(np.sqrt(sq_distances(X, X)), labels) > 0.9
        assert auto_select_k(thetas, seed=0) == 2

    @pytest.mark.parametrize("K,n", [(1, 2), (2, 1), (6, 15), (11, 140)])
    def test_silhouette_distance_matrix_matches_broadcast(self, K, n):
        X = np.random.default_rng(K + n).standard_normal((K, n))
        expected = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        np.testing.assert_array_equal(np.sqrt(sq_distances(X, X)), expected)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_kmeans_pp_running_minimum_matches_stacked(self, k):
        X = np.random.default_rng(12).standard_normal((12, 3))

        def stacked_init(rng):
            # D^2 seeding with the minimum over every chosen centre restacked.
            K = X.shape[0]
            centers = [X[inverse_cdf_pick(np.full(K, 1.0 / K), rng.random())]]
            for _ in range(k - 1):
                d2 = np.min([np.sum((X - c) ** 2, axis=1) for c in centers], axis=0)
                centers.append(X[inverse_cdf_pick(d2 / float(d2.sum()), rng.random())])
            return np.asarray(centers)

        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        for seed in range(5):
            ref = random.Random(seed)
            [starts] = _kmeans_pp_starts(sq, [(k, random.Random(seed))])
            np.testing.assert_array_equal(
                X[starts],
                [stacked_init(ref) for _ in range(fusedfir.pipeline._KMEANS_RESTARTS)],
            )

    @pytest.mark.parametrize(
        "K,groups",
        [
            *[pytest.param(K, 1, id=str(K)) for K in (2, 3, 5, 8)],
            *[pytest.param(K, g, id=f"{K}-rows-{g}-distinct") for K, g in
              [(6, 2), (9, 3), (12, 4)]],
        ],
    )
    def test_identical_thetas_fill_every_cluster(self, K, groups):
        # Distances tie at zero, so a k above the distinct rows meets
        # seeding steps whose weights are all zero and needs hand-overs,
        # and the repair must not move one point twice.
        if groups == 1:
            thetas = [vec([0.5, -1.25, 3.0]) for _ in range(K)]
        else:
            thetas = [vec(row) for row in clustered_rows(K, 3, 1.0, groups, 0.0, K)]
        X = np.asarray([t.values for t in thetas])
        distinct = len(np.unique(X, axis=0))
        names = [f"C{i}" for i in range(K)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, K + 1):
                for seed in range(4):
                    out = kmeans(thetas, k=k, seed=seed, names=names)
                    assert sorted(set(out.labels.values())) == list(range(k))
                    if k >= distinct:
                        # Every cluster holds copies of one row.  A mean of
                        # m copies of a double can round off it by an ulp
                        # (inertia 1.5e-31 on the 6-row case), so only the
                        # copies of 0.5, -1.25 and 3.0 give exactly 0.
                        for c, centroid in enumerate(out.centroids):
                            members = [i for i, name in enumerate(names) if out.labels[name] == c]
                            assert len(np.unique(X[members], axis=0)) == 1
                            np.testing.assert_allclose(centroid.values, X[members[0]], rtol=1e-15)
                        assert (out.inertia == 0.0) if groups == 1 else (out.inertia < 1e-20)
            want = min(2, K) if groups == 1 else reference_auto_select_k(thetas, 0)
            assert auto_select_k(thetas, seed=0) == want


def broadcast_sq(A, B):
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def inverse_cdf_pick(p, u):
    """The index ``Generator.choice(len(p), p=p)`` picks with the double u:
    searchsorted on the normalised cumulative sum of p."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def sequential_pp_init(k, rng, sq):
    """k-means++ seeding one draw at a time: one ``random()`` call per
    centre, picked by the inverse cdf, with flat weights for the first
    centre and where every weight is zero."""
    K = sq.shape[0]
    idx = inverse_cdf_pick(np.full(K, 1.0 / K), rng.random())
    chosen = [idx]
    d2 = np.full(K, np.inf)
    for _ in range(k - 1):
        d2 = np.minimum(d2, sq[idx])
        total = float(d2.sum())
        if not math.isfinite(total):
            raise ValueError("k-means needs finite parameter vectors")
        idx = inverse_cdf_pick(d2 / total if total else np.full(K, 1.0 / K), rng.random())
        chosen.append(idx)
    return chosen


def sequential_lloyd(X, d2):
    """Lloyd iterations that measure every centre afresh and sum each
    cluster with ``np.add.at``; the repair and the stops as in ``_lloyd``."""
    n, k = d2.shape
    seen = set()
    prev_inertia = np.inf
    for _ in range(fusedfir.pipeline._KMEANS_MAX_ITER):
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        repaired = not counts.all()
        if repaired:
            far_d2 = d2[np.arange(n), new_labels]
            while not counts.all():
                for c in range(k):
                    if counts[c] == 0:
                        far = int(np.argmax(far_d2))
                        counts[new_labels[far]] -= 1
                        counts[c] += 1
                        new_labels[far] = c
                        far_d2[far] = -np.inf
        if new_labels.tobytes() in seen:
            break
        seen.add(new_labels.tobytes())
        labels = new_labels
        sums = np.zeros((k, X.shape[1]))
        np.add.at(sums, labels, X)
        centers = sums / counts[:, None]
        inertia = float(((X - centers[labels]) ** 2).sum())
        if not repaired and inertia > prev_inertia + 1e-9 * (1.0 + prev_inertia):
            raise RuntimeError("k-means inertia rose on a plain Lloyd step")
        prev_inertia = inertia
        d2 = broadcast_sq(X, centers)
    return labels, inertia


def sequential_kmeans(X, k, seed):
    """One restart after another, each seeded one draw at a time: the
    bit-for-bit reference for ``_kmeans_core``.  Returns the labels,
    numbered by first appearance, and the lowest inertia."""
    sq = broadcast_sq(X, X)
    if not math.isfinite(sq.sum()):
        raise ValueError("k-means needs finite parameter vectors")
    rng = random.Random(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(fusedfir.pipeline._KMEANS_RESTARTS):
        labels, inertia = sequential_lloyd(X, sq[:, sequential_pp_init(k, rng, sq)])
        if inertia < best_inertia:
            best_labels, best_inertia = labels.tolist(), inertia
    first = list(dict.fromkeys(best_labels))
    return [first.index(l) for l in best_labels], best_inertia


def reference_auto_select_k(thetas, seed):
    """Silhouette sweep over ``sequential_kmeans`` once per k: the
    reference for ``auto_select_k``."""
    K = len(thetas)
    if K <= 3:
        return min(2, K)
    X = np.asarray([t.values for t in thetas])
    D = np.sqrt(broadcast_sq(X, X))
    best_k, best_s = 2, -np.inf
    for k in range(2, K):
        s = _silhouette(D, np.asarray(sequential_kmeans(X, k, seed << 64 | k)[0]))
        if s > best_s:
            best_k, best_s = k, s
    return best_k


def clustered_rows(K, n, scale, groups, spread, seed):
    """K rows around ``groups`` centres; a spread of 0 repeats rows exactly."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((groups, n))
    return scale * (centres[rng.integers(groups, size=K)] + spread * rng.standard_normal((K, n)))


def loop_silhouette(D, lab):
    """Per-point silhouette loop, the reference for the vectorised form."""
    scores = []
    for i in range(len(lab)):
        own = (lab == lab[i]) & (np.arange(len(lab)) != i)
        if not own.any():
            scores.append(0.0)
            continue
        a = float(D[i, own].mean())
        b = min(float(D[i, lab == c].mean()) for c in np.unique(lab) if c != lab[i])
        top = max(a, b)
        scores.append((b - a) / top if top > 0 else 0.0)
    return float(np.mean(scores))


def loop_lloyd(X, centers, max_iter=300):
    """Lloyd iterations with the per-cluster empty check, the reference for
    the bincount repair: each empty cluster, in cluster order, takes the
    farthest point not yet moved, until no cluster is empty.  Stops when a
    labelling repeats."""
    k = centers.shape[0]
    seen = []
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        moved = []
        while any(not np.any(new_labels == c) for c in range(k)):
            for c in range(k):
                if not np.any(new_labels == c):
                    dist = d2[np.arange(X.shape[0]), new_labels]
                    dist[moved] = -np.inf
                    far = int(np.argmax(dist))
                    new_labels[far] = c
                    moved.append(far)
        if any(np.array_equal(new_labels, s) for s in seen):
            break
        seen.append(new_labels)
        labels = new_labels
        centers = np.asarray([X[labels == c].mean(axis=0) for c in range(k)])
    return labels, centers, float(((X - centers[labels]) ** 2).sum())


@st.composite
def grid_points(draw, max_points=12):
    """Points on a small integer grid, so distances tie and points repeat."""
    m = draw(st.integers(2, max_points))
    d = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(-2, 2), min_size=m * d, max_size=m * d))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return scale * np.asarray(coords, dtype=float).reshape(m, d)


class TestVectorisedClustering:
    @given(data=st.data())
    def test_silhouette_matches_loop(self, data):
        X = data.draw(grid_points())
        m = X.shape[0]
        labels = data.draw(
            st.lists(st.integers(0, m - 1), min_size=m, max_size=m).filter(
                lambda l: len(set(l)) >= 2
            )
        )
        D = np.sqrt(sq_distances(X, X))
        got = _silhouette(D, np.asarray(labels))
        want = loop_silhouette(D, np.asarray(labels))
        assert abs(got - want) <= 1e-12

    @given(data=st.data())
    def test_lloyd_repair_matches_loop(self, data):
        X = data.draw(grid_points())
        k = data.draw(st.integers(1, X.shape[0]))
        picks = data.draw(st.lists(st.integers(0, X.shape[0] - 1), min_size=k, max_size=k))
        far = data.draw(st.lists(st.sampled_from([0.0, 50.0]), min_size=k, max_size=k))
        centers = X[picks] + np.asarray(far)[:, None]
        got = _lloyd(X, sq_distances(X, X), sq_distances(X, centers))
        want = loop_lloyd(X, centers.copy())
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]

    @given(
        m=st.integers(1, 8),
        d=st.integers(1, 4),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_lloyd_one_member_centres_match_loop(self, m, d, scale, seed, data):
        # Distinct rows and k near m: most clusters keep one member, whose
        # distances _lloyd reads from sq.  With at most 8 rows loop_lloyd's
        # means sum in the same order as _lloyd's cluster sums.
        X = scale * np.random.default_rng(seed).standard_normal((m, d))
        k = data.draw(st.integers(max(1, m - 2), m))
        picks = data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
        got = _lloyd(X, sq_distances(X, X), sq_distances(X, X[picks]))
        want = loop_lloyd(X, X[picks])
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]

    @pytest.mark.parametrize(
        "X,centers,first",
        [
            # The centre at 100 attracts no point; the point farthest from
            # its centre (x = 10) is handed to it.
            ([[0.0], [1.0], [10.0]], [[0.0], [1.0], [100.0]], [0, 1, 2]),
            # Cluster 1 takes the only member of cluster 2, which is then
            # repaired in turn.
            ([[0.0], [0.0], [5.0]], [[0.0], [100.0], [4.0]], [2, 0, 1]),
        ],
    )
    def test_lloyd_repair_fills_emptied_cluster(self, X, centers, first):
        X, centers = np.asarray(X), np.asarray(centers)
        got = _lloyd(X, sq_distances(X, X), sq_distances(X, centers))
        want = loop_lloyd(X, centers.copy())
        np.testing.assert_array_equal(loop_lloyd(X, centers.copy(), max_iter=1)[0], first)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_kmeans_pp_draw_matches_inverse_cdf_pick(self, data, seed):
        # Repeated and already chosen points give zero weights.
        X = data.draw(grid_points())
        k = data.draw(st.integers(2, X.shape[0]))
        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)

        def pick_init(rng):
            K = X.shape[0]
            idx = inverse_cdf_pick(np.full(K, 1.0 / K), rng.random())
            chosen = [idx]
            d2 = np.full(K, np.inf)
            for _ in range(k - 1):
                d2 = np.minimum(d2, sq[idx])
                total = float(d2.sum())
                idx = inverse_cdf_pick(d2 / total if total else np.full(K, 1.0 / K), rng.random())
                chosen.append(idx)
            return X[chosen]

        got_rng, want_rng = random.Random(seed), random.Random(seed)
        [starts] = _kmeans_pp_starts(sq, [(k, got_rng)])
        np.testing.assert_array_equal(
            X[starts],
            [pick_init(want_rng) for _ in range(fusedfir.pipeline._KMEANS_RESTARTS)],
        )
        assert got_rng.getstate() == want_rng.getstate()

    @given(
        K=st.integers(1, 12),
        n=st.integers(1, 200),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_seed_distances_are_first_pass_distances(self, K, n, scale, seed, data):
        # kmeans hands Lloyd the columns of sq for the chosen rows in place
        # of the distances to those rows; they must agree bit for bit.
        X = scale * np.random.default_rng(seed).standard_normal((K, n))
        chosen = data.draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=K))
        np.testing.assert_array_equal(
            sq_distances(X, X)[:, chosen],
            ((X[:, None, :] - X[chosen][None, :, :]) ** 2).sum(axis=2),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_kmeans_pp_rejects_non_finite_weights(self, seed):
        # The check runs once, before the seeding, for every k.
        X = np.asarray([[0.0], [np.inf], [1.0]])
        with np.errstate(invalid="ignore"):
            sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        for k in (1, 2):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(ValueError, match="^k-means needs finite parameter vectors$"):
                _kmeans_core(X, sq, [(k, rng)])
            assert rng.getstate() == state

    def test_auto_select_k_builds_one_distance_matrix(self, monkeypatch):
        matrices = []
        real = fusedfir.pipeline._silhouette

        def recording(D, lab):
            matrices.append(D)
            return real(D, lab)

        def recording_sq(A, B):
            out = real_sq(A, B)
            shapes.append(out.shape)
            return out

        shapes = []
        real_sq = fusedfir.pipeline.sq_distances
        monkeypatch.setattr(fusedfir.pipeline, "_silhouette", recording)
        monkeypatch.setattr(fusedfir.pipeline, "sq_distances", recording_sq)
        rng = np.random.default_rng(8)
        thetas = [vec(rng.standard_normal(2) * 0.05 + 10.0 * g) for g in range(3) for _ in range(3)]
        assert auto_select_k(thetas, seed=0) == 3
        assert len(matrices) == 7  # k = 2..8
        assert all(D is matrices[0] for D in matrices)
        # Lloyd's steps measure (9, k) distances to centres; the (9, 9)
        # matrix is squared once for every k.
        assert shapes.count((9, 9)) == 1

    @pytest.mark.parametrize("k", range(4, 20))
    def test_lloyd_stops_on_repeated_labelling(self, monkeypatch, k):
        # 20 rows copying 4 centres: for most k > 4 the empty-cluster repair
        # hands a duplicate over and a later step takes it back.
        calls = []
        real_sq = fusedfir.pipeline.sq_distances

        def counting(A, B):
            calls.append(B.shape)
            return real_sq(A, B)

        rng = np.random.default_rng(20)
        X = rng.standard_normal((4, 15))[np.arange(20) % 4]
        monkeypatch.setattr(fusedfir.pipeline, "sq_distances", counting)
        [(labels, inertia)] = _kmeans_core(X, real_sq(X, X), [(k, random.Random(3))])
        assert sorted(set(labels.tolist())) == list(range(k))
        assert inertia < 1e-20  # every point at its centre, up to rounding
        # At most 10 Lloyd steps per restart, against 300 at the cap.
        assert len(calls) <= 10 * fusedfir.pipeline._KMEANS_RESTARTS, len(calls)

    @given(
        K=st.integers(3, 20),
        n=st.integers(1, 15),
        scale=st.floats(1e-6, 1e6),
        groups=st.integers(1, 4),
        spread=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_auto_select_k_matches_per_k_kmeans(self, K, n, scale, groups, spread, seed):
        X = clustered_rows(K, n, scale, groups, spread, seed)
        thetas = [vec(row) for row in X]
        assert auto_select_k(thetas, seed) == reference_auto_select_k(thetas, seed)
        sq = sq_distances(X, X)
        for k in range(1, K + 1):
            [(labels, inertia)] = _kmeans_core(X, sq, [(k, random.Random(seed + k))])
            out = kmeans(thetas, k, seed + k)
            assert labels.tolist() == [out.labels[str(i)] for i in range(K)]
            assert inertia == out.inertia
            # Numbered by first appearance.
            assert list(dict.fromkeys(labels.tolist())) == list(range(k))


class TestBatchedSeeding:
    """``_kmeans_pp_starts`` draws every restart's starts in one batch and
    must give the starts, labels and inertia of one draw at a time."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("K,m", [(1, 0), (1, 1), (7, 3), (48, 47), (1000, 5)])
    def test_random_batch_is_successive_single_draws(self, seed, K, m):
        # The premise of the batch: a job of k = m + 1 centres takes exactly
        # k successive random() doubles per restart, and each restart's
        # first centre is the flat-weight pick of its first double.
        R = fusedfir.pipeline._KMEANS_RESTARTS
        X = np.arange(K, dtype=float)[:, None]
        got, ref = random.Random(seed), random.Random(seed)
        [starts] = _kmeans_pp_starts(sq_distances(X, X), [(m + 1, got)])
        u = [[ref.random() for _ in range(m + 1)] for _ in range(R)]
        assert got.getstate() == ref.getstate()
        assert starts[:, 0].tolist() == [inverse_cdf_pick(np.full(K, 1.0 / K), r[0]) for r in u]

    @given(
        K=st.integers(1, 20),
        n=st.integers(1, 15),
        scale=st.floats(1e-6, 1e6),
        groups=st.integers(1, 4),
        spread=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_kmeans_matches_sequential_reference(self, K, n, scale, groups, spread, seed, data):
        k = data.draw(st.integers(1, K))
        X = clustered_rows(K, n, scale, groups, spread, seed)
        want = sequential_kmeans(X, k, seed)
        [(labels, inertia)] = _kmeans_core(
            X, sq_distances(X, X), [(k, random.Random(seed))]
        )
        assert (labels.tolist(), inertia) == want
        out = kmeans([vec(row) for row in X], k, seed)
        assert ([out.labels[str(i)] for i in range(K)], out.inertia) == want

    @given(
        K=st.integers(1, 16),
        distinct=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_one_batch_matches_each_job_alone(self, K, distinct, seed, data):
        # Jobs in any k order, repeated k among them; a k above the number
        # of distinct rows meets steps whose weights are all zero.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((distinct, 3))[rng.integers(distinct, size=K)]
        ks = data.draw(st.lists(st.integers(1, K), min_size=1, max_size=6))
        jobs = [(k, random.Random(seed << 8 | i)) for i, k in enumerate(ks)]
        starts = _kmeans_pp_starts(sq_distances(X, X), jobs)
        for i, (k, job_rng) in enumerate(jobs):
            ref = random.Random(seed << 8 | i)
            want = [
                sequential_pp_init(k, ref, broadcast_sq(X, X))
                for _ in range(fusedfir.pipeline._KMEANS_RESTARTS)
            ]
            np.testing.assert_array_equal(starts[i], want)
            assert job_rng.getstate() == ref.getstate()

    def test_duplicate_models_redraw_and_match(self):
        # 3 distinct rows: every k above 3 meets steps whose weights are
        # all zero.
        X = clustered_rows(12, 5, 1.0, 3, 0.0, 9)
        thetas = [vec(row) for row in X]
        assert auto_select_k(thetas, seed=2) == reference_auto_select_k(thetas, 2)
        for k in range(1, 13):
            out = kmeans(thetas, k, seed=k)
            assert ([out.labels[str(i)] for i in range(12)], out.inertia) == sequential_kmeans(X, k, k)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_models_raise_as_the_reference_does(self, bad):
        X = clustered_rows(6, 3, 1.0, 2, 1.0, 4)
        X[2, 1] = bad
        thetas = [vec(row) for row in X]
        with np.errstate(invalid="ignore"):
            for k in range(1, 7):
                with pytest.raises(ValueError) as want:
                    sequential_kmeans(X, k, seed=k)
                with pytest.raises(ValueError) as got:
                    kmeans(thetas, k, seed=k)
                assert str(got.value) == str(want.value)
            with pytest.raises(ValueError, match="^k-means needs finite parameter vectors$"):
                auto_select_k(thetas, seed=0)

    def test_overflowing_distances_of_finite_models_say_so(self):
        thetas = [vec([v]) for v in (1e200, -1e200, 1e200, 3.0)]
        message = "^k-means squared distances overflow on finite parameter vectors$"
        with np.errstate(over="ignore"):
            for k in (1, 2):
                with pytest.raises(ValueError, match=message):
                    kmeans(thetas, k, seed=k)
            with pytest.raises(ValueError, match=message):
                auto_select_k(thetas, seed=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_tiny_models_cluster_as_their_unit_scale_copies_do(self, seed):
        # Squared distances of rows near 1e-170 underflow to 0 unless the
        # rows are first scaled up; a power of two changes no decision.
        X = clustered_rows(9, 4, 1.0, 3, 0.1, seed)
        tiny = [vec(np.ldexp(row, -565)) for row in X]
        for k in range(1, 10):
            want, got = kmeans([vec(row) for row in X], k, seed=k), kmeans(tiny, k, seed=k)
            assert got.labels == want.labels
            assert got.inertia == math.ldexp(want.inertia, -1130)
            for a, b in zip(got.centroids, want.centroids):
                np.testing.assert_array_equal(a.values, np.ldexp(b.values, -565))
        assert auto_select_k(tiny, seed=seed) == auto_select_k([vec(row) for row in X], seed=seed)


class TestGridSearch:
    def _aligned(self, seed, K=2, n=3, M=12):
        est = random_problems(seed, K=K, n=n, M=M)
        val = random_problems(seed + 1000, K=K, n=n, M=M)
        val = [
            RegressionProblem(Y=v.Y, Phi=v.Phi, structure=v.structure, condition_name=e.condition_name.replace("-1", "-2"))
            for v, e in zip(val, est)
        ]
        return est, val

    @pytest.mark.parametrize(
        "factors,values",
        [((1e-2, 1e-2), (0.0,)), ((1e-2,), (0.0, 0.0)), ((1e-1, 1e-2), (0.0,)), ((1e-2,), (1.0, 0.0))],
    )
    def test_grid_values_strictly_ascending(self, factors, values):
        # A repeated value would solve the same point twice from different
        # warm starts and report two scores for it.
        with pytest.raises(ValueError, match="must be strictly ascending"):
            GridSpec(lambda1_factors=factors, lambda2_values=values)

    def test_single_point_grid(self):
        est, val = self._aligned(0)
        grid = GridSpec(lambda1_factors=(0.5,), lambda2_values=(0.1,))
        out = grid_search(est, val, grid)
        assert len(out.score_table) == 1
        assert out.hp.lambda2 == 0.1
        assert out.hp.lambda1 == pytest.approx(0.5 * out.lambda1_bound)

    def test_tie_break_prefers_larger_weights(self):
        a = ScoreRow(1.0, 0.0, 5.0, True, 10)
        b = ScoreRow(2.0, 0.0, 5.0, True, 10)
        c = ScoreRow(2.0, 1.0, 5.0, True, 10)
        d = ScoreRow(0.5, 9.0, 4.0, True, 10)
        assert _better_row(b, a)
        assert not _better_row(a, b)
        assert _better_row(c, b)
        assert _better_row(d, c)  # lower score still dominates

    def test_exact_tie_selects_largest_lambda2(self):
        # All-zero targets make every grid point score exactly zero.
        s = ModelStructure(taps=2, channels=1)
        rng = np.random.default_rng(5)
        Phi = rng.standard_normal((8, 2))
        est = [RegressionProblem(Y=np.zeros(8), Phi=Phi, structure=s, condition_name="A0-1")]
        val = [RegressionProblem(Y=np.zeros(8), Phi=Phi, structure=s, condition_name="A0-2")]
        grid = GridSpec(lambda1_factors=(1.0,), lambda2_values=(0.0, 0.5, 2.0))
        out = grid_search(est, val, grid)
        assert out.hp.lambda2 == 2.0
        assert all(r.score == 0.0 for r in out.score_table)

    def test_argmin_never_worse_than_unregularized(self):
        est, val = self._aligned(1, K=3, n=4, M=20)
        grid = GridSpec(lambda1_factors=(0.0, 1e-2, 1.0), lambda2_values=(0.0, 1e-2, 1.0))
        out = grid_search(est, val, grid)
        zero_row = [r for r in out.score_table if r.lambda1 == 0.0 and r.lambda2 == 0.0]
        best = min(r.score for r in out.score_table)
        assert best <= zero_row[0].score

    def test_non_converged_scored_inf(self):
        est, val = self._aligned(2)
        grid = GridSpec(lambda1_factors=(0.5,), lambda2_values=(0.0, 0.3))
        cfg = SolverConfig(max_iter=2)
        from fusedfir.pipeline import GridSearchFailedError

        with pytest.raises(GridSearchFailedError):
            grid_search(est, val, grid, cfg)

    def test_traced_config_leaves_grid_solves_untraced(self, monkeypatch):
        import fusedfir.solver

        calls = []
        real = fusedfir.solver.objective

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fusedfir.solver, "objective", counting)
        est, val = self._aligned(7)
        grid = GridSpec(lambda1_factors=(1e-2, 1e-1), lambda2_values=(0.0, 0.1))
        out = grid_search(est, val, grid, SolverConfig(trace=True))
        # One objective per solve, for its result; none per iteration.
        assert len(calls) == len(out.score_table)

    def test_literal_criterion_scoring(self):
        est, val = self._aligned(4)
        grid = GridSpec(lambda1_factors=(1e-4,), lambda2_values=(0.0,))
        default = grid_search(est, val, grid)
        literal = grid_search(est, val, grid, literal_criterion=True)
        # With lambda2 = 0 and tiny lambda1 the two scores differ by the
        # weighted fusion term.
        assert literal.score_table[0].score >= default.score_table[0].score

    def test_misaligned_conditions_rejected(self):
        est, _ = self._aligned(5)
        _, val = self._aligned(6)
        bad = [
            RegressionProblem(Y=v.Y, Phi=v.Phi, structure=v.structure, condition_name=f"X{i}-2")
            for i, v in enumerate(val)
        ]
        with pytest.raises(ValueError, match="condition mismatch"):
            grid_search(est, bad, GridSpec())


def record_grid_solves(monkeypatch) -> list[tuple]:
    """(hp, start, result) of every solve made through ``pipeline.solve``."""
    calls = []
    real = fusedfir.pipeline.solve

    def recording(problems, hp, cfg=None, start=None):
        result = real(problems, hp, cfg, start=start)
        calls.append((hp, start, result))
        return result

    monkeypatch.setattr(fusedfir.pipeline, "solve", recording)
    return calls


class TestWarmStartedGrid:
    """The grid visits its points from the largest weights down, and each
    solve starts from the last converged point's final state."""

    def _aligned(self, seed, K, n=4, M=20):
        return TestGridSearch()._aligned(seed, K=K, n=n, M=M)

    def test_visits_points_descending_and_keeps_grid_order(self, monkeypatch):
        calls = record_grid_solves(monkeypatch)
        est, val = self._aligned(1, K=3)
        grid = GridSpec(lambda1_factors=(1e-2, 1e-1, 1.0), lambda2_values=(0.0, 1e-2, 1.0))
        out = grid_search(est, val, grid)
        table = [(r.lambda1, r.lambda2) for r in out.score_table]
        assert table == [(f * out.lambda1_bound, l2) for f in (1e-2, 1e-1, 1.0) for l2 in (0.0, 1e-2, 1.0)]
        assert [(hp.lambda1, hp.lambda2) for hp, _, _ in calls] == table[::-1]
        assert [r.iterations for r in out.score_table] == [r.iterations for _, _, r in calls][::-1]

    def test_non_converged_point_never_seeds_the_next(self, monkeypatch):
        calls = record_grid_solves(monkeypatch)
        est, val = self._aligned(1, K=3)
        grid = GridSpec(lambda1_factors=(1e-2, 1e-1, 1.0), lambda2_values=(0.0, 1e-2, 1.0))
        grid_search(est, val, grid, SolverConfig(max_iter=12))
        converged = [r.converged for _, _, r in calls]
        # Some point after a failed one starts from an earlier converged one.
        assert any(
            not converged[i - 1] and any(converged[: i - 1]) for i in range(2, len(calls))
        ), converged
        seed = None
        for _, start, result in calls:
            assert start is seed
            if result.converged:
                seed = result.state

    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 4),
        variant=st.sampled_from(["l2", "l2_squared"]),
    )
    def test_every_point_objective_near_tight_cold_solve(self, seed, K, variant):
        # TestAccuracy's problem sizes, with weights on a grid of fractions
        # of their bounds.  TestAccuracy's bound, 1e-6 (1 + |f|), is not met
        # on every point of these grids by cold solves either, because the
        # residual stop does not bound the objective error: on these draws
        # cold solves reach 2.2e-6 (1 + |f|) and warm-started ones 1.8e-6.
        # So the bound here is one that cold solves meet too.
        est = random_problems(seed, K=K, n=4, M=12)
        val = [
            replace(v, condition_name=e.condition_name.replace("-1", "-2"))
            for v, e in zip(random_problems(seed + 1, K=K, n=4, M=12), est)
        ]
        l2 = lambda2_max(est)
        grid = GridSpec(lambda1_factors=(0.0, 0.01, 0.1, 1.0), lambda2_values=(0.0, 0.01 * l2, 0.1 * l2, l2))
        with pytest.MonkeyPatch.context() as mp:
            calls = record_grid_solves(mp)
            grid_search(est, val, grid, fusion_variant=variant)
        tight_cfg = SolverConfig(eps_abs=1e-12, eps_rel=1e-10)
        for hp, _, result in calls:
            tight = solve(est, hp, tight_cfg)
            assert result.converged and tight.converged
            f, f_tight = result.objective.total, tight.objective.total
            assert abs(f - f_tight) <= 3e-6 * (1.0 + abs(f_tight)), hp


class TestRefitAndCrossEval:
    def test_singleton_category_equals_ls(self):
        problems = random_problems(7, K=2, n=3, M=10)
        from fusedfir import ClusterAssignment

        assignment = ClusterAssignment(
            labels={"C0": 0, "C1": 1},
            centroids=[vec(np.zeros(3)), vec(np.zeros(3))],
            k=2,
            inertia=0.0,
        )
        refits = refit_clusters(problems, assignment)
        np.testing.assert_allclose(
            refits[0].fit.theta.values, ls_fit(problems[0]).theta.values, atol=1e-12
        )

    def test_identical_merged_same_theta(self):
        p = random_problems(8, K=1, n=3, M=10)[0]
        twin = RegressionProblem(Y=p.Y, Phi=p.Phi, structure=p.structure, condition_name="C1-1")
        from fusedfir import ClusterAssignment

        assignment = ClusterAssignment(
            labels={"C0": 0, "C1": 0}, centroids=[vec(np.zeros(3))], k=1, inertia=0.0
        )
        refits = refit_clusters([p, twin], assignment)
        np.testing.assert_allclose(
            refits[0].fit.theta.values, ls_fit(p).theta.values, atol=1e-10
        )

    def test_empty_category_rejected(self):
        problems = random_problems(9, K=2, n=3, M=10)
        from fusedfir import ClusterAssignment

        assignment = ClusterAssignment(
            labels={"C0": 0, "C1": 0},
            centroids=[vec(np.zeros(3)), vec(np.zeros(3))],
            k=2,
            inertia=0.0,
        )
        with pytest.raises(ValueError, match="no member"):
            refit_clusters(problems, assignment)

    def test_cross_eval_perfect_on_own_noiseless_data(self):
        rng = np.random.default_rng(10)
        s = ModelStructure(taps=3, channels=1)
        Phi = rng.standard_normal((30, 3))
        theta = rng.standard_normal(3)
        p = RegressionProblem(Y=Phi @ theta, Phi=Phi, structure=s, condition_name="C0-2")
        reports = cross_evaluate({"C0-1": vec(theta, s)}, [p])
        assert reports[0].fit_percent == pytest.approx(100.0, abs=1e-9)

    def test_zero_model_on_zero_mean_data(self):
        s = ModelStructure(taps=1, channels=1)
        p = RegressionProblem(
            Y=np.array([1.0, -1.0]), Phi=np.ones((2, 1)), structure=s, condition_name="C0-2"
        )
        reports = cross_evaluate({"zero": vec([0.0], s)}, [p])
        assert reports[0].fit_percent == 0.0

    def test_undefined_cell_marked(self):
        s = ModelStructure(taps=1, channels=1)
        p = RegressionProblem(
            Y=np.array([2.0, 2.0]), Phi=np.ones((2, 1)), structure=s, condition_name="C0-2"
        )
        reports = cross_evaluate({"m": vec([1.0], s)}, [p])
        assert reports[0].fit_percent is None


class TestOutputFiles:
    S = ModelStructure(taps=2, channels=1)
    HEADER = "name,theta_0,theta_1\n"

    def test_theta_csv_round_trip_quotes_names(self, tmp_path):
        names = ['BR30,x', 'say "hi"', "plain"]
        thetas = [vec(v, self.S) for v in ([0.1, -2.5e-300], [1 / 3, -0.0], [7.0, 1e16])]
        path = tmp_path / "t.csv"
        write_theta_csv(path, names, thetas)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[1:] == [
            '"BR30,x",0.10000000000000001,-2.5e-300',
            '"say ""hi""",0.33333333333333331,-0',
            "plain,7,10000000000000000",
        ]
        models = read_theta_csv(path, self.S)
        assert list(models) == names
        for name, t in zip(names, thetas):
            assert models[name].values.tobytes() == t.values.tobytes()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,1\n", "row 2 has 2 cells, header has 3"),
            ("A,1,2,3\n", "row 2 has 4 cells, header has 3"),
            ("A,1,x\n", "row 2, column 'theta_1': non-numeric cell 'x'"),
            ("A,nan,1\n", "row 2, column 'theta_0': non-finite value 'nan'"),
            ("A,1,-inf\n", "row 2, column 'theta_1': non-finite value '-inf'"),
            ('A,"{long}",2\n', f"row 2: field larger than field limit ({csv.field_size_limit()})"),
            # The first defect in row order is reported; blank rows are
            # skipped but counted.
            ('A,x,1\n\nB,"{long}",2\n', "row 2, column 'theta_0': non-numeric cell 'x'"),
            ("A,1,2\n\nB,1,nan\n", "row 4, column 'theta_1': non-finite value 'nan'"),
            ("A,1,2\nA,1,x\n", "model 'A' is listed twice"),
            ("A,1,x\nA,1,2\n", "row 2, column 'theta_1': non-numeric cell 'x'"),
            ("A,1,2\nA,1\n", "row 3 has 2 cells, header has 3"),
        ],
        ids=[
            "short", "long", "non-numeric", "nan", "inf", "over-field-limit",
            "bad-cell-then-over-limit", "after-blank", "repeat-then-bad-cell",
            "bad-cell-then-repeat", "ragged-repeat",
        ],
    )
    def test_bad_theta_row_names_file_and_row(self, tmp_path, row, message):
        path = tmp_path / "t.csv"
        long = "1" * (csv.field_size_limit() + 1)
        path.write_text(self.HEADER + row.replace("{long}", long), encoding="utf-8")
        with pytest.raises(IngestionError) as exc:
            read_theta_csv(path, self.S)
        assert str(exc.value) == f"{path}: {message}"

    def test_json_text(self):
        assert json_text({"a": [1.0, -0.0, 0.1, None]}) == (
            '{\n  "a": [\n    1.0,\n    -0.0,\n    0.1,\n    null\n  ]\n}\n'
        )
        with pytest.raises(ValueError):
            json_text({"a": float("nan")})


def small_scenario(seed=2024):
    s = ModelStructure(taps=3, channels=2)
    g0 = ParameterVector(np.array([1.0, 0.5, -0.25, 0.0, 0.0, 0.0]), s)
    g1 = ParameterVector(np.array([-0.8, 0.9, 0.4, 0.0, 0.0, 0.0]), s)
    return SyntheticScenario(
        group_truths=(g0, g1),
        assignment={"BR30": 0, "BR40": 0, "WBA30": 1, "WBA40": 1},
        noise_sigma=0.05,
        irrelevant_channels=frozenset({2}),
        samples_per_condition=120,
        seed=seed,
    )


def write_manifest(tmp_path, datasets, extra=()):
    entries = []
    for ds in datasets:
        write_dataset_csv(ds, tmp_path / f"{ds.name}.csv")
        role = "estimation" if ds.name.endswith("-1") else "validation"
        entries.append(
            {
                "name": ds.name,
                "file": f"{ds.name}.csv",
                "role": role,
                "channels": list(ds.channel_names),
                "output": "y",
            }
        )
    entries.extend(extra)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


class TestRunPipeline:
    def test_two_group_recovery(self, tmp_path):
        scn = small_scenario()
        manifest = write_manifest(tmp_path, generate_synthetic(scn))
        report = run_pipeline(
            manifest,
            scn.structure,
            GridSpec(lambda1_factors=(0.0, 1e-4, 1e-2, 1e-1), lambda2_values=(0.0, 1e-2)),
            k_clusters=2,
            cfg=SolverConfig(),
            seed=7,
        )
        labels = report.clusters.labels
        assert labels["BR30"] == labels["BR40"]
        assert labels["WBA30"] == labels["WBA40"]
        assert labels["BR30"] != labels["WBA30"]

        # Fusion engages: a positive weight is selected and never validates
        # worse than the unregularized grid point.
        assert report.search.hp.lambda1 > 0
        unregularized = [
            r for r in report.search.score_table if r.lambda1 == 0.0 and r.lambda2 == 0.0
        ][0]
        best = min(r.score for r in report.search.score_table)
        assert best <= unregularized.score

        own = [
            r.fit_percent
            for r in report.fit_reports
            if ("BR" in r.model_source) == ("BR" in r.eval_dataset)
        ]
        assert min(own) > 70.0

    def test_single_condition_skips_fusion(self, tmp_path):
        s = ModelStructure(taps=2, channels=1)
        g = ParameterVector(np.array([1.0, -0.5]), s)
        scn = SyntheticScenario(
            group_truths=(g,),
            assignment={"BR30": 0},
            noise_sigma=0.01,
            irrelevant_channels=frozenset(),
            samples_per_condition=60,
            seed=3,
        )
        manifest = write_manifest(tmp_path, generate_synthetic(scn))
        report = run_pipeline(
            manifest, s, GridSpec(), k_clusters=1, cfg=SolverConfig(), seed=1
        )
        assert any("fusion undefined" in note for note in report.notes)
        assert report.bounds is None
        assert report.search.hp.lambda1 == 0.0

    def test_rerun_byte_identical(self, tmp_path):
        scn = small_scenario()
        manifest = write_manifest(tmp_path, generate_synthetic(scn))
        grid = GridSpec(lambda1_factors=(1e-3, 1e-1), lambda2_values=(0.0, 1e-2))
        a = run_pipeline(manifest, scn.structure, grid, 2, SolverConfig(), seed=5)
        b = run_pipeline(manifest, scn.structure, grid, 2, SolverConfig(), seed=5)
        assert a.to_json() == b.to_json()

    def test_manifest_order_invariance(self, tmp_path):
        scn = small_scenario()
        datasets = generate_synthetic(scn)
        grid = GridSpec(lambda1_factors=(1e-3,), lambda2_values=(0.0,))
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)
        m1 = write_manifest(tmp_path / "a", datasets[::-1])
        m2 = write_manifest(tmp_path / "b", datasets)
        a = run_pipeline(m1, scn.structure, grid, 2, SolverConfig(), seed=5)
        b = run_pipeline(m2, scn.structure, grid, 2, SolverConfig(), seed=5)
        assert a.to_json() == b.to_json()

    def test_missing_validation_rejected(self, tmp_path):
        scn = small_scenario()
        datasets = [d for d in generate_synthetic(scn) if d.name != "BR30-2"]
        manifest = write_manifest(tmp_path, datasets)
        with pytest.raises(IngestionError, match="missing validation"):
            run_pipeline(manifest, scn.structure, GridSpec(), 2, SolverConfig(), seed=0)

    def test_evaluation_role_used_when_present(self, tmp_path):
        scn = small_scenario()
        datasets = generate_synthetic(scn)
        eval_ds = datasets[1]
        extra = [
            {
                "name": "BR30-3",
                "file": f"{eval_ds.name}.csv",
                "role": "evaluation",
                "channels": list(eval_ds.channel_names),
                "output": "y",
            }
        ]
        manifest = write_manifest(tmp_path, datasets, extra=extra)
        grid = GridSpec(lambda1_factors=(1e-3,), lambda2_values=(0.0,))
        report = run_pipeline(manifest, scn.structure, grid, 2, SolverConfig(), seed=5)
        assert {r.eval_dataset for r in report.fit_reports} == {"BR30-3"}
