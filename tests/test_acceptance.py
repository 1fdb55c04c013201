"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Synthetic scenarios with stored ground truth stand in for
proprietary field data, so every check is property-based.
"""

from __future__ import annotations

import json
import time
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import fusedfir as ff
from fusedfir.data import write_dataset_csv
from fusedfir.solver import merge_threshold


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared instance pools
# ---------------------------------------------------------------------------

def make_problems(seed: int, K: int, n: int, M: int) -> list[ff.RegressionProblem]:
    rng = np.random.default_rng(seed)
    structure = ff.ModelStructure(taps=n, channels=1)
    problems = []
    for k in range(K):
        Phi = rng.standard_normal((M, n))
        theta = rng.standard_normal(n) * (rng.random(n) > 0.3)
        Y = Phi @ theta + 0.3 * rng.standard_normal(M)
        problems.append(
            ff.RegressionProblem(Y=Y, Phi=Phi, structure=structure, condition_name=f"C{k}-1")
        )
    return problems


def solver_oracle_pool() -> list[tuple[int, list[ff.RegressionProblem], tuple[int, int]]]:
    """20 seeded instances: K cycles 2,3,4; half-bound weights cycle."""
    pool = []
    for i in range(20):
        K = (2, 3, 4)[i % 3]
        n = (4, 6, 8, 10)[i % 4]
        M = (20, 30, 40, 50)[i % 4]
        combo = ((0, 0), (1, 0), (0, 1), (1, 1))[i % 4]
        pool.append((i, make_problems(1000 + i, K, n, M), combo))
    return pool


def fusion_bound_pool() -> list[tuple[int, list[ff.RegressionProblem]]]:
    return [(i, make_problems(2000 + i, (2, 3, 4)[i % 3], 6, 30)) for i in range(9)]


# ---------------------------------------------------------------------------
# Criterion 1: proximal operators beat random candidates
# ---------------------------------------------------------------------------

def test_criterion_1_prox_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_slack = np.inf
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        v = 3.0 * rng.standard_normal(dim)
        tau = float(2.0 * rng.random())
        noise = rng.standard_normal((1000, dim))
        radii = rng.choice([1e-4, 1e-2, 1.0, 3.0], size=(1000, 1))
        for prox, penalty in (
            (ff.prox_l1, lambda z: np.abs(z).sum(axis=-1)),
            (ff.prox_block_l2, lambda z: np.linalg.norm(z, axis=-1)),
        ):
            x = prox(v, tau)
            own = 0.5 * float(((x - v) ** 2).sum()) + tau * float(penalty(x))
            cands = x + noise * radii
            vals = 0.5 * ((cands - v) ** 2).sum(axis=1) + tau * penalty(cands)
            worst_slack = min(worst_slack, float(vals.min() - own))
            assert own <= vals.min() + 1e-8
    elapsed = time.perf_counter() - start
    report(
        1,
        "prox operators optimal vs perturbed candidates",
        elapsed < 5.0,
        f"min candidate slack {worst_slack:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criteria 2-4: solver vs oracle, decoupling, sparsity bound
# ---------------------------------------------------------------------------

def test_criterion_2_solver_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i, problems, (use1, use2) in solver_oracle_pool():
        lam1 = 0.5 * ff.lambda1_max(problems) if use1 else 0.0
        lam2 = 0.5 * ff.lambda2_max(problems) if use2 else 0.0
        hp = ff.Hyperparameters(lam1, lam2)
        fast = ff.solve(problems, hp)
        slow = ff.solve_oracle(problems, hp, iterations=100_000, seed=i)
        gap = abs(fast.objective.total - slow.objective.total) / (
            1.0 + slow.objective.total
        )
        worst = max(worst, gap)
        assert fast.converged
        assert gap <= 1e-5, f"instance {i}: gap {gap:.2e}"
    elapsed = time.perf_counter() - start
    report(
        2,
        "solver matches independent oracle on 20 instances",
        elapsed < 120.0,
        f"worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_decoupling_at_zero_weights():
    worst = 0.0
    for i, problems, _ in solver_oracle_pool():
        result = ff.solve(problems, ff.Hyperparameters(0.0, 0.0))
        for p, t in zip(problems, result.thetas):
            gap = float(np.abs(t.values - ff.ls_fit(p).theta.values).max())
            worst = max(worst, gap)
            assert gap <= 1e-6, f"instance {i}: parameter gap {gap:.2e}"
    report(3, "zero weights reproduce per-condition least squares", True,
           f"worst parameter gap {worst:.2e}")


def test_criterion_4_sparsity_bound():
    for i, problems, _ in solver_oracle_pool():
        bound = ff.lambda2_max(problems)
        above = ff.solve(problems, ff.Hyperparameters(0.0, 1.01 * bound))
        sup = max(float(np.abs(t.values).max()) for t in above.thetas)
        assert sup <= 1e-6, f"instance {i}: not all zero above bound ({sup:.2e})"

        assert max(float(np.abs(p.Phi.T @ p.Y).max()) for p in problems) > 0
        below = ff.solve(problems, ff.Hyperparameters(0.0, 0.5 * bound))
        alive = max(float(np.abs(t.values).max()) for t in below.thetas)
        assert alive > 1e-4, f"instance {i}: everything zero below bound"
    report(4, "sparsity weight bound zeroes all models exactly above it", True)


# ---------------------------------------------------------------------------
# Criteria 5-6: fusion bound behavior and certificates
# ---------------------------------------------------------------------------

def test_criterion_5_fusion_bound_behavior():
    start = time.perf_counter()

    # (a) above the sufficient bound everything coalesces onto theta_star
    for i, problems in fusion_bound_pool():
        star = ff.pooled_ls_fit(problems).theta.values
        suff = ff.lambda1_sufficient_bound(problems)
        result = ff.solve(problems, ff.Hyperparameters(1.05 * suff, 0.0))
        dist = ff.max_pairwise_distance(result.thetas)
        assert dist <= merge_threshold(result.thetas), f"instance {i} not coalesced"
        err = max(float(np.abs(t.values - star).max()) for t in result.thetas)
        assert err <= 1e-5 * (1.0 + float(np.abs(star).max())), (
            f"instance {i}: coalesced point misses theta_star ({err:.2e})"
        )

    # (b) below the necessary bound the margin fails and models stay apart
    for i, problems in fusion_bound_pool():
        for p in problems:
            assert ff.ls_fit(p).gram_positive_definite
        bound = ff.lambda1_max(problems)
        star = ff.pooled_ls_fit(problems).theta.values
        assert min(ff.kkt_necessary_margin(problems, 0.9 * bound)) < 0
        result = ff.solve(problems, ff.Hyperparameters(0.9 * bound, 0.0))
        dist = ff.max_pairwise_distance(result.thetas)
        assert dist > 1e-3 * (1.0 + float(np.linalg.norm(star))), (
            f"instance {i}: unexpectedly coalesced below the bound"
        )

    # (c) for K=2 the bound is the observed threshold within 1%
    worst_rel = 0.0
    for i in range(10):
        problems = make_problems(3000 + i, 2, 5, 25)
        bound = ff.lambda1_max(problems)
        lo, hi = 0.5 * bound, 1.5 * bound
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            result = ff.solve(problems, ff.Hyperparameters(mid, 0.0))
            if ff.is_coalesced(result.thetas):
                hi = mid
            else:
                lo = mid
        rel = abs(hi - bound) / bound
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.01, f"instance {i}: threshold off by {rel:.2%}"

    # Informational only: where the K>=3 empirical threshold falls between
    # the necessary bound (ratio 1.0) and the sufficient bound.  Whether the
    # necessary bound already coalesces for K>=3 is deliberately unasserted.
    for i, K in enumerate((3, 4, 5)):
        problems = make_problems(4000 + i, K, 5, 25)
        necessary = ff.lambda1_max(problems)
        sufficient = ff.lambda1_sufficient_bound(problems)
        lo, hi = 0.5 * necessary, 1.05 * sufficient
        for _ in range(16):
            mid = 0.5 * (lo + hi)
            result = ff.solve(problems, ff.Hyperparameters(mid, 0.0))
            if ff.is_coalesced(result.thetas):
                hi = mid
            else:
                lo = mid
        print(
            f"  info: K={K} empirical coalescence threshold = "
            f"{hi / necessary:.4f} x necessary bound "
            f"(sufficient bound sits at {sufficient / necessary:.4f} x)"
        )

    elapsed = time.perf_counter() - start
    report(
        5,
        "fusion bound: coalescence above, separation below, K=2 threshold tight",
        elapsed < 180.0,
        f"worst K=2 threshold error {worst_rel:.2%}, {elapsed:.1f}s",
    )


def test_criterion_6_certificate_identity():
    worst_gap = 0.0
    for i, problems in fusion_bound_pool():
        bound = ff.lambda1_max(problems)
        suff = ff.lambda1_sufficient_bound(problems)
        for lam in (0.9 * bound, 1.05 * suff):
            cert = ff.coalescence_certificate(problems, lam)
            worst_gap = max(worst_gap, cert.stationarity_gap)
            assert cert.stationarity_gap <= 1e-10
        for lam in (suff, 1.5 * suff):
            assert ff.coalescence_certificate(problems, lam).certified
    report(6, "certificate stationarity identity and sufficiency", True,
           f"worst identity gap {worst_gap:.2e}")


# ---------------------------------------------------------------------------
# Criterion 7: FIT hand values
# ---------------------------------------------------------------------------

def test_criterion_7_fit_metric_hand_cases():
    Y = np.array([1.0, 2.0, 3.0])
    assert ff.fit_metric(Y, Y) == 100.0
    assert ff.fit_metric(Y, np.full(3, Y.mean())) == 0.0
    assert ff.fit_metric(Y, np.array([1.0, 2.0, 5.0])) == -100.0
    report(7, "FIT metric reproduces 100% / 0% / -100% exactly", True)


# ---------------------------------------------------------------------------
# Criteria 8-9: end-to-end recovery and determinism
# ---------------------------------------------------------------------------

ACCEPTANCE_SEED = 20250810


def acceptance_scenario() -> ff.SyntheticScenario:
    s = ff.ModelStructure(taps=5, channels=3)
    g0 = np.concatenate(
        [[1.0, 0.6, 0.3, -0.2, 0.1], [-0.5, 0.8, -0.3, 0.4, -0.1], np.zeros(5)]
    )
    g1 = np.concatenate(
        [[-0.8, 0.4, -0.6, 0.3, -0.2], [0.9, -0.5, 0.7, -0.4, 0.2], np.zeros(5)]
    )
    return ff.SyntheticScenario(
        group_truths=(ff.ParameterVector(g0, s), ff.ParameterVector(g1, s)),
        assignment={
            "BR30": 0, "BR40": 0, "BR50": 0,
            "WBA20": 1, "WBA30": 1, "WBA40": 1,
        },
        noise_sigma=0.1,
        irrelevant_channels=frozenset({3}),
        samples_per_condition=404,  # 400 fully populated windows
        seed=318,
    )


def adjusted_rand_index(a: list[int], b: list[int]) -> float:
    pairs = list(combinations(range(len(a)), 2))
    both = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    same_a = sum(1 for i, j in pairs if a[i] == a[j])
    same_b = sum(1 for i, j in pairs if b[i] == b[j])
    total = comb(len(a), 2)
    expected = same_a * same_b / total
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    scn = acceptance_scenario()
    out = tmp_path_factory.mktemp("acceptance")
    entries = []
    for ds in ff.generate_synthetic(scn):
        write_dataset_csv(ds, out / f"{ds.name}.csv")
        entries.append(
            {
                "name": ds.name,
                "file": f"{ds.name}.csv",
                "role": "estimation" if ds.name.endswith("-1") else "validation",
                "channels": list(ds.channel_names),
                "output": "y",
            }
        )
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(entries), encoding="utf-8")

    start = time.perf_counter()
    rep = ff.run_pipeline(
        manifest, scn.structure, ff.GridSpec(), k_clusters=2,
        cfg=ff.SolverConfig(), seed=ACCEPTANCE_SEED,
    )
    elapsed = time.perf_counter() - start
    return scn, manifest, rep, elapsed


def test_criterion_8_end_to_end_recovery(pipeline_run):
    scn, _, rep, elapsed = pipeline_run

    conditions = sorted(scn.assignment)
    truth = [scn.assignment[c] for c in conditions]
    found = [rep.clusters.labels[c] for c in conditions]
    ari = adjusted_rand_index(truth, found)
    assert ari == 1.0, f"partition not recovered (ARI={ari:.3f})"

    # The irrelevant channel's block must be crushed relative to live blocks.
    worst_ratio = 0.0
    for t in rep.solve_result.thetas:
        dead = float(np.abs(t.block(3)).max())
        live = max(float(np.abs(t.block(j)).max()) for j in (1, 2))
        worst_ratio = max(worst_ratio, dead / live)
    assert worst_ratio <= 0.05, f"irrelevant block too large ({worst_ratio:.3f})"

    # Pooled refits land within least-squares noise range of the truth.
    datasets = {ds.name: ds for ds in ff.generate_synthetic(scn)}
    for c, members in rep.refit_members.items():
        Phi = np.vstack(
            [ff.build_regressor(datasets[m], scn.structure).Phi for m in members]
        )
        truth = scn.group_truths[scn.assignment[members[0].rsplit("-", 1)[0]]]
        err = float(np.linalg.norm(rep.refits[c].theta.values - truth.values))
        noise_gain = float(np.sqrt(np.trace(np.linalg.inv(Phi.T @ Phi))))
        assert err <= 5.0 * scn.noise_sigma * noise_gain, (
            f"category {c} refit error {err:.4f} above the noise bound"
        )

    # Held-out FIT: strong on own conditions, far weaker across groups.
    category_of_source = {
        "+".join(rep.refit_members[c]): c for c in rep.refit_members
    }
    own, cross = [], []
    for r in rep.fit_reports:
        eval_cond = r.eval_dataset.rsplit("-", 1)[0]
        same = rep.clusters.labels[eval_cond] == category_of_source[r.model_source]
        (own if same else cross).append(r.fit_percent)
    assert min(own) >= 70.0, f"own-group FIT too low ({min(own):.1f}%)"
    assert max(cross) <= min(own) - 20.0, (
        f"cross-group FIT too close (own>={min(own):.1f}%, cross<={max(cross):.1f}%)"
    )

    ok = elapsed < 300.0
    report(
        8,
        "pipeline recovers groups, prunes dead channel, separates FIT",
        ok,
        f"ARI=1.0, dead/live={worst_ratio:.3f}, own FIT>={min(own):.1f}%, "
        f"cross FIT<={max(cross):.1f}%, {elapsed:.0f}s",
    )


def test_criterion_9_deterministic_report(pipeline_run):
    scn, manifest, rep, _ = pipeline_run
    again = ff.run_pipeline(
        manifest, scn.structure, ff.GridSpec(), k_clusters=2,
        cfg=ff.SolverConfig(), seed=ACCEPTANCE_SEED,
    )
    identical = rep.to_json() == again.to_json()
    report(9, "rerun with the same seed is byte-identical", identical)


# Grid iterations on the criterion-8 scenario under the earlier rho rule,
# which doubled or halved rho when the raw residuals differed by 10x, at
# most 10 times per solve.  Iteration counts do not depend on the machine.
RAW_RESIDUAL_RULE_GRID_ITERATIONS = 27_823


def test_grid_iterations_at_most_half_the_raw_residual_rule(pipeline_run):
    _, _, rep, _ = pipeline_run
    assert all(row.converged for row in rep.score_table)
    total = sum(row.iterations for row in rep.score_table)
    assert total <= RAW_RESIDUAL_RULE_GRID_ITERATIONS // 2, f"{total} grid iterations"


def test_rho_stats_stay_out_of_report(pipeline_run):
    # report.json must stay byte-identical on reruns, so per-solve stats
    # live on the SolveResult only.
    _, _, rep, _ = pipeline_run
    assert rep.solve_result.rho_changes <= ff.solver.RHO_MAX_CHANGES
    assert rep.solve_result.rho > 0
    solve_section = json.loads(rep.to_json())["solve"]
    assert not {"rho", "rho_changes"} & set(solve_section)
