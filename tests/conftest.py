from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from fusedfir import ModelStructure, RegressionProblem

# Property tests draw the same examples on every run, so the suite stays
# reproducible; no example database is written.
settings.register_profile(
    "fusedfir", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("fusedfir")


def random_problems(
    seed: int,
    K: int,
    n: int,
    M: int,
    noise: float = 0.3,
    sparsity: float = 0.3,
) -> list[RegressionProblem]:
    """Random well-posed problem set sharing one structure (M >= n)."""
    rng = np.random.default_rng(seed)
    structure = ModelStructure(taps=n, channels=1)
    problems = []
    for k in range(K):
        Phi = rng.standard_normal((M, n))
        theta = rng.standard_normal(n) * (rng.random(n) > sparsity)
        Y = Phi @ theta + noise * rng.standard_normal(M)
        problems.append(
            RegressionProblem(Y=Y, Phi=Phi, structure=structure, condition_name=f"C{k}-1")
        )
    return problems


def scalar_pair() -> list[RegressionProblem]:
    """The two-condition scalar instance with known closed forms."""
    s = ModelStructure(taps=1, channels=1)
    return [
        RegressionProblem(Y=np.array([0.0]), Phi=np.array([[1.0]]), structure=s, condition_name="A0-1"),
        RegressionProblem(Y=np.array([2.0]), Phi=np.array([[1.0]]), structure=s, condition_name="B0-1"),
    ]


@pytest.fixture
def tiny_pair():
    return scalar_pair()
