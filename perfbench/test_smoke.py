"""Smoke test of the benchmark on tiny corpora.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import numpy as np

import run

run.load_kunigraph()

from kunigraph import Adjacency, MatrixGF, PrimeField, uniformity_index  # noqa: E402
from workloads import cutrank_uniformity  # noqa: E402


def test_smoke_reports_every_metric_and_counts_a_planted_wrong_k():
    assert run.smoke() == []


def test_cutrank_oracle_matches_the_sweep_on_random_graphs():
    rng = np.random.default_rng(5)
    for p, n in [(2, 6), (3, 5), (5, 4), (7, 4), (3, 6)]:
        for _ in range(5):
            upper = np.triu(rng.integers(0, p, size=(n, n)), k=1)
            gamma = upper + upper.T
            adj = Adjacency(MatrixGF(PrimeField(p), gamma))
            assert cutrank_uniformity(gamma, p) == uniformity_index(adj)
