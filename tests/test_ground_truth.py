"""Qubit graph states against facts proved outside this repo.

AME(n, 2), a state on n qubits whose every reduction to n // 2 qubits is
maximally mixed, exists for n = 2, 3, 5 and 6, and exists as a graph state
for each of them. AME(4, 2) does not exist (Higuchi and Sudbery, Phys.
Lett. A 273, 2000). So the largest uniformity over all labelled graphs on
n qubits is n // 2, except 1 at n = 4.

The histograms of k over the graphs are this repo's own measurement, not
literature, so they are checked only as agreement between two routes.
"""

from itertools import combinations

import numpy as np
import pytest

from kunigraph.dense import graph_state, uniformity_by_oracle
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency
from kunigraph.matrix import MatrixGF
from kunigraph.stabilizer import uniformity_index

LARGEST_K = {2: 1, 3: 1, 4: 1, 5: 2, 6: 3}


def _pairs(n):
    """The vertex pairs i < j; bit e of a graph's mask is the edge on pair e."""
    return list(combinations(range(n), 2))


def _qubit_graphs(n):
    """Every labelled graph on n qubits, in the order of its edge mask."""
    f2 = PrimeField(2)
    pairs = _pairs(n)
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    bits = np.arange(len(pairs))
    for mask in range(1 << len(pairs)):
        gamma = np.zeros((n, n), dtype=np.int64)
        gamma[rows, cols] = gamma[cols, rows] = (mask >> bits) & 1
        yield Adjacency(MatrixGF(f2, gamma))


@pytest.fixture(scope="module")
def six_qubit_ks():
    """k by the sweep for every labelled graph on 6 qubits, by edge mask."""
    return np.array([uniformity_index(adj) for adj in _qubit_graphs(6)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sweep_and_dense_oracle_agree_on_every_qubit_graph(n):
    swept = [uniformity_index(adj) for adj in _qubit_graphs(n)]
    dense = [uniformity_by_oracle(graph_state(adj)) for adj in _qubit_graphs(n)]
    assert swept == dense
    assert max(swept) == LARGEST_K[n]


def test_six_qubit_graphs_reach_ame_by_the_sweep(six_qubit_ks):
    assert six_qubit_ks.max() == LARGEST_K[6]


def test_no_six_qubit_ame_graph_has_three_independent_vertices(six_qubit_ks):
    # Gamma = [[0, A], [A^T, B]] gives w on the first three qubits the weight of a
    # codeword of [I | A], so AME needs [I | A] to be an MDS [6, 3] code over GF(2),
    # which is longer than p + 1 = 3 allows
    inner = sum(1 << e for e, (i, j) in enumerate(_pairs(6)) if j < 3)
    independent = (np.arange(1 << 15) & inner) == 0
    assert np.count_nonzero(independent) == 1 << 12
    assert six_qubit_ks[independent].max() == 2
