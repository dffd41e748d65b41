from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kunigraph.codes import LinearCode, mds_code
from kunigraph.dense import uniformity_by_oracle, graph_state
from kunigraph.errors import ResourceLimitError
from kunigraph.field import PrimeField
from kunigraph.graph import (
    Adjacency,
    HierarchySpec,
    bipartite_adjacency,
    general_adjacency,
    hierarchy_adjacency,
    random_b_matrix,
)
from kunigraph.matrix import MatrixGF, row_reduce
from kunigraph.stabilizer import (
    graph_generators,
    minimum_support,
    support_weight,
    uniformity_index,
    verify_general_uniformity,
)


@pytest.fixture
def bell_adj(f5):
    return bipartite_adjacency(LinearCode(MatrixGF(f5, [[1]])))


# ---------------------------------------------------------------------------
# generator tableaux
# ---------------------------------------------------------------------------

def test_bell_graph_generators(f5, bell_adj):
    assert graph_generators(bell_adj).tolist() == [[1, 0, 0, 4], [0, 1, 4, 0]]


def test_empty_graph_generators_are_bare_shifts(f5):
    tableau = graph_generators(Adjacency(MatrixGF.zeros(f5, 3, 3)))
    assert np.array_equal(tableau[:, :3], np.eye(3, dtype=np.int64))
    assert not tableau[:, 3:].any()


def test_62_generator_table(f5):
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    tableau = graph_generators(adj)
    expected_z = [
        [0, 0, 4, 4, 4, 4],
        [0, 0, 4, 3, 2, 1],
        [4, 4, 0, 0, 0, 0],
        [4, 3, 0, 0, 0, 0],
        [4, 2, 0, 0, 0, 0],
        [4, 1, 0, 0, 0, 0],
    ]
    assert tableau.shape == (6, 12)
    assert np.array_equal(tableau[:, :6], np.eye(6, dtype=np.int64))
    assert tableau[:, 6:].tolist() == expected_z


def test_commutation_via_symplectic_form(f5, adj62):
    # S_i and S_j commute iff x_i . z_j - z_i . x_j = 0 mod q
    tableau = graph_generators(adj62)
    x, z = tableau[:, :6], tableau[:, 6:]
    assert not ((x @ z.T - z @ x.T) % 5).any()
    # X and Z on one qudit have symplectic product 1, so they clash
    clash = np.array([[1, 0, 0, 0], [0, 0, 1, 0]])
    cx, cz = clash[:, :2], clash[:, 2:]
    assert ((cx @ cz.T - cz @ cx.T) % 5).any()


def test_identity_detection(f5, bell_adj):
    # a generator product is the identity iff it has empty support,
    # and the X part w of a nonzero product is never empty
    for w in product(range(5), repeat=2):
        assert (support_weight(list(w), bell_adj) == 0) == (w == (0, 0))


def test_generator_tableau_has_full_rank(f5, adj62):
    assert row_reduce(graph_generators(adj62), f5)[1] == 6


# ---------------------------------------------------------------------------
# support weights
# ---------------------------------------------------------------------------

def test_zero_vector_has_zero_support(f5, bell_adj):
    assert support_weight([0, 0], bell_adj) == 0


def test_bell_single_generator_support(f5, bell_adj):
    assert support_weight([1, 0], bell_adj) == 2


def test_62_single_generator_support(f5):
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    assert support_weight([1, 0, 0, 0, 0, 0], adj) == 5


def test_support_weight_refuses_booleans_among_integers(f5):
    # [True, 0, 0, 1, 0, 4] would read as [1, 0, 0, 1, 0, 4], of weight 6
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    for w in ([True, 0, 0, 1, 0, 4], (0, 0, 0, np.True_, 0, 4)):
        with pytest.raises(ValueError, match="got a boolean entry"):
            support_weight(w, adj)


def test_support_weight_length_check(f5, bell_adj):
    with pytest.raises(ValueError):
        support_weight([1, 0, 0], bell_adj)


def test_support_weight_refuses_exponents_that_are_not_integers(f5):
    # 1.9 and 4.2 would truncate to the vector [0, 0, 0, 1, 0, 4] of weight 3
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    for w in ([0, 0, 0, 1.9, 0, 4.2], [False, False, False, True, False, True], list("000104")):
        with pytest.raises(ValueError, match="must be integers"):
            support_weight(w, adj)
    for w in ([0, 0, 0, 1, 0, 4], range(6), (0, 0, 0, 1, 0, 4), np.arange(6, dtype=np.uint8)):
        assert support_weight(w, adj) == support_weight(list(w), adj)


@st.composite
def graphs_and_exponents(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(1, 8))
    pairs = n * (n - 1) // 2
    upper = np.zeros((n, n), dtype=np.int64)
    entries = st.lists(st.integers(0, p - 1), min_size=pairs, max_size=pairs)
    upper[np.triu_indices(n, k=1)] = draw(entries)
    w = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return Adjacency(MatrixGF(PrimeField(p), upper + upper.T)), w


@given(graphs_and_exponents())
def test_every_nonzero_multiple_has_the_same_support_weight(case):
    # Gamma (c w) = c Gamma w and c is invertible, so c w and w vanish on the
    # same qudits; the sweep visits one vector per class {c w : c != 0}
    adj, w = case
    q = adj.field.p
    weight = support_weight(w, adj)
    for c in range(1, q):
        assert support_weight([c * x % q for x in w], adj) == weight


# ---------------------------------------------------------------------------
# uniformity sweeps
# ---------------------------------------------------------------------------

def test_62_graph_is_exactly_2_uniform(f5):
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    assert uniformity_index(adj) == 2


def test_empty_graph_is_0_uniform(f5):
    assert uniformity_index(Adjacency(MatrixGF.zeros(f5, 4, 4))) == 0


def test_52_graph_is_ame(f5):
    adj = bipartite_adjacency(mds_code(f5, 5, 2))
    assert uniformity_index(adj) == 2  # floor(5/2)


def test_minimum_support_witness_attains_the_minimum(f5):
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    weight, witness = minimum_support(adj)
    assert weight == 3
    assert support_weight(witness, adj) == weight
    assert witness.any()


def test_sweep_guard(f5):
    f3 = PrimeField(3)
    big = Adjacency(MatrixGF.zeros(f3, 17, 17))  # 3^17 > 2^26
    with pytest.raises(ResourceLimitError):
        uniformity_index(big)


def test_sweep_guard_refuses_huge_n_before_forming_q_to_the_n():
    # 1000003^800 has more digits than Python will format, so the guard must not form it
    big = Adjacency(MatrixGF.zeros(PrimeField(1_000_003), 800, 800))
    with pytest.raises(ResourceLimitError, match="exceeds sweep guard"):
        uniformity_index(big)


# ---------------------------------------------------------------------------
# the free-block guarantee
# ---------------------------------------------------------------------------

def test_zero_block_instance_verifies(f5):
    code = mds_code(f5, 6, 2)
    assert verify_general_uniformity(code, MatrixGF.zeros(f5, 4, 4))


def test_twenty_random_blocks_verify(f5):
    code = mds_code(f5, 6, 2)
    rng = np.random.default_rng(123)
    for _ in range(20):
        assert verify_general_uniformity(code, random_b_matrix(f5, 4, rng))


def test_singular_a_is_rejected_before_verification(f5):
    code = LinearCode(MatrixGF(f5, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        verify_general_uniformity(code, MatrixGF.zeros(f5, 2, 2))


# ---------------------------------------------------------------------------
# exhaustive bounds behind the free-block guarantee
# ---------------------------------------------------------------------------

def test_all_nonzero_products_have_support_at_least_k_plus_1(f5):
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    q, n, k = 5, 6, 2
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    idx = np.arange(1, q**n, dtype=np.int64)
    w = (idx[:, None] // powers[None, :]) % q
    z = (w @ adj.gamma.entries) % q
    weights = np.count_nonzero((w != 0) | (z != 0), axis=1)
    assert int(weights.min()) == k + 1
    # sharper bound when the first k exponents are not all zero
    first_k_nonzero = (w[:, :k] != 0).any(axis=1)
    assert int(weights[first_k_nonzero].min()) >= n - k + 1


# ---------------------------------------------------------------------------
# agreement with the dense oracle (the central cross-check)
# ---------------------------------------------------------------------------

def test_sweep_agrees_with_dense_oracle_on_corpus(f5):
    rng = np.random.default_rng(99)
    corpus = [
        Adjacency(MatrixGF.zeros(f5, 3, 3)),
        bipartite_adjacency(LinearCode(MatrixGF(f5, [[1]]))),
        bipartite_adjacency(mds_code(f5, 5, 2)),
        bipartite_adjacency(mds_code(f5, 6, 2)),
        hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (2, 1)))),
        hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (3, 1)))),
        general_adjacency(mds_code(f5, 6, 2), random_b_matrix(f5, 4, rng)),
    ]
    for adj in corpus:
        assert uniformity_index(adj) == uniformity_by_oracle(graph_state(adj))
