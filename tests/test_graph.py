import numpy as np
import pytest

from kunigraph.codes import LinearCode, mds_code
from kunigraph.field import PrimeField
from kunigraph.graph import (
    Adjacency,
    HierarchySpec,
    bipartite_adjacency,
    export_dot,
    general_adjacency,
    hierarchy_adjacency,
    level_codes,
    nested_adjacencies,
    random_b_matrix,
)
from kunigraph.matrix import MatrixGF

GAMMA_60 = [
    [0, 0, 4, 4, 4, 4],
    [0, 0, 4, 3, 2, 1],
    [4, 4, 0, 0, 0, 0],
    [4, 3, 0, 0, 0, 0],
    [4, 2, 0, 0, 0, 0],
    [4, 1, 0, 0, 0, 0],
]
GAMMA_62 = [
    [0, 0, 4, 4, 4, 4],
    [0, 0, 4, 3, 2, 1],
    [4, 4, 0, 0, 0, 0],
    [4, 3, 0, 0, 0, 0],
    [4, 2, 0, 0, 0, 4],
    [4, 1, 0, 0, 4, 0],
]
GAMMA_63 = [
    [0, 0, 4, 4, 4, 4],
    [0, 0, 4, 3, 2, 1],
    [4, 4, 0, 0, 0, 0],
    [4, 3, 0, 0, 4, 4],
    [4, 2, 0, 4, 0, 0],
    [4, 1, 0, 4, 0, 0],
]


# ---------------------------------------------------------------------------
# Adjacency validation
# ---------------------------------------------------------------------------

def test_adjacency_rejects_nonsquare(f5):
    with pytest.raises(ValueError):
        Adjacency(MatrixGF.zeros(f5, 2, 3))


def test_adjacency_rejects_nonzero_diagonal(f5):
    with pytest.raises(ValueError):
        Adjacency(MatrixGF(f5, [[1, 0], [0, 0]]))


def test_adjacency_rejects_asymmetric(f5):
    with pytest.raises(ValueError):
        Adjacency(MatrixGF(f5, [[0, 1], [2, 0]]))


def test_adjacency_refuses_fractional_weights(f5):
    # once truncated to [[0, 1], [1, 0]], which is a valid graph
    with pytest.raises(ValueError):
        Adjacency(MatrixGF(f5, [[0, 1.7], [1.7, 0]]))


def test_adjacency_edges_and_counts(f5):
    adj = Adjacency(MatrixGF(f5, GAMMA_62))
    assert adj.edge_count() == 9
    assert (5, 6, 4) in adj.edges()


# ---------------------------------------------------------------------------
# bipartite builder
# ---------------------------------------------------------------------------

def test_bell_pair_graph(f5):
    adj = bipartite_adjacency(LinearCode(MatrixGF(f5, [[1]])))
    assert adj.gamma.entries.tolist() == [[0, 4], [4, 0]]


def test_bipartite_62_blocks(f5):
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    assert adj.gamma.entries.tolist() == GAMMA_60
    # upper-right block is -A mod 5
    assert adj.gamma.entries[:2, 2:].tolist() == [[4, 4, 4, 4], [4, 3, 2, 1]]


def test_bipartite_output_is_valid_adjacency(f5):
    adj = bipartite_adjacency(mds_code(f5, 6, 2))
    ent = adj.gamma.entries
    assert np.array_equal(ent, ent.T)
    assert np.all(np.diagonal(ent) == 0)


# ---------------------------------------------------------------------------
# generalized builder
# ---------------------------------------------------------------------------

def test_zero_block_reduces_to_bipartite(f5):
    code = mds_code(f5, 6, 2)
    b = MatrixGF.zeros(f5, 4, 4)
    assert general_adjacency(code, b) == bipartite_adjacency(code)


def test_four_cycle_block(f5):
    code = mds_code(f5, 6, 2)
    cycle = MatrixGF(f5, [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    adj = general_adjacency(code, cycle)
    assert adj.gamma.entries[2:, 2:].tolist() == cycle.entries.tolist()
    assert adj.gamma.entries[:2, 2:].tolist() == [[4, 4, 4, 4], [4, 3, 2, 1]]
    from kunigraph.stabilizer import uniformity_index

    assert uniformity_index(adj) == 2


def test_general_builder_rejects_bad_blocks(f5):
    code = mds_code(f5, 6, 2)
    with pytest.raises(ValueError):
        general_adjacency(code, MatrixGF.zeros(f5, 3, 3))  # wrong size
    with pytest.raises(ValueError):
        general_adjacency(code, MatrixGF(f5, np.eye(4, dtype=int)))  # diagonal
    bad = np.zeros((4, 4), dtype=int)
    bad[0, 1] = 1
    with pytest.raises(ValueError):
        general_adjacency(code, MatrixGF(f5, bad))  # asymmetric
    with pytest.raises(ValueError):
        general_adjacency(code, MatrixGF.zeros(PrimeField(7), 4, 4))  # wrong field


def test_general_builder_accepts_an_a_with_a_singular_minor(f5):
    # the builder checks B only: a non-MDS A builds its bipartite block all the same
    code = LinearCode(MatrixGF(f5, [[1, 1], [1, 1]]))
    adj = general_adjacency(code, MatrixGF.zeros(f5, 2, 2))
    assert adj == bipartite_adjacency(code)
    assert adj.gamma.entries[:2, 2:].tolist() == [[4, 4], [4, 4]]


def test_random_b_matrix_is_valid(f5):
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = random_b_matrix(f5, 4, rng)
        assert np.array_equal(b.entries, b.entries.T)
        assert np.all(np.diagonal(b.entries) == 0)


# ---------------------------------------------------------------------------
# hierarchy builder
# ---------------------------------------------------------------------------

def test_single_level_equals_bipartite(f5):
    spec = HierarchySpec(f5, ((6, 2),))
    assert hierarchy_adjacency(spec) == bipartite_adjacency(mds_code(f5, 6, 2))


def test_two_level_embedding_62(f5):
    spec = HierarchySpec(f5, ((6, 2), (2, 1)))
    assert hierarchy_adjacency(spec).gamma.entries.tolist() == GAMMA_62


def test_two_level_embedding_63(f5):
    spec = HierarchySpec(f5, ((6, 2), (3, 1)))
    assert hierarchy_adjacency(spec).gamma.entries.tolist() == GAMMA_63


def test_flat_embedding_fills_whole_corner(f5):
    # block size equals the zero corner: the corner is exactly the
    # bipartite adjacency of the inner code
    spec = HierarchySpec(f5, ((6, 2), (4, 2)))
    adj = hierarchy_adjacency(spec)
    inner = bipartite_adjacency(mds_code(f5, 4, 2))
    assert adj.gamma.entries[2:, 2:].tolist() == inner.gamma.entries.tolist()


def test_three_level_embedding_over_gf7():
    f7 = PrimeField(7)
    spec = HierarchySpec(f7, ((8, 2), (4, 1), (2, 1)))
    adj = hierarchy_adjacency(spec)
    assert adj.n == 8
    # innermost bell block sits in the last 2x2 corner
    assert adj.gamma.entries[6:, 6:].tolist() == [[0, 6], [6, 0]]


def test_hierarchy_equals_general_with_explicit_block(f5):
    spec = HierarchySpec(f5, ((6, 2), (2, 1)))
    b = np.zeros((4, 4), dtype=int)
    b[2, 3] = b[3, 2] = 4
    expected = general_adjacency(mds_code(f5, 6, 2), MatrixGF(f5, b))
    assert hierarchy_adjacency(spec) == expected


def test_edge_counts_grow_with_each_level(f5):
    prefixes = [((6, 2),), ((6, 2), (2, 1))]
    counts = [hierarchy_adjacency(HierarchySpec(f5, lv)).edge_count() for lv in prefixes]
    assert counts == sorted(set(counts))
    assert counts[1] > counts[0]


def test_level_codes_are_the_mds_codes_of_each_level(f5):
    spec = HierarchySpec(f5, ((6, 2), (3, 1), (2, 1)))
    codes = level_codes(spec, gamma=3)
    assert codes == tuple(mds_code(f5, n, k, gamma=3) for n, k in spec.levels)


def test_nested_adjacencies_give_every_prefix(f5):
    prefixes = nested_adjacencies(level_codes(HierarchySpec(f5, ((6, 2), (2, 1)))))
    assert [adj.gamma.entries.tolist() for adj in prefixes] == [GAMMA_60, GAMMA_62]
    f7 = PrimeField(7)
    deep = nested_adjacencies(level_codes(HierarchySpec(f7, ((8, 2), (4, 1), (2, 1)))))
    assert [adj.edge_count() for adj in deep] == [12, 15, 16]
    assert deep[-1] == hierarchy_adjacency(HierarchySpec(f7, ((8, 2), (4, 1), (2, 1))))


def test_nested_adjacencies_refuse_a_block_outside_the_zero_corner(f5):
    code62, code42 = mds_code(f5, 6, 2), mds_code(f5, 4, 2)
    with pytest.raises(ValueError, match="zero corner"):
        nested_adjacencies((code62, code42, code42))  # corner already filled
    with pytest.raises(ValueError, match="zero corner"):
        nested_adjacencies((code42, code62))  # larger than the register
    with pytest.raises(ValueError, match="zero corner"):
        nested_adjacencies((code62, mds_code(PrimeField(7), 2, 1)))  # other field


def test_hierarchy_spec_validation(f5):
    with pytest.raises(ValueError):
        HierarchySpec(f5, ())
    with pytest.raises(ValueError):
        HierarchySpec(f5, ((6, 4),))  # k > n/2
    with pytest.raises(ValueError):
        HierarchySpec(f5, ((6, 2), (5, 1)))  # block exceeds the zero corner
    with pytest.raises(ValueError):
        HierarchySpec(f5, ((6, 2), (2, 2)))  # inner k > n/2
    with pytest.raises(ValueError):
        HierarchySpec(f5, ((6, 2), (1, 1)))  # fewer than 2 qudits
    with pytest.raises(ValueError):
        HierarchySpec(f5, ((6, 2), (2, 1), (2, 1)))  # corner already exhausted


@pytest.mark.parametrize("levels", [((6.9, 2.5),), ((6, True),), (("6", "2"),), ((6, 2), (2, 1.0))])
def test_hierarchy_spec_refuses_sizes_that_are_not_ints(f5, levels):
    # int() would make these 6:2, 6:1, 6:2 and 6:2+2:1
    with pytest.raises(ValueError, match="level sizes must be integers"):
        HierarchySpec(f5, levels)


@pytest.mark.parametrize("levels", [((6, 2), 5), (6,), ((6, 2, 1),), ("62",), ((6, 2), "21")])
def test_hierarchy_spec_refuses_levels_that_are_not_pairs(f5, levels):
    with pytest.raises(ValueError, match=r"each level must be an \(n, k\) pair"):
        HierarchySpec(f5, levels)


def test_hierarchy_spec_parsing(f5):
    assert HierarchySpec.parse(f5, "6:2,2:1").levels == ((6, 2), (2, 1))
    assert HierarchySpec.parse(f5, "6:2+2:1").levels == ((6, 2), (2, 1))
    assert HierarchySpec.parse(f5, " 6:2 ").levels == ((6, 2),)
    assert HierarchySpec.parse(f5, "6 : 2, 2:1").levels == ((6, 2), (2, 1))
    with pytest.raises(ValueError):
        HierarchySpec.parse(f5, "6-2")


@pytest.mark.parametrize("text", ["1_0:5", "\u0666:\u0662", "+6:2", "6:-2", "6:", "6:2,"])
def test_hierarchy_spec_parses_ascii_digits_only(text):
    # int() reads "1_0" as 10 and the Arabic-Indic digits as 6 and 2
    with pytest.raises(ValueError, match="expected n:k in ASCII digits"):
        HierarchySpec.parse(PrimeField(11), text)


def test_hierarchy_spec_label(f5):
    assert HierarchySpec(f5, ((6, 2), (2, 1))).label() == "6:2+2:1"


# ---------------------------------------------------------------------------
# DOT and JSON export
# ---------------------------------------------------------------------------

def test_dot_for_bell_pair(f5):
    adj = bipartite_adjacency(LinearCode(MatrixGF(f5, [[1]])))
    dot = export_dot(adj)
    assert "1 -- 2 [label=4];" in dot
    assert dot.startswith("graph g {")


def test_dot_for_empty_graph(f5):
    dot = export_dot(Adjacency(MatrixGF.zeros(f5, 3, 3)))
    assert "--" not in dot
    assert "  3;" in dot


def test_dot_edge_lines_match_edge_count(f5):
    adj = Adjacency(MatrixGF(f5, GAMMA_62))
    dot = export_dot(adj)
    edge_lines = [ln for ln in dot.splitlines() if "--" in ln]
    assert len(edge_lines) == adj.edge_count() == 9


def test_adjacency_json_round_trip(f5):
    adj = Adjacency(MatrixGF(f5, GAMMA_62))
    payload = adj.to_json()
    assert payload == {"p": 5, "n": 6, "gamma": GAMMA_62}
    assert Adjacency.from_json(payload) == adj
    payload["n"] = 7
    with pytest.raises(ValueError):
        Adjacency.from_json(payload)
