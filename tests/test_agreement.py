"""The three routes agree on generated inputs, not only on hand-written ones.

The sweep (stabilizer) and the dense oracle are both exact, so they must
give the same k on every graph. The structural route reads d⊥ - 1 off the
outer code: that is k itself for one level with a zero B block, and a
lower bound once a hierarchy level or a B block fills the lower-right
corner. Every register here has q^n <= 2e4 amplitudes: at 2^16 the dense
oracle alone takes seconds per random graph.
"""

from hypothesis import given, settings, strategies as st

from kunigraph.codes import dual_code, mds_code, min_distance
from kunigraph.dense import graph_state, uniformity_by_oracle
from kunigraph.field import PrimeField
from kunigraph.graph import (
    Adjacency,
    HierarchySpec,
    bipartite_adjacency,
    general_adjacency,
    hierarchy_adjacency,
)
from kunigraph.matrix import MatrixGF
from kunigraph.stabilizer import uniformity_index

MAX_AMPLITUDES = 20_000
PRIMES = (2, 3, 5, 7)


def largest_n(p: int) -> int:
    n = 1
    while p ** (n + 1) <= MAX_AMPLITUDES:
        n += 1
    return n


def symmetric_matrices(field: PrimeField, size: int):
    """Zero-diagonal symmetric size x size matrices over the field."""
    cells = [(i, j) for i in range(size) for j in range(i + 1, size)]

    def fill(upper: list[int]) -> MatrixGF:
        entries = [[0] * size for _ in range(size)]
        for (i, j), value in zip(cells, upper):
            entries[i][j] = entries[j][i] = value
        return MatrixGF(field, entries)

    values = st.integers(0, field.p - 1)
    return st.lists(values, min_size=len(cells), max_size=len(cells)).map(fill)


@st.composite
def random_graphs(draw) -> Adjacency:
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, largest_n(p)))
    return Adjacency(draw(symmetric_matrices(PrimeField(p), n)))


@st.composite
def mds_levels(draw, primes=(3, 5, 7), least_n=2) -> tuple[PrimeField, int, int]:
    """A field and a level (n, k) with n <= q + 1, 1 <= k <= n/2 and q^n <= 2e4."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(least_n, min(p + 1, largest_n(p))))
    return PrimeField(p), n, draw(st.integers(1, n // 2))


@st.composite
def hierarchy_specs(draw) -> HierarchySpec:
    """Two or three levels, each block flush in the corner the last one left."""
    field, n, k = draw(mds_levels(least_n=3))
    levels = [(n, k)]
    for _ in range(draw(st.integers(1, 2))):
        corner = levels[-1][0] - levels[-1][1]
        if corner < 2:
            break
        nl = draw(st.integers(2, corner))
        levels.append((nl, draw(st.integers(1, nl // 2))))
    return HierarchySpec(field, tuple(levels))


def sweep_and_dense(adj: Adjacency) -> tuple[int, int]:
    return uniformity_index(adj), uniformity_by_oracle(graph_state(adj))


def structural_bound(code) -> int:
    return min_distance(dual_code(code)) - 1


@settings(max_examples=40)
@given(random_graphs())
def test_sweep_equals_dense_on_random_graphs(adj):
    k_sweep, k_dense = sweep_and_dense(adj)
    assert k_sweep == k_dense


@settings(max_examples=50)
@given(hierarchy_specs())
def test_hierarchy_levels_never_lower_k(spec):
    k_sweep, k_dense = sweep_and_dense(hierarchy_adjacency(spec))
    assert k_sweep == k_dense >= structural_bound(mds_code(spec.field, *spec.levels[0]))


@settings(max_examples=50)
@given(st.data())
def test_a_random_b_block_never_lowers_k(data):
    field, n, k = data.draw(mds_levels())
    b = data.draw(symmetric_matrices(field, n - k))
    code = mds_code(field, n, k)
    k_sweep, k_dense = sweep_and_dense(general_adjacency(code, b))
    assert k_sweep == k_dense >= structural_bound(code)


@settings(max_examples=25)
@given(mds_levels(primes=PRIMES))
def test_all_three_routes_are_equal_on_one_zero_b_level(level):
    field, n, k = level
    code = mds_code(field, n, k)
    k_sweep, k_dense = sweep_and_dense(bipartite_adjacency(code))
    assert structural_bound(code) == k_sweep == k_dense == k
