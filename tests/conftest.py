from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import settings

from kunigraph import (
    HierarchySpec,
    PrimeField,
    bipartite_adjacency,
    hierarchy_adjacency,
    hierarchy_state_from_codes,
    state_from_code,
)
from kunigraph.codes import mds_a_matrix, mds_code
from kunigraph.matrix import row_reduce

# fixed examples and no deadline: the suite gives the same verdict on every run,
# however loaded the host is
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

PAPER_A_2x4 = [[1, 1, 1, 1], [1, 2, 3, 4]]

# (p, n, k) of every code the perfbench corpora verify by the structural route
CORPUS_SHAPES = [
    (11, 12, 6), (13, 11, 5), (17, 10, 5), (11, 8, 4), (13, 8, 4), (17, 8, 4),
    (11, 9, 4), (17, 7, 3), (13, 9, 4), (11, 10, 5), (13, 10, 5), (17, 8, 3),
    (7, 7, 3), (7, 6, 3), (13, 5, 2), (11, 5, 2), (5, 6, 2), (5, 6, 3), (7, 5, 2),
    (5, 4, 2), (3, 4, 2), (5, 4, 1), (2, 2, 1), (11, 8, 4), (17, 7, 3),
]


def perm_expansion_det(entries, p):
    """Determinant by signed permutation expansion (test-side oracle)."""
    n = len(entries)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= entries[i][perm[i]]
        total += term
    return total % p


def brute_minors_all_nonsingular(entries, p):
    """Exhaustive minor check through the expansion oracle.

    [I | A] is MDS iff every square submatrix of A is nonsingular
    (MacWilliams and Sloane, ch. 11), so this is the oracle the
    library's MDS rule, min_distance == n - k + 1, is checked against.
    """
    rows, cols = len(entries), len(entries[0])
    for t in range(1, min(rows, cols) + 1):
        for rsel in combinations(range(rows), t):
            for csel in combinations(range(cols), t):
                minor = [[entries[r][c] for c in csel] for r in rsel]
                if perm_expansion_det(minor, p) == 0:
                    return False
    return True


def mds_block_variant(f, rows, cols, rng):
    """An MDS block as built, with one entry redrawn, or with one planted singular minor."""
    entries = np.array(mds_a_matrix(f, rows, cols).entries)
    kind = rng.integers(3)
    if kind == 1:
        entries[rng.integers(rows), rng.integers(cols)] = rng.integers(1, f.p)
    elif kind == 2 and min(rows, cols) > 1:
        t = int(rng.integers(2, min(rows, cols) + 1))
        r = np.sort(rng.choice(rows, t, replace=False))
        c = np.sort(rng.choice(cols, t, replace=False))
        i, j = rng.integers(t, size=2)
        # the one value of entry (i, j) that makes the minor on r, c singular
        minor = entries[np.ix_(r, c)]
        for value in range(f.p):
            minor[i, j] = value
            if row_reduce(minor, f)[1] < t:
                break
        entries[r[i], c[j]] = value
    return entries


@pytest.fixture(scope="session")
def f5():
    return PrimeField(5)


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def code62(f5):
    return mds_code(f5, 6, 2)


@pytest.fixture(scope="session")
def adj60(code62):
    return bipartite_adjacency(code62)


@pytest.fixture(scope="session")
def phi60(code62):
    return state_from_code(code62)


@pytest.fixture(scope="session")
def phi62(f5, code62):
    return hierarchy_state_from_codes(code62, mds_code(f5, 2, 1))


@pytest.fixture(scope="session")
def phi63(f5, code62):
    return hierarchy_state_from_codes(code62, mds_code(f5, 3, 1))


@pytest.fixture(scope="session")
def adj62(f5):
    return hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (2, 1))))


@pytest.fixture(scope="session")
def adj63(f5):
    return hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (3, 1))))


@pytest.fixture(scope="session")
def code52(f5):
    return mds_code(f5, 5, 2)


@pytest.fixture(scope="session")
def phi50(code52):
    return state_from_code(code52)


@pytest.fixture(scope="session")
def phi52(f5, code52):
    return hierarchy_state_from_codes(code52, mds_code(f5, 2, 1))
