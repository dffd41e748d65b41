from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kunigraph import matrix
from kunigraph.codes import mds_a_matrix
from kunigraph.field import PrimeField
from kunigraph.matrix import MatrixGF, row_reduce

PAPER_A = [[1, 1, 1, 1], [1, 2, 3, 4]]
A_3x3 = [[1, 1, 1], [1, 2, 3], [1, 3, 4]]


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
    """Exhaustive minor check through the expansion oracle."""
    rows, cols = len(entries), len(entries[0])
    for t in range(1, min(rows, cols) + 1):
        for rsel in combinations(range(rows), t):
            for csel in combinations(range(cols), t):
                minor = [[entries[r][c] for c in csel] for r in rsel]
                if perm_expansion_det(minor, p) == 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def rank(m: MatrixGF) -> int:
    """Rank over GF(p): row_reduce of a one-matrix stack, on a copy of the entries."""
    return int(row_reduce(np.array(m.entries)[None], m.field)[1][0])


def test_rank_identity(f5):
    assert rank(MatrixGF(f5, np.eye(3, dtype=np.int64))) == 3


def test_rank_zero_matrix(f5):
    assert rank(MatrixGF.zeros(f5, 2, 4)) == 0


def test_rank_of_two_independent_rows(f5):
    assert rank(MatrixGF(f5, PAPER_A)) == 2


def test_rank_detects_dependent_rows(f5):
    m = MatrixGF(f5, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])
    assert rank(m) == 2


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 7):
        f = PrimeField(p)
        for _ in range(20):
            shape = rng.integers(1, 5, size=2)
            m = MatrixGF(f, rng.integers(0, p, size=tuple(shape)))
            assert rank(m) == rank(MatrixGF(f, m.entries.T))


# ---------------------------------------------------------------------------
# the batched row reduction
# ---------------------------------------------------------------------------

def brute_rank(entries, p):
    """Largest order of a minor with nonzero expansion determinant (test-side oracle)."""
    rows, cols = len(entries), len(entries[0])
    for t in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), t):
            for csel in combinations(range(cols), t):
                minor = [[entries[r][c] for c in csel] for r in rsel]
                if perm_expansion_det(minor, p):
                    return t
    return 0


@st.composite
def stacks_with_dependent_rows(draw):
    """(p, stack): up to 4 matrices of at most 5 x 5, some rows combinations of others."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    count = draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(0, p - 1)
    stack = np.array(
        draw(st.lists(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows),
                      min_size=count, max_size=count)),
        dtype=np.int64,
    )
    for b in range(count):
        for r in range(1, rows):
            if draw(st.booleans()):
                coeffs = np.array(draw(st.lists(entry, min_size=r, max_size=r)))
                stack[b, r] = (coeffs @ stack[b, :r]) % p
    return p, stack


@given(stacks_with_dependent_rows())
def test_row_reduce_ranks_match_brute_force(case):
    p, stack = case
    expected = [brute_rank(m.tolist(), p) for m in stack]
    reduced, ranks = row_reduce(stack.copy(), PrimeField(p))
    assert ranks.tolist() == expected
    for m, rank in zip(reduced, ranks):
        assert not m[rank:].any()
        for i in range(rank):
            lead = int(np.flatnonzero(m[i])[0])
            assert m[i, lead] == 1
            assert np.count_nonzero(m[:, lead]) == 1


def test_rank_of_a_matrix_is_its_row_reduce_rank():
    # the stack reduced in lockstep gives each matrix's rank reduced alone
    rng = np.random.default_rng(5)
    f = PrimeField(7)
    stack = rng.integers(0, 7, size=(30, 3, 4))
    stack[:10, 2] = (stack[:10, 0] + 3 * stack[:10, 1]) % 7
    ranks = row_reduce(stack.copy(), f)[1]
    assert ranks.tolist() == [rank(MatrixGF(f, m)) for m in stack]


# ---------------------------------------------------------------------------
# the all-minors nonsingularity test
# ---------------------------------------------------------------------------

def test_paper_a_has_no_singular_minor(f5):
    assert MatrixGF(f5, PAPER_A).all_square_submatrices_nonsingular()


def test_repeated_rows_fail(f5):
    assert not MatrixGF(f5, [[1, 1], [1, 1]]).all_square_submatrices_nonsingular()


def test_three_by_three_singleton_block(f5):
    assert MatrixGF(f5, A_3x3).all_square_submatrices_nonsingular()


def test_zero_entry_fails_immediately(f5):
    assert not MatrixGF(f5, [[1, 0], [1, 1]]).all_square_submatrices_nonsingular()


def test_minor_check_matches_expansion_oracle():
    rng = np.random.default_rng(47)
    f = PrimeField(5)
    for _ in range(60):
        rows, cols = rng.integers(1, 4, size=2)
        entries = rng.integers(0, 5, size=(rows, cols)).tolist()
        assert MatrixGF(f, entries).all_square_submatrices_nonsingular() == \
            brute_minors_all_nonsingular(entries, 5)


def test_minor_check_is_the_same_in_small_chunks(monkeypatch):
    rng = np.random.default_rng(53)
    f = PrimeField(13)
    monkeypatch.setattr(matrix, "MINOR_CHUNK", 3)
    for _ in range(40):
        rows, cols = rng.integers(2, 5, size=2)
        entries = rng.integers(1, 13, size=(rows, cols)).tolist()
        assert MatrixGF(f, entries).all_square_submatrices_nonsingular() == \
            brute_minors_all_nonsingular(entries, 13)


def test_gf17_16_8_block_spans_several_chunks():
    f17 = PrimeField(17)
    a = mds_a_matrix(f17, 8, 8)
    assert comb(8, 4) ** 2 > matrix.MINOR_CHUNK
    assert a.all_square_submatrices_nonsingular()
    # plant a singular 2 x 2 minor on rows and columns 6, 7
    ent = a.entries.tolist()
    ent[7][7] = ent[6][7] * ent[7][6] * f17.inv(ent[6][6]) % 17
    assert perm_expansion_det([row[6:] for row in ent[6:]], 17) == 0
    assert not MatrixGF(f17, ent).all_square_submatrices_nonsingular()


# ---------------------------------------------------------------------------
# row combinations: nonsingular minors bound the zero count
# ---------------------------------------------------------------------------

def vanishing_bound_holds(m):
    """Any combination of t rows (nonzero coeffs) has at most t-1 zeros."""
    p = m.field.p
    for coeffs in product(range(p), repeat=m.rows):
        t = sum(1 for c in coeffs if c)
        if t == 0:
            continue
        v = (np.array(coeffs) @ m.entries) % p
        if int(np.count_nonzero(v == 0)) > t - 1:
            return False
    return True


def test_row_combination_zero_bound_for_mds_blocks():
    for p in (5, 7):
        f = PrimeField(p)
        for k in (1, 2, 3):
            for m in range(1, p + 2 - k):
                a = mds_a_matrix(f, k, m)
                assert vanishing_bound_holds(a), (p, k, m)


def test_zero_bound_fails_for_singular_block(f5):
    # two equal rows: coefficients (1, 4) cancel everywhere
    m = MatrixGF(f5, [[1, 2], [1, 2]])
    assert not vanishing_bound_holds(m)


# ---------------------------------------------------------------------------
# immutability and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "entries",
    [[[0, 1.7], [1.7, 0]], [[0.0, 1.0], [1.0, 0.0]], [[True, False]], np.array([[1]], dtype=object)],
)
def test_constructor_refuses_non_integer_entries(f5, entries):
    with pytest.raises(ValueError, match="must be integers"):
        MatrixGF(f5, entries)


def test_constructor_reduces_integers_and_keeps_empty_grids(f5):
    assert MatrixGF(f5, [[7, -1]]).entries.tolist() == [[2, 4]]
    assert MatrixGF(f5, np.array([[6, 255]], dtype=np.uint8)).entries.tolist() == [[1, 0]]
    assert MatrixGF(f5, np.zeros((2, 0))).shape == (2, 0)


def test_entries_are_read_only(f5):
    m = MatrixGF(f5, PAPER_A)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 3


def test_json_round_trip(f5):
    m = MatrixGF(f5, PAPER_A)
    payload = m.to_json()
    assert payload == {"p": 5, "rows": 2, "cols": 4, "entries": PAPER_A}
    assert MatrixGF.from_json(payload) == m


def test_json_rejects_mismatched_shape(f5):
    with pytest.raises(ValueError):
        MatrixGF.from_json({"p": 5, "rows": 4, "cols": 2, "entries": PAPER_A})


@pytest.mark.parametrize(
    "payload",
    [
        {"p": 5, "rows": 1, "cols": 2, "entries": [[1, 5]]},
        {"p": 5, "rows": 1, "cols": 2, "entries": [[1, 2.0]]},
        {"p": 5.0, "rows": 1, "cols": 2, "entries": [[1, 2]]},
        {"p": 5, "rows": 1, "cols": False, "entries": [[1, 2]]},
        {"p": 5, "rows": 1, "entries": [[1, 2]]},
        "entries",
    ],
)
def test_json_refuses_inexact_payloads(payload):
    with pytest.raises(ValueError):
        MatrixGF.from_json(payload)


def test_json_empty_columns_round_trip(f5):
    m = MatrixGF.zeros(f5, 2, 0)
    assert MatrixGF.from_json(m.to_json()) == m

