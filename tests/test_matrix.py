from itertools import combinations, permutations, product

import numpy as np
import pytest

from kunigraph.field import PrimeField
from kunigraph.matrix import MatrixGF, combine_rows

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

def test_rank_identity(f5):
    assert MatrixGF.identity(f5, 3).rank() == 3


def test_rank_zero_matrix(f5):
    assert MatrixGF.zeros(f5, 2, 4).rank() == 0


def test_rank_of_two_independent_rows(f5):
    assert MatrixGF(f5, PAPER_A).rank() == 2


def test_rank_detects_dependent_rows(f5):
    m = MatrixGF(f5, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])
    assert m.rank() == 2


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 7):
        f = PrimeField(p)
        for _ in range(20):
            shape = rng.integers(1, 5, size=2)
            m = MatrixGF(f, rng.integers(0, p, size=tuple(shape)))
            assert m.rank() == m.transpose().rank()


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

def test_det_requires_square(f5):
    with pytest.raises(ValueError):
        MatrixGF(f5, PAPER_A).det()


def test_det_small_cases(f5):
    assert MatrixGF(f5, [[1, 1], [1, 2]]).det() == 1
    assert MatrixGF(f5, [[1, 1], [1, 1]]).det() == 0
    assert MatrixGF.identity(f5, 4).det() == 1


def test_det_matches_permutation_expansion():
    rng = np.random.default_rng(23)
    for p in (3, 5, 7):
        f = PrimeField(p)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                entries = rng.integers(0, p, size=(n, n)).tolist()
                assert MatrixGF(f, entries).det() == perm_expansion_det(entries, p)


def test_inverse_round_trip(f5):
    rng = np.random.default_rng(31)
    eye = MatrixGF.identity(f5, 3)
    found = 0
    while found < 10:
        m = MatrixGF(f5, rng.integers(0, 5, size=(3, 3)))
        if m.det() == 0:
            continue
        found += 1
        assert m @ m.inverse() == eye
        assert m.inverse() @ m == eye


def test_inverse_of_singular_raises(f5):
    with pytest.raises(ValueError):
        MatrixGF(f5, [[1, 1], [1, 1]]).inverse()


# ---------------------------------------------------------------------------
# submatrix extraction
# ---------------------------------------------------------------------------

def test_single_entry_submatrix(f5):
    m = MatrixGF(f5, PAPER_A)
    assert m.submatrix([0], [0]).entries.tolist() == [[1]]
    assert m.submatrix([1], [3]).entries.tolist() == [[4]]


def test_block_submatrix_of_singleton_rectangle(f5):
    s = MatrixGF(f5, [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 4, 0]])
    assert s.submatrix([0, 1, 2], [0, 1, 2]).entries.tolist() == A_3x3


def test_submatrix_preserves_requested_order(f5):
    m = MatrixGF(f5, PAPER_A)
    assert m.submatrix([1, 0], [3, 0]).entries.tolist() == [[4, 1], [1, 1]]


def test_submatrix_rejects_bad_selections(f5):
    m = MatrixGF(f5, PAPER_A)
    with pytest.raises(ValueError):
        m.submatrix([], [])
    with pytest.raises(ValueError):
        m.submatrix([0, 0], [1])
    with pytest.raises(IndexError):
        m.submatrix([0], [9])
    with pytest.raises(IndexError):
        m.submatrix([5], [0])


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
        v = combine_rows(m, coeffs)
        if int(np.count_nonzero(v == 0)) > t - 1:
            return False
    return True


def test_row_combination_zero_bound_for_mds_blocks():
    from kunigraph.codes import mds_a_matrix

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
# arithmetic and serialization
# ---------------------------------------------------------------------------

def test_matmul_and_addition(f5):
    a = MatrixGF(f5, [[1, 2], [3, 4]])
    b = MatrixGF(f5, [[0, 1], [1, 0]])
    assert (a @ b).entries.tolist() == [[2, 1], [4, 3]]
    assert (a + b).entries.tolist() == [[1, 3], [4, 4]]
    assert (-a).entries.tolist() == [[4, 3], [2, 1]]


def test_cross_field_operations_rejected(f5):
    a = MatrixGF(f5, [[1]])
    b = MatrixGF(PrimeField(7), [[1]])
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b


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


def test_combine_rows_length_check(f5):
    with pytest.raises(ValueError):
        combine_rows(MatrixGF(f5, PAPER_A), [1, 2, 3])
