import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from conftest import brute_minors_all_nonsingular, mds_block_variant, perm_expansion_det
from hypothesis import given, strategies as st

from kunigraph import codes, matrix
from kunigraph.codes import LinearCode, mds_a_matrix, min_distance
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency
from kunigraph.matrix import MatrixGF, row_reduce

PAPER_A = [[1, 1, 1, 1], [1, 2, 3, 4]]
A_3x3 = [[1, 1, 1], [1, 2, 3], [1, 3, 4]]


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def rank(m: MatrixGF) -> int:
    """Rank over GF(p) by row_reduce, which leaves the read-only entries as they are."""
    return row_reduce(m.entries, m.field)[1]


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
# the row reduction
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
def matrices_with_dependent_rows(draw):
    """(p, matrix): at most 5 x 5, some rows combinations of others."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(0, p - 1)
    matrix = np.array(
        draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
        dtype=np.int64,
    )
    for r in range(1, rows):
        if draw(st.booleans()):
            coeffs = np.array(draw(st.lists(entry, min_size=r, max_size=r)))
            matrix[r] = (coeffs @ matrix[:r]) % p
    return p, matrix


@given(matrices_with_dependent_rows())
def test_row_reduce_ranks_match_brute_force(case):
    p, m = case
    given_entries = m.copy()
    reduced, rank = row_reduce(m, PrimeField(p))
    assert rank == brute_rank(m.tolist(), p)
    assert np.array_equal(m, given_entries)
    assert not reduced[rank:].any()
    for i in range(rank):
        lead = int(np.flatnonzero(reduced[i])[0])
        assert reduced[i, lead] == 1
        assert np.count_nonzero(reduced[:, lead]) == 1


def test_eliminations_invert_only_nonzero_pivots(monkeypatch):
    # row_reduce inverts each pivot alone, by pow, in the distance search's
    # information sets too
    scalars = []
    monkeypatch.setattr(matrix, "pow", lambda x, e, p: scalars.append(x) or pow(x, e, p), raising=False)
    f = PrimeField(13)
    m = np.random.default_rng(7).integers(0, 13, size=(4, 7))
    m[3] = (2 * m[0] + m[1]) % 13
    assert row_reduce(m, f)[1] == 3
    assert row_reduce(np.zeros((4, 7), dtype=np.int64), f)[1] == 0
    assert len(scalars) == 3 and all(scalars)
    assert is_mds(f, mds_a_matrix(f, 5, 6).entries)
    assert len(scalars) > 3 and all(scalars)


# ---------------------------------------------------------------------------
# the MDS rule: [I | A] is MDS iff min_distance == m + 1, the Singleton bound,
# iff every square submatrix of A is nonsingular
# ---------------------------------------------------------------------------

def is_mds(f, entries):
    """The structural route's MDS verdict on [I | A]: d reaches n - k + 1 = m + 1."""
    a = MatrixGF(f, entries)
    return min_distance(LinearCode(a)) == a.cols + 1


def test_paper_a_has_no_singular_minor(f5):
    assert is_mds(f5, PAPER_A) and brute_minors_all_nonsingular(PAPER_A, 5)


def test_repeated_rows_fail(f5):
    assert not is_mds(f5, [[1, 1], [1, 1]])


def test_three_by_three_singleton_block(f5):
    assert is_mds(f5, A_3x3) and brute_minors_all_nonsingular(A_3x3, 5)


def test_zero_entry_fails_immediately(f5):
    # the zero leaves a generator row of weight 3 < m + 1: the first level of
    # the distance search meets it
    assert not is_mds(f5, [[1, 0], [1, 1]])


def test_minor_check_matches_expansion_oracle():
    rng = np.random.default_rng(47)
    for p in (2, 3, 5, 7, 13):
        f = PrimeField(p)
        for _ in range(60):
            rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
            if rows + cols <= p + 1 and rng.random() < 0.5:
                entries = mds_block_variant(f, rows, cols, rng)
            else:
                entries = rng.integers(rng.integers(0, 2), p, size=(rows, cols))
            assert is_mds(f, entries) == brute_minors_all_nonsingular(entries.tolist(), p), \
                (p, entries.tolist())


def test_minor_check_is_the_same_in_small_chunks(monkeypatch):
    # the distance search encodes its messages in batches of ENCODE_CHUNK entries
    rng = np.random.default_rng(53)
    f = PrimeField(13)
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(2, 6, size=2))
        if rng.random() < 0.75:
            entries = mds_block_variant(f, rows, cols, rng)
        else:
            entries = rng.integers(1, 13, size=(rows, cols))
        expected = brute_minors_all_nonsingular(entries.tolist(), 13)
        for chunk in (1, 2, 3):
            monkeypatch.setattr(codes, "ENCODE_CHUNK", chunk)
            assert is_mds(f, entries) == expected, (chunk, entries.tolist())


def test_gf17_5x5_block_with_a_planted_singular_minor_of_every_size():
    f17 = PrimeField(17)
    a = mds_a_matrix(f17, 5, 5)
    assert is_mds(f17, a.entries)
    # plant a singular t x t minor on the first and on the last t rows and columns
    for t in range(1, 6):
        for first in (0, 5 - t):
            span = slice(first, first + t)
            # the one value of the minor's last entry that makes it singular
            minor = np.array(a.entries[span, span])
            singular = []
            for value in range(17):
                minor[-1, -1] = value
                if row_reduce(minor, f17)[1] < t:
                    singular.append(value)
            assert len(singular) == 1
            ent = np.array(a.entries)
            ent[first + t - 1, first + t - 1] = singular[0]
            assert not brute_minors_all_nonsingular(ent.tolist(), 17), (t, first)
            assert not is_mds(f17, ent), (t, first)


def test_minor_check_memory_is_bounded_by_the_chunk(monkeypatch):
    # the distance search holds one batch of at most ENCODE_CHUNK encoded
    # entries, not every message of a level at once
    f17 = PrimeField(17)
    a = mds_a_matrix(f17, 5, 13)
    monkeypatch.setattr(codes, "ENCODE_CHUNK", 1 << 10)
    tracemalloc.start()
    try:
        assert is_mds(f17, a.entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak


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


@pytest.mark.parametrize(
    "entries", [[[True, 2]], [[0, 1], [np.True_, 3]], ((1, False),), [np.array([True]), np.array([2])]]
)
def test_constructor_refuses_booleans_among_integers(f5, entries):
    # numpy promotes these to int64: [[True, 2]] would read as [[1, 2]]
    with pytest.raises(ValueError, match="must be integers, got a boolean entry"):
        MatrixGF(f5, entries)
    assert MatrixGF(f5, [[np.int64(1), 2]]).entries.tolist() == [[1, 2]]


def test_constructor_reduces_integers_and_keeps_empty_grids(f5):
    assert MatrixGF(f5, [[7, -1]]).entries.tolist() == [[2, 4]]
    assert MatrixGF(f5, np.array([[6, 255]], dtype=np.uint8)).entries.tolist() == [[1, 0]]
    assert MatrixGF(f5, np.zeros((2, 0))).shape == (2, 0)


def test_entries_are_read_only(f5):
    m = MatrixGF(f5, PAPER_A)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 3


# code and adjacency files share one exact reader, json_field_and_grid; this
# payload is a valid file of both kinds
BOTH = {"p": 5, "n": 2, "k": 1, "A": [[1]], "gamma": [[0, 1], [1, 0]]}
READERS = (LinearCode.from_json, Adjacency.from_json)


def test_json_rejects_mismatched_shape():
    assert [read(BOTH).n for read in READERS] == [2, 2]
    for read in READERS:
        with pytest.raises(ValueError):
            read({**BOTH, "n": 3})
    with pytest.raises(ValueError):
        LinearCode.from_json({**BOTH, "k": 2})


@pytest.mark.parametrize(
    "payload",
    [
        {**BOTH, "A": [[5]], "gamma": [[0, 5], [5, 0]]},
        {**BOTH, "A": [[1.0]], "gamma": [[0, 1.0], [1.0, 0]]},
        {**BOTH, "p": 5.0},
        {**BOTH, "n": False},
        {key: value for key, value in BOTH.items() if key != "n"},
        "entries",
    ],
)
def test_json_refuses_inexact_payloads(payload):
    for read in READERS:
        with pytest.raises(ValueError):
            read(payload)


def test_json_empty_columns_round_trip(f5):
    code = LinearCode(MatrixGF.zeros(f5, 2, 0))
    assert LinearCode.from_json(code.to_json()) == code

