import tracemalloc
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kunigraph import matrix
from kunigraph.codes import LinearCode, mds_a_matrix
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency
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


def test_eliminations_invert_only_nonzero_pivots(monkeypatch):
    # row_reduce divides once, at the end; the MDS test once per batch of minors
    seen = []
    inverses = matrix._inverses
    monkeypatch.setattr(matrix, "_inverses", lambda values, p: seen.append(values) or inverses(values, p))
    f = PrimeField(13)
    stack = np.random.default_rng(7).integers(0, 13, size=(6, 4, 7))
    stack[:, 3] = (2 * stack[:, 0] + stack[:, 1]) % 13
    stack[0] = 0
    row_reduce(stack, f)
    assert len(seen) == 1 and seen[0].shape == (6, 4)
    assert MatrixGF(f, mds_a_matrix(f, 5, 6).entries).all_square_submatrices_nonsingular()
    assert len(seen) > 1 and all(values.all() for values in seen)


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
        variants = np.repeat(entries[np.ix_(r, c)][None], f.p, axis=0)
        variants[:, i, j] = np.arange(f.p)
        entries[r[i], c[j]] = np.flatnonzero(row_reduce(variants, f)[1] < t)[0]
    return entries


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
            assert MatrixGF(f, entries).all_square_submatrices_nonsingular() == \
                brute_minors_all_nonsingular(entries.tolist(), p), (p, entries.tolist())


def test_minor_check_is_the_same_in_small_chunks(monkeypatch):
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
            monkeypatch.setattr(matrix, "MINOR_CHUNK", chunk)
            assert MatrixGF(f, entries).all_square_submatrices_nonsingular() == expected, \
                (chunk, entries.tolist())


def test_gf17_16_8_block_spans_several_chunks(monkeypatch):
    f17 = PrimeField(17)
    a = mds_a_matrix(f17, 8, 8)
    # the 3 x 3 and 4 x 4 minors with rows and columns left below them number
    # comb(7, 3) ** 2 each, so their complements are formed in several steps
    monkeypatch.setattr(matrix, "MINOR_CHUNK", 256)
    assert comb(7, 3) ** 2 > matrix.MINOR_CHUNK
    assert MatrixGF(f17, a.entries).all_square_submatrices_nonsingular()
    # plant a singular t x t minor on the first and on the last t rows and columns
    for t in range(2, 9):
        for first in (0, 8 - t):
            span = slice(first, first + t)
            # the one value of the minor's last entry that makes it singular
            variants = np.repeat(a.entries[None, span, span], 17, axis=0)
            variants[:, -1, -1] = np.arange(17)
            singular = np.flatnonzero(row_reduce(variants, f17)[1] < t)
            assert singular.size == 1
            ent = np.array(a.entries)
            ent[first + t - 1, first + t - 1] = singular[0]
            assert not MatrixGF(f17, ent).all_square_submatrices_nonsingular(), (t, first)


def test_minor_check_memory_is_bounded_by_the_chunk(monkeypatch):
    # the complements live in depth-first batches of at most MINOR_CHUNK,
    # not one batch for every minor of a size
    f17 = PrimeField(17)
    a = mds_a_matrix(f17, 8, 8)
    monkeypatch.setattr(matrix, "MINOR_CHUNK", 16)
    block = MatrixGF(f17, a.entries)
    tracemalloc.start()
    try:
        assert block.all_square_submatrices_nonsingular()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak


def test_minor_check_verdict_is_computed_once(monkeypatch, f5):
    computed = []
    compute = MatrixGF._minors_nonsingular
    monkeypatch.setattr(
        MatrixGF, "_minors_nonsingular", lambda self: computed.append(1) or compute(self)
    )
    good, bad = MatrixGF(f5, PAPER_A), MatrixGF(f5, [[1, 1], [1, 1]])
    assert [good.all_square_submatrices_nonsingular() for _ in range(3)] == [True] * 3
    assert [bad.all_square_submatrices_nonsingular() for _ in range(3)] == [False] * 3
    assert len(computed) == 2


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

