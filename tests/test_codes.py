from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kunigraph.codes import (
    ENUMERATION_GUARD,
    LinearCode,
    _information_set_generators,
    dual_code,
    enumerate_codewords,
    mds_a_matrix,
    mds_code,
    min_distance,
    singleton_array,
    singleton_gamma,
)
from kunigraph.errors import ResourceLimitError
from kunigraph.field import PrimeField
from kunigraph.matrix import MatrixGF

S5_GAMMA3 = [[1, 1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 4], [1, 4], [1]]


def brute_min_weight(code):
    """Minimum codeword weight by direct message enumeration (oracle)."""
    q = code.field.p
    gen = code.generator.entries
    best = code.n
    for msg in product(range(q), repeat=code.k):
        if not any(msg):
            continue
        word = (np.array(msg) @ gen) % q
        best = min(best, int(np.count_nonzero(word)))
    return best


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_code_shape_and_generator(f5):
    code = LinearCode(MatrixGF(f5, [[1, 1, 1, 1], [1, 2, 3, 4]]))
    assert (code.n, code.k) == (6, 2)
    assert code.generator.entries.tolist() == [
        [1, 0, 1, 1, 1, 1],
        [0, 1, 1, 2, 3, 4],
    ]


def test_code_requires_positive_dimension(f5):
    with pytest.raises(ValueError):
        LinearCode(MatrixGF.zeros(f5, 0, 3))


# ---------------------------------------------------------------------------
# codeword enumeration
# ---------------------------------------------------------------------------

def test_repetition_pairs(f5):
    code = LinearCode(MatrixGF(f5, [[1]]))
    words = enumerate_codewords(code)
    assert words.tolist() == [[a, a] for a in range(5)]


def test_repetition_triples(f5):
    code = LinearCode(MatrixGF(f5, [[1, 1]]))
    words = enumerate_codewords(code)
    assert words.tolist() == [[a, a, a] for a in range(5)]


def test_mds_62_codeword_formula(f5):
    code = mds_code(f5, 6, 2)
    words = enumerate_codewords(code)
    assert words.shape == (25, 6)
    expected = [
        [a, b, (a + b) % 5, (a + 2 * b) % 5, (a + 3 * b) % 5, (a + 4 * b) % 5]
        for a in range(5)
        for b in range(5)
    ]
    assert words.tolist() == expected  # lexicographic in the message (a, b)
    assert len({tuple(w) for w in words.tolist()}) == 25


def test_encode_single_message(f5):
    code = mds_code(f5, 6, 2)
    word = (np.array([1, 2]) @ code.generator.entries) % 5
    assert word.tolist() == [1, 2, 3, 0, 2, 4]
    assert enumerate_codewords(code)[1 * 5 + 2].tolist() == word.tolist()


def test_enumeration_guard():
    f2 = PrimeField(2)
    code = LinearCode(MatrixGF.zeros(f2, 25, 1))
    assert code.message_count() > ENUMERATION_GUARD
    with pytest.raises(ResourceLimitError):
        enumerate_codewords(code)
    with pytest.raises(ResourceLimitError):
        min_distance(code)


def test_enumeration_guard_refuses_huge_k_before_forming_q_to_the_k():
    # 5^7000 has more digits than Python will format, so the guard must not form it
    code = LinearCode(MatrixGF(PrimeField(5), np.ones((7000, 1), dtype=np.int64)))
    with pytest.raises(ResourceLimitError, match="exceeds enumeration guard"):
        min_distance(code)


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def test_min_distance_mds_62(f5):
    assert min_distance(mds_code(f5, 6, 2)) == 5  # n - k + 1


def test_min_distance_repetition(f5):
    assert min_distance(LinearCode(MatrixGF(f5, [[1, 1]]))) == 3


def test_min_distance_full_dimension_code(f5):
    code = LinearCode(MatrixGF.zeros(f5, 2, 0))
    assert min_distance(code) == 1  # unit vectors are codewords


def test_min_distance_matches_brute_force():
    rng = np.random.default_rng(5)
    for p, max_k in ((2, 6), (3, 5), (5, 4), (7, 3)):
        f = PrimeField(p)
        for _ in range(10):
            k = int(rng.integers(1, max_k + 1))
            m = int(rng.integers(0, 8))
            code = LinearCode(MatrixGF(f, rng.integers(0, p, size=(k, m))))
            assert min_distance(code) == brute_min_weight(code)


@st.composite
def planted_codes(draw):
    """Random codes whose A has planted zero columns, repeated columns and
    duplicated rows, so that fewer disjoint information sets exist."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 5))
    m = draw(st.integers(0, 8))
    entries = st.integers(0, p - 1)
    a = np.array(
        draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k)),
        dtype=np.int64,
    ).reshape(k, m)
    if m:
        columns = st.integers(0, m - 1)
        for col in draw(st.lists(columns, max_size=2)):
            a[:, col] = 0
        for src, dst in draw(st.lists(st.tuples(columns, columns), max_size=2)):
            a[:, dst] = a[:, src]
    rows = st.integers(0, k - 1)
    for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=2)):
        a[dst] = a[src]
    return LinearCode(MatrixGF(PrimeField(p), a))


@given(planted_codes())
def test_min_distance_matches_brute_force_on_planted_codes(code):
    assert min_distance(code) == brute_min_weight(code)


def test_min_distance_needs_the_level_at_the_stopping_bound():
    # Two disjoint information sets, and every level-1 word weighs 5 or more.
    # After level 1 an unseen word is only known to weigh >= 2 * (1 + 1) = 4,
    # so the search must go on; one that stopped a level early, at
    # best <= 2 * (1 + 2), would report 5. The weight-4 words appear at level 2.
    code = LinearCode(
        MatrixGF(PrimeField(3), [[1, 2, 0, 1, 2], [2, 0, 2, 2, 1], [1, 2, 1, 0, 1]])
    )
    gens = _information_set_generators(code)
    assert len(gens) == 2
    assert np.count_nonzero(gens, axis=2).min() == 5
    assert brute_min_weight(code) == 4
    assert min_distance(code) == 4


def test_information_sets_are_greedy_disjoint_and_systematic():
    # G's columns 4 and 8 are zero and 5, 6 equal column 2, so after {0, 1}
    # the greedy sets are {2, 3} and {5, 7}; what is left, {4, 6, 8}, has rank 1
    code = LinearCode(MatrixGF(PrimeField(5), [[1, 1, 0, 1, 1, 2, 0], [1, 2, 0, 1, 1, 3, 0]]))
    gens = _information_set_generators(code)
    assert len(gens) == 3
    for gen, cols in zip(gens, ([0, 1], [2, 3], [5, 7])):
        assert np.array_equal(gen[:, cols], np.eye(code.k, dtype=np.int64))
        # the same code: each generator is its own first k columns times [I | A]
        assert np.array_equal(gen[:, : code.k] @ code.generator.entries % 5, gen)


# ---------------------------------------------------------------------------
# dual codes
# ---------------------------------------------------------------------------

def test_dual_of_repetition_pair(f5):
    code = LinearCode(MatrixGF(f5, [[1]]))
    dual = dual_code(code)
    assert (dual.n, dual.k) == (2, 1)
    # standard form of the row [-1, 1] = [4, 1], rescaled by 4
    assert dual.generator.entries.tolist() == [[1, 4]]
    g, h = code.generator.entries, dual.generator.entries
    assert np.all((g @ h.T) % 5 == 0)


def test_dual_of_mds_62_is_orthogonal_everywhere(f5):
    code = mds_code(f5, 6, 2)
    dual = dual_code(code)
    assert (dual.n, dual.k) == (6, 4)
    prod = (dual.generator.entries @ code.generator.entries.T) % 5
    assert np.all(prod == 0)
    # exhaustive: every dual codeword is orthogonal to every codeword
    words = enumerate_codewords(code)
    dwords = enumerate_codewords(dual)
    assert np.all((dwords @ words.T) % 5 == 0)


def test_gf2_repetition_pair_is_self_dual():
    f2 = PrimeField(2)
    code = LinearCode(MatrixGF(f2, [[1]]))
    assert dual_code(code) == code


def test_dual_of_dual_returns_original(f5):
    code = mds_code(f5, 6, 2)
    assert dual_code(dual_code(code)) == code


def test_dual_of_full_dimension_code_rejected(f5):
    with pytest.raises(ValueError):
        dual_code(LinearCode(MatrixGF.zeros(f5, 2, 0)))


def test_dual_without_standard_form_is_rejected(f5):
    # -A^T singular, so [-A^T | I] cannot pivot on its leading block
    code = LinearCode(MatrixGF(f5, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="standard form without a column permutation"):
        dual_code(code)


# ---------------------------------------------------------------------------
# Singleton arrays
# ---------------------------------------------------------------------------

def test_singleton_array_gf5_gamma3(f5):
    assert singleton_array(f5, 3) == S5_GAMMA3


def test_singleton_interior_values_gf5(f5):
    # a_i = 1/(1 - 3^i): 1/3 = 2, 1/2 = 3, 1/4 = 4
    arr = singleton_array(f5, 3)
    assert arr[1][1:] == [2, 3, 4]


def test_singleton_array_gf2():
    f2 = PrimeField(2)
    assert singleton_array(f2, 1) == [[1, 1], [1]]


def test_singleton_array_rejects_non_primitive(f5):
    with pytest.raises(ValueError):
        singleton_array(f5, 4)  # order 2
    with pytest.raises(ValueError):
        singleton_array(f5, 0)


def test_singleton_gamma_choices():
    assert singleton_gamma(PrimeField(5)) == 3
    assert singleton_gamma(PrimeField(7)) == 3
    assert singleton_gamma(PrimeField(3)) == 2
    assert singleton_gamma(PrimeField(2)) == 1


def test_gf7_rectangles_from_gamma3_are_all_mds():
    f7 = PrimeField(7)
    arr = singleton_array(f7, 3)
    assert len(arr) == 7 and [len(r) for r in arr] == [7, 6, 5, 4, 3, 2, 1]
    for k in range(1, 4):
        for m in range(1, 8 - k + 1):
            if k + m > 8:
                continue
            a = MatrixGF(f7, [arr[i][:m] for i in range(k)])
            assert a.all_square_submatrices_nonsingular(), (k, m)


# ---------------------------------------------------------------------------
# MDS block construction
# ---------------------------------------------------------------------------

def test_mds_block_3x3(f5):
    assert mds_a_matrix(f5, 3, 3).entries.tolist() == [[1, 1, 1], [1, 2, 3], [1, 3, 4]]


def test_mds_block_2x4(f5):
    assert mds_a_matrix(f5, 2, 4).entries.tolist() == [[1, 1, 1, 1], [1, 2, 3, 4]]


def test_mds_block_single_row_gf3():
    assert mds_a_matrix(PrimeField(3), 1, 3).entries.tolist() == [[1, 1, 1]]


def test_mds_block_shape_must_fit(f5):
    with pytest.raises(ValueError):
        mds_a_matrix(f5, 3, 4)  # k + m = 7 > q + 1
    with pytest.raises(ValueError):
        mds_a_matrix(f5, 0, 2)


def test_mds_block_explicit_gamma(f5):
    a = mds_a_matrix(f5, 2, 4, gamma=2)
    assert a.entries.tolist() == [[1, 1, 1, 1], [1, 4, 3, 2]]
    assert a.all_square_submatrices_nonsingular()


def test_every_mds_code_meets_singleton_with_equality():
    for p in (2, 3, 5, 7):
        f = PrimeField(p)
        for n in range(2, min(p + 1, 7) + 1):
            for k in range(1, n // 2 + 1):
                code = mds_code(f, n, k)
                assert min_distance(code) == n - k + 1, (p, n, k)
                assert min_distance(dual_code(code)) == k + 1, (p, n, k)


def test_mds_property_equivalent_to_nonsingular_minors():
    rng = np.random.default_rng(17)
    f = PrimeField(5)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        a = MatrixGF(f, rng.integers(0, 5, size=(k, m)))
        code = LinearCode(a)
        is_mds = min_distance(code) == code.n - code.k + 1
        assert a.all_square_submatrices_nonsingular() == is_mds


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_code_json_round_trip(f5):
    code = mds_code(f5, 6, 2)
    payload = code.to_json()
    assert payload == {"p": 5, "n": 6, "k": 2, "A": [[1, 1, 1, 1], [1, 2, 3, 4]]}
    assert LinearCode.from_json(payload) == code
    payload["n"] = 7
    with pytest.raises(ValueError):
        LinearCode.from_json(payload)
    for bad in ({"k": "2"}, {"A": [[1, 1, 1, 1], [1, 2, 3, 9]]}, {"p": None}):
        with pytest.raises(ValueError):
            LinearCode.from_json({**code.to_json(), **bad})
