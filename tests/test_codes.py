from itertools import product

import numpy as np
import pytest

from kunigraph.codes import (
    ENUMERATION_GUARD,
    LinearCode,
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
    code = LinearCode.from_entries(f5, [[1, 1, 1, 1], [1, 2, 3, 4]])
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
    code = LinearCode.from_entries(f5, [[1]])
    words = enumerate_codewords(code)
    assert words.tolist() == [[a, a] for a in range(5)]


def test_repetition_triples(f5):
    code = LinearCode.from_entries(f5, [[1, 1]])
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
    assert code.encode([1, 2]).tolist() == [1, 2, 3, 0, 2, 4]
    with pytest.raises(ValueError):
        code.encode([1, 2, 3])


def test_enumeration_guard():
    f2 = PrimeField(2)
    code = LinearCode(MatrixGF.zeros(f2, 25, 1))
    assert code.message_count() > ENUMERATION_GUARD
    with pytest.raises(ResourceLimitError):
        enumerate_codewords(code)
    with pytest.raises(ResourceLimitError):
        min_distance(code)


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def test_min_distance_mds_62(f5):
    assert min_distance(mds_code(f5, 6, 2)) == 5  # n - k + 1


def test_min_distance_repetition(f5):
    assert min_distance(LinearCode.from_entries(f5, [[1, 1]])) == 3


def test_min_distance_full_dimension_code(f5):
    code = LinearCode(MatrixGF.zeros(f5, 2, 0))
    assert min_distance(code) == 1  # unit vectors are codewords


def test_min_distance_matches_brute_force():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(10):
            k = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            code = LinearCode(MatrixGF(f, rng.integers(0, p, size=(k, m))))
            assert min_distance(code) == brute_min_weight(code)


# ---------------------------------------------------------------------------
# dual codes
# ---------------------------------------------------------------------------

def test_dual_of_repetition_pair(f5):
    code = LinearCode.from_entries(f5, [[1]])
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
    code = LinearCode.from_entries(f2, [[1]])
    assert dual_code(code) == code


def test_dual_of_dual_returns_original(f5):
    code = mds_code(f5, 6, 2)
    assert dual_code(dual_code(code)) == code


def test_dual_of_full_dimension_code_rejected(f5):
    with pytest.raises(ValueError):
        dual_code(LinearCode(MatrixGF.zeros(f5, 2, 0)))


def test_dual_without_standard_form_is_rejected(f5):
    # -A^T singular, so [-A^T | I] cannot pivot on its leading block
    code = LinearCode.from_entries(f5, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
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
