import tracemalloc
from functools import cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kunigraph import codes
from kunigraph.codes import (
    ENUMERATION_GUARD,
    LinearCode,
    _information_sets,
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
from kunigraph.matrix import MatrixGF, row_reduce

S5_GAMMA3 = [[1, 1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 4], [1, 4], [1]]


@cache
def nonzero_messages(q, k):
    return np.array(list(product(range(q), repeat=k)))[1:]


def brute_min_weight(code):
    """Minimum codeword weight by direct message enumeration (oracle)."""
    q = code.field.p
    words = nonzero_messages(q, code.k) @ code.generator.entries % q
    return int(np.count_nonzero(words, axis=1).min())


def all_sets(code):
    """Every set _information_sets forms when run to the end: the stacked generators and ranks."""
    gens, ranks = zip(*_information_sets(code))
    return np.stack(gens), np.array(ranks)


def encoding_passes(monkeypatch, code):
    """min_distance(code), and (generators, level) for each level it encoded."""
    passes = []
    lightest = codes._lightest

    def counted(gens, t, q):
        passes.append((len(gens), t))
        return lightest(gens, t, q)

    with monkeypatch.context() as patch:
        patch.setattr(codes, "_lightest", counted)
        d = min_distance(code)
    return d, passes


def messages_encoded(code, passes):
    """Messages of support t with first nonzero entry 1, times the generators, summed."""
    q, k = code.field.p, code.k
    return sum(sets * comb(k, t) * (q - 1) ** (t - 1) for sets, t in passes)


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
    assert 2**code.k > ENUMERATION_GUARD
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


def test_min_distance_needs_the_level_at_the_stopping_bound(monkeypatch):
    # Two information sets and a set of rank 2, and every level-1 word of the
    # information sets weighs 5 or more. After level 1 an unseen word is only
    # known to weigh >= 2 * (1 + 1) = 4 on them, so the search must go on; one
    # that stopped a level early, at best <= 2 * (1 + 2), would report 5. The
    # rank-2 set adds max(0, 2 - (3 - 2)) = 1, which reaches 5: the search
    # catches that set up on level 1, where a row of its generator weighs 4.
    code = LinearCode(
        MatrixGF(PrimeField(3), [[1, 2, 0, 1, 2], [2, 0, 2, 2, 1], [1, 2, 1, 0, 1]])
    )
    gens, ranks = all_sets(code)
    assert ranks.tolist() == [3, 3, 2]
    assert np.count_nonzero(gens[:2], axis=2).min() == 5
    assert np.count_nonzero(gens[2], axis=1).min() == 4
    assert brute_min_weight(code) == 4
    assert encoding_passes(monkeypatch, code) == (4, [(2, 1), (1, 1)])


def test_information_sets_are_greedy_disjoint_and_systematic():
    # G's columns 4 and 8 are zero and 5, 6 equal column 2, so after {0, 1}
    # the greedy sets are {2, 3} and {5, 7}; what is left, {4, 6, 8}, has rank 1
    # and gives the set {6}, with the generator systematic on {6} plus column 0
    code = LinearCode(MatrixGF(PrimeField(5), [[1, 1, 0, 1, 1, 2, 0], [1, 2, 0, 1, 1, 3, 0]]))
    gens, ranks = all_sets(code)
    assert len(gens) == 4
    assert ranks.tolist() == [2, 2, 2, 1]
    for gen, cols in zip(gens, ([0, 1], [2, 3], [5, 7], [6, 0])):
        assert np.array_equal(gen[:, cols], np.eye(code.k, dtype=np.int64))
        # the same code: each generator is its own first k columns times [I | A]
        assert np.array_equal(gen[:, : code.k] @ code.generator.entries % 5, gen)
        assert row_reduce(gen, code.field)[1] == code.k


def test_partial_sets_are_disjoint_and_systematic():
    # GF(3), n = 7, k = 4: after the identity block the free columns 4, 5, 6
    # have rank 2 and give the set {4, 5}; column 6 then gives {6}
    code = LinearCode(MatrixGF(PrimeField(3), [[0, 1, 2], [0, 2, 1], [2, 0, 2], [2, 2, 0]]))
    gens, ranks = all_sets(code)
    assert ranks.tolist() == [4, 2, 1]
    # each set R_j comes first, then k - r_j columns of earlier sets
    for gen, cols in zip(gens, ([0, 1, 2, 3], [4, 5, 0, 1], [6, 0, 1, 3])):
        assert np.array_equal(gen[:, cols], np.eye(code.k, dtype=np.int64))
        assert np.array_equal(gen[:, : code.k] @ code.generator.entries % 3, gen)


def test_a_partial_set_is_not_credited_as_a_full_one(monkeypatch):
    # Rows 1 and 2 of A sum to zero mod 3, so (1, 1, 0, 0) encodes a word of
    # weight 2, met at level 2. Every row of G weighs 3 and the sets have ranks
    # 4, 2, 1. After level 1 a set of rank 2 adds max(0, 2 - (4 - 2)) = 0, so
    # the search must go on; crediting it with t + 1 = 2 would reach 1 * 2 + 2
    # = 4 >= 3, catch it up on level 1, where no word weighs 2, and report 3.
    code = LinearCode(MatrixGF(PrimeField(3), [[0, 1, 2], [0, 2, 1], [2, 0, 2], [2, 2, 0]]))
    assert all_sets(code)[1].tolist() == [4, 2, 1]
    assert brute_min_weight(code) == 2
    assert encoding_passes(monkeypatch, code) == (2, [(1, 1), (1, 2)])


def test_rank_deficient_set_ends_the_gf13_11_6_dual_at_level_3(monkeypatch):
    # the [11, 6] dual of the GF(13) [11, 5] MDS code has one information set;
    # its five spare columns have rank 5 and add max(0, t + 1 - 1), so
    # LB(t) = 2t + 1 reaches d = 6 at t = 3, not t = 5
    dual = dual_code(mds_code(PrimeField(13), 11, 5))
    assert (dual.n, dual.k) == (11, 6)
    assert all_sets(dual)[1].tolist() == [6, 5]
    # levels 1-3 on the information set, then levels 1-3 on the rank-5 set
    d, passes = encoding_passes(monkeypatch, dual)
    assert (d, passes) == (6, [(1, 1), (1, 2), (1, 3)] * 2)
    assert messages_encoded(dual, passes) == 2 * 3066
    alone = [(1, t) for t in range(1, 6)]  # the information set alone runs to level 5
    assert messages_encoded(dual, alone) == 153402


def test_min_distance_forms_no_set_that_cannot_reach_the_best_weight(monkeypatch):
    # GF(13) [11, 5] has two information sets and one spare column. Every word
    # weighs d = 7, and level 1 meets one; a set of rank 1 adds max(0, t - 3) to
    # LB(t), while 2(t + 1) reaches 7 at t = 3, so min_distance never forms it.
    # Its [11, 6] dual needs its rank-5 set (the GF(13) test above), and forms it.
    # Each search thus runs one row reduction
    code = mds_code(PrimeField(13), 11, 5)
    assert all_sets(code)[1].tolist() == [5, 5, 1]
    for c, d in ((code, 7), (dual_code(code), 6)):
        formed = []
        reduce = codes.row_reduce
        with monkeypatch.context() as patch:
            patch.setattr(codes, "row_reduce", lambda *a: formed.append(1) or reduce(*a))
            assert min_distance(c) == d
        assert len(formed) == 1


# (p, n, k) of every code the perfbench corpora verify by the structural route
CORPUS_SHAPES = [
    (11, 12, 6), (13, 11, 5), (17, 10, 5), (11, 8, 4), (13, 8, 4), (17, 8, 4),
    (11, 9, 4), (17, 7, 3), (13, 9, 4), (11, 10, 5), (13, 10, 5), (17, 8, 3),
    (7, 7, 3), (7, 6, 3), (13, 5, 2), (11, 5, 2), (5, 6, 2), (5, 6, 3), (7, 5, 2),
    (5, 4, 2), (3, 4, 2), (5, 4, 1), (2, 2, 1), (11, 8, 4), (17, 7, 3),
]


def test_min_distance_never_encodes_more_than_the_information_sets_alone(monkeypatch):
    # For an MDS code every row of a systematic generator weighs d, so a search
    # on its m information sets alone stops at the first t with d <= m(t + 1)
    for p, n, k in CORPUS_SHAPES:
        code = mds_code(PrimeField(p), n, k)
        for c in (code, dual_code(code)):
            d = c.n - c.k + 1
            m = int(np.count_nonzero(all_sets(c)[1] == c.k))
            last = next(t for t in range(1, c.k + 1) if d <= m * (t + 1) or t == c.k)
            got, passes = encoding_passes(monkeypatch, c)
            assert got == d, (p, c.n, c.k)
            alone = [(m, t) for t in range(1, last + 1)]
            assert messages_encoded(c, passes) <= messages_encoded(c, alone)


def planted_partial_set(rng, p, k, r, second_set):
    """A code with k x c columns U V of rank r among its spare columns.

    U (k x r) and V (r x c) each hold an identity block in shuffled rows or
    columns, so U V has rank exactly r. A is an optional random k x k block,
    then U V, a zero column and a repeat of one U V column.
    """
    u = np.vstack([np.eye(r, dtype=np.int64), rng.integers(0, p, size=(k - r, r))])
    c = r + int(rng.integers(0, 3))
    v = np.hstack([np.eye(r, dtype=np.int64), rng.integers(0, p, size=(r, c - r))])
    low = u[rng.permutation(k)] @ v[:, rng.permutation(c)] % p
    blocks = [rng.integers(0, p, size=(k, k))] if second_set else []
    blocks += [low, np.zeros((k, 1), dtype=np.int64), low[:, rng.integers(0, c, size=1)]]
    return LinearCode(MatrixGF(PrimeField(p), np.hstack(blocks)))


def information_sets_alone(code, gens, ranks):
    """The passes of a search on the information sets only, by brute force."""
    q, k = code.field.p, code.k
    full = gens[ranks == k]
    messages = nonzero_messages(q, k)
    support = np.count_nonzero(messages, axis=1)
    best = code.n
    for t in range(1, k + 1):
        words = messages[support == t] @ full % q
        best = min(best, int(np.count_nonzero(words, axis=2).min()))
        if best <= len(full) * (t + 1):
            break
    return [(len(full), level) for level in range(1, t + 1)]


def test_min_distance_matches_brute_force_with_partial_sets_of_every_rank(monkeypatch):
    rng = np.random.default_rng(23)
    caught_up = 0
    for p in (2, 3, 5, 7):
        k = 2
        while p**k <= 2 * 10**4:
            for r in range(1, k):
                for second_set in (False, True):
                    code = planted_partial_set(rng, p, k, r, second_set)
                    gens, ranks = all_sets(code)
                    if not second_set:
                        assert ranks[1] == r, (p, k, r)
                    d, passes = encoding_passes(monkeypatch, code)
                    assert d == brute_min_weight(code), (p, k, r)
                    alone = information_sets_alone(code, gens, ranks)
                    assert messages_encoded(code, passes) <= messages_encoded(code, alone)
                    caught_up += len(passes) > passes[-1][1]  # levels 1..t ran twice
            k += 1
    assert caught_up >= 10  # the rank-deficient bound ends many of these searches


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
    # the dual comes with its coordinates rotated left by k; roll them back
    h = np.roll(dual.generator.entries, code.k, axis=1)
    assert np.all((h @ code.generator.entries.T) % 5 == 0)
    # exhaustive: every dual codeword is orthogonal to every codeword
    words = enumerate_codewords(code)
    dwords = np.roll(enumerate_codewords(dual), code.k, axis=1)
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


def min_null_weight(code):
    """Least weight of a nonzero v with G v = 0, over all q^n vectors (oracle)."""
    q = code.field.p
    vectors = nonzero_messages(q, code.n)
    null = vectors[np.all(vectors @ code.generator.entries.T % q == 0, axis=1)]
    return int(np.count_nonzero(null, axis=1).min())


def test_dual_without_standard_form_is_formed(f5):
    # -A^T is singular, so [-A^T | I] has no standard form on its own coordinates
    code = LinearCode(MatrixGF(f5, [[1, 1], [1, 1]]))
    dual = dual_code(code)
    h = np.roll(dual.generator.entries, code.k, axis=1)
    assert np.all((h @ code.generator.entries.T) % 5 == 0)
    assert min_distance(dual) == min_null_weight(code) == 2


def test_dual_distance_matches_the_null_space_on_random_codes():
    # every q^n vector is checked against G, so q^n stays at most 4000
    rng = np.random.default_rng(11)
    count = 0
    for p in (2, 3, 5):
        f = PrimeField(p)
        for n in range(2, 12):
            if p**n > 4000:
                break
            for k in range(1, n):
                for _ in range(4):
                    code = LinearCode(MatrixGF(f, rng.integers(0, p, size=(k, n - k))))
                    dual = dual_code(code)
                    assert min_distance(dual) == min_null_weight(code), code.a_matrix
                    assert dual_code(dual) == code
                    count += 1
    assert count == 344


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
    # an [n, n] code has an empty A block, but its gamma is checked all the same
    with pytest.raises(ValueError, match="not a primitive element"):
        mds_code(f5, 2, 2, gamma=4)


@pytest.mark.parametrize("gamma", [7, -3, 5, 8, True, 3.0, "3"])
def test_singleton_array_refuses_gamma_outside_the_field(f5, gamma):
    # 7, -3 and 8 reduce mod 5 to the primitive elements 2, 2 and 3; an
    # input outside [0, p) is refused instead of reduced
    with pytest.raises(ValueError, match=r"gamma must be an integer in \[0, 5\)"):
        singleton_array(f5, gamma)
    with pytest.raises(ValueError):
        mds_code(f5, 6, 2, gamma=gamma)
    with pytest.raises(ValueError, match=r"gamma must be an integer in \[0, 5\)"):
        mds_code(f5, 2, 2, gamma=gamma)


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


def reference_singleton_array(field, gamma):
    """The whole triangle, each row cut from the full list a_1 .. a_{q-2}."""
    q = field.p
    a = [0] * (q - 1)  # a[i] holds a_i for 1 <= i <= q-2
    for i in range(1, q - 1):
        a[i] = pow(1 - pow(gamma, i, q), -1, q)
    return [[1] * q] + [[1] + [a[i + j - 1] for j in range(1, q - i)] for i in range(1, q)]


def reference_singleton_gamma(field):
    """Full scan: the primitive gamma whose entry 1/(1 - gamma) is least."""
    if field.p == 2:
        return 1
    primitive = [g for g in range(2, field.p) if field.is_primitive(g)]
    return min(primitive, key=lambda g: pow(1 - g, -1, field.p))


def primes_below(bound):
    return [p for p in range(2, bound) if all(p % d for d in range(2, int(p**0.5) + 1))]


@pytest.mark.parametrize("p", primes_below(60))
def test_singleton_array_matches_the_full_triangle(p):
    f = PrimeField(p)
    for gamma in filter(f.is_primitive, range(p)):
        assert singleton_array(f, gamma) == reference_singleton_array(f, gamma), gamma


def test_singleton_gamma_matches_the_full_scan():
    for p in primes_below(1000):
        f = PrimeField(p)
        assert singleton_gamma(f) == reference_singleton_gamma(f), p


@pytest.mark.parametrize("p", primes_below(14))
def test_mds_a_matrix_is_the_corner_of_the_full_triangle(p):
    f = PrimeField(p)
    for gamma in filter(f.is_primitive, range(p)):
        triangle = reference_singleton_array(f, gamma)
        for k in range(1, p + 2):
            for m in range(0, p + 2 - k):
                # m = 0 takes the empty path: k may then exceed the q rows
                corner = [row[:m] for row in triangle[:k]] if m else [[]] * k
                assert mds_a_matrix(f, k, m, gamma=gamma).entries.tolist() == corner


def test_mds_code_builds_only_its_rectangle(monkeypatch):
    # the full GF(1021) triangle holds about 5.2e5 entries and the full gamma
    # scan tests 1,019 candidates; a [4, 2] code needs the one value a_1, so
    # even at the largest modulus nothing of size p is formed
    calls = []
    is_primitive = PrimeField.is_primitive

    def counted(field, g):
        calls.append(g)
        return is_primitive(field, g)

    monkeypatch.setattr(PrimeField, "is_primitive", counted)
    for p in (1021, 1048573):
        f = PrimeField(p)
        calls.clear()
        tracemalloc.start()
        try:
            code = mds_code(f, 4, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, p
        assert len(calls) <= 32, p
    # q^k = 1021^2 messages fit the enumeration guard; 1048573^2 do not
    assert min_distance(mds_code(PrimeField(1021), 4, 2)) == 3


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


def cauchy_form(field, gamma, k, m):
    """K_ij = 1/(1 - u_i y_j), u = (0, gamma, ..., gamma^{k-1}), y = (0, 1, ..., gamma^{m-2})."""
    q = field.p
    u = [0] + [pow(gamma, i, q) for i in range(1, k)]
    y = [0] + [pow(gamma, j, q) for j in range(m - 1)]
    return [[pow(1 - ui * yj, -1, q) for yj in y] for ui in u]


@pytest.mark.parametrize("p", primes_below(14))
def test_every_constructible_rectangle_is_a_cauchy_matrix_with_no_singular_minor(p):
    # construction tests no minor: the Cauchy form proves every rectangle MDS,
    # and the general test agrees
    f = PrimeField(p)
    for gamma in filter(f.is_primitive, range(p)):
        for k in range(1, p + 1):
            for m in range(1, p + 2 - k):
                a = mds_a_matrix(f, k, m, gamma=gamma)
                assert a.entries.tolist() == cauchy_form(f, gamma, k, m), (gamma, k, m)
                assert a.all_square_submatrices_nonsingular(), (gamma, k, m)


def test_the_gf23_12x12_rectangle_has_no_singular_minor():
    # all 2,704,155 square submatrices, the largest block under the minors guard
    # that the tests walk in full
    f23 = PrimeField(23)
    a = mds_a_matrix(f23, 12, 12)
    assert a.entries.tolist() == cauchy_form(f23, singleton_gamma(f23), 12, 12)
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
