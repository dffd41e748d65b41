import numpy as np
import pytest

from kunigraph.codes import singleton_gamma
from kunigraph.field import PrimeField, _is_prime
from kunigraph.matrix import _inverses

PRIMES_TO_101 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]


def brute_force_order(p: int, a: int) -> int:
    """Multiplicative order by repeated multiplication (test-side oracle)."""
    x, order = a % p, 1
    while x != 1:
        x = (x * a) % p
        order += 1
    return order


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_rejects_composite_and_tiny_moduli():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_rejects_oversized_modulus():
    with pytest.raises(ValueError):
        PrimeField((1 << 20) + 7)


def test_rejects_non_integer_modulus():
    for bad in (5.0, True, "5", None):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_smallest_field_is_gf2():
    f = PrimeField(2)
    assert f.p == 2 and PrimeField.__slots__ == ("p",)
    assert f.is_primitive(1) and _inverses(np.array([1]), 2).tolist() == [1]


def test_fields_are_immutable_and_hashable():
    f = PrimeField(5)
    with pytest.raises(AttributeError):
        f.p = 7
    assert PrimeField(5) == f
    assert hash(PrimeField(5)) == hash(f)
    assert PrimeField(3) != f


# ---------------------------------------------------------------------------
# multiplicative inverses: the eliminations invert their pivots with
# matrix._inverses, which takes canonical nonzero int64 values
# ---------------------------------------------------------------------------

def test_known_inverses_in_gf5():
    assert _inverses(np.array([3, 2, 4, 1]), 5).tolist() == [2, 3, 4, 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_nonzero_element_has_inverse(p):
    a = np.arange(1, p)
    assert (a * _inverses(a, p) % p == 1).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_results_stay_canonical(p):
    # any shape, as row_reduce passes a (B, rows) grid of leading entries
    a = np.arange(1, p).reshape(-1, 1)
    inverse = _inverses(a, p)
    assert inverse.shape == a.shape and inverse.dtype == np.int64
    assert inverse.ravel().tolist() == [pow(x, -1, p) for x in range(1, p)]


def test_pivot_inverses_match_pow_for_every_prime_below_3000():
    for p in filter(_is_prime, range(3000)):
        inverse = _inverses(np.arange(1, p), p)
        assert inverse.tolist() == [pow(x, -1, p) for x in range(1, p)], p


def test_pivot_inverses_at_the_largest_modulus():
    # a square times x stays below p^3 < 2^63, so every product fits in int64
    p = 1048573  # the largest prime below MAX_MODULUS
    sample = np.random.default_rng(61).integers(1, p, size=10_000)
    assert _inverses(sample, p).tolist() == [pow(int(x), -1, p) for x in sample]


# ---------------------------------------------------------------------------
# primitive elements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_orders_divide_group_size_and_primitivity_matches(p):
    f = PrimeField(p)
    for a in range(1, p):
        order = brute_force_order(p, a)
        assert (p - 1) % order == 0
        assert f.is_primitive(a) == (order == p - 1)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_found_primitive_generates_all_nonzero_elements(p):
    f = PrimeField(p)
    g = singleton_gamma(f)
    assert type(g) is int and f.is_primitive(g)
    seen = set()
    x = 1
    for _ in range(p - 1):
        x = (x * g) % p if p > 2 else 1
        seen.add(x)
    assert seen == set(range(1, p))
