import pytest

from kunigraph.codes import singleton_gamma
from kunigraph.field import PrimeField

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
    with pytest.raises(TypeError):
        PrimeField(5.0)


def test_smallest_field_is_gf2():
    f = PrimeField(2)
    assert f.p == 2
    assert f.add(1, 1) == 0


def test_fields_are_immutable_and_hashable():
    f = PrimeField(5)
    with pytest.raises(AttributeError):
        f.p = 7
    assert PrimeField(5) == f
    assert hash(PrimeField(5)) == hash(f)
    assert PrimeField(3) != f


# ---------------------------------------------------------------------------
# addition examples
# ---------------------------------------------------------------------------

def test_add_wraps_mod_5():
    f = PrimeField(5)
    assert f.add(3, 4) == 2


def test_zero_is_additive_identity():
    f = PrimeField(5)
    for x in range(5):
        assert f.add(0, x) == x


def test_gf2_self_inverse_addition():
    assert PrimeField(2).add(1, 1) == 0


# ---------------------------------------------------------------------------
# multiplicative inverses
# ---------------------------------------------------------------------------

def test_known_inverses_in_gf5():
    f = PrimeField(5)
    assert f.inv(3) == 2
    assert f.inv(2) == 3
    assert f.inv(4) == 4


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_nonzero_element_has_inverse(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == 1


# ---------------------------------------------------------------------------
# field axioms, exhaustive for small p
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_commutativity(p):
    f = PrimeField(p)
    for a in range(p):
        for b in range(p):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_associativity_and_distributivity(p):
    f = PrimeField(p)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_results_stay_canonical(p):
    f = PrimeField(p)
    for a in range(p):
        for b in range(p):
            assert 0 <= f.add(a, b) < p
            assert 0 <= f.mul(a, b) < p
            assert 0 <= f.sub(a, b) < p


# ---------------------------------------------------------------------------
# the remaining scalar operations
# ---------------------------------------------------------------------------

def test_element_arithmetic():
    f = PrimeField(5)
    assert f.sub(3, 4) == 4
    assert f.div(3, 4) == 2  # 3 * inv(4) = 3 * 4 = 12 = 2
    assert f.neg(3) == 2
    assert f.pow(3, 3) == 2  # 27 mod 5
    assert f.pow(3, -1) == f.inv(3) == 2


def test_int_operands_coerce_into_the_field():
    f = PrimeField(5)
    assert f.add(8, 4) == 2
    assert f.mul(-1, 4) == 1
    assert f.inv(7) == f.inv(2) == 3


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
