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
    assert f.inv(1) == 1


def test_fields_are_immutable_and_hashable():
    f = PrimeField(5)
    with pytest.raises(AttributeError):
        f.p = 7
    assert PrimeField(5) == f
    assert hash(PrimeField(5)) == hash(f)
    assert PrimeField(3) != f


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
        assert a * f.inv(a) % p == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_results_stay_canonical(p):
    f = PrimeField(p)
    assert f.inverses().tolist() == [0] + [f.inv(a) for a in range(1, p)]
    for a in range(-2 * p, 2 * p):
        if a % p:
            assert 0 <= f.inv(a) < p


def test_element_arithmetic():
    # singleton_array forms 1 / (1 - g^i) as inv(1 - pow(g, i, p)), a negative operand
    f = PrimeField(5)
    assert f.inv(1 - pow(3, 3, 5)) == f.inv(-1) == 4
    assert f.inv(1 - 3) == f.inv(3) == 2


def test_int_operands_coerce_into_the_field():
    f = PrimeField(5)
    assert f.inv(7) == f.inv(2) == 3
    assert f.inv(-4) == f.inv(1) == 1


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
