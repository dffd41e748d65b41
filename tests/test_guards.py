"""Every q^e guard at its limit, from both sides, without forming the power.

One helper, errors.guarded_power, decides all three guards: the sweep's
q^n exponent vectors (2^26), the q^k codewords that enumeration and
min_distance may meet (2^24) and the q^n amplitudes of a dense state
(2^24). Its accepted side is tested directly; each public entry is tested
on its refusing side, and on its accepted side only where that is cheap.
"""

import numpy as np
import pytest

from kunigraph.codes import ENUMERATION_GUARD, LinearCode, enumerate_codewords, min_distance
from kunigraph.dense import STATE_GUARD, StateVector
from kunigraph.errors import ResourceLimitError, guarded_power
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency
from kunigraph.matrix import MatrixGF
from kunigraph.stabilizer import SWEEP_GUARD, minimum_support

F2 = PrimeField(2)


def power(base, exponent, limit):
    return guarded_power(base, exponent, limit, "test guard")


def test_the_limits():
    assert (SWEEP_GUARD, ENUMERATION_GUARD, STATE_GUARD) == (1 << 26, 1 << 24, 1 << 24)


# (limit, base, the largest exponent e with base^e <= limit)
LARGEST_EXPONENTS = [
    (1 << 26, 2, 26), (1 << 26, 3, 16), (1 << 26, 5, 11), (1 << 26, 7, 9), (1 << 26, 11, 7),
    (1 << 24, 2, 24), (1 << 24, 3, 15), (1 << 24, 5, 10), (1 << 24, 7, 8), (1 << 24, 11, 6),
    (1 << 24, 4096, 2), (1 << 24, 1 << 24, 1), (1 << 26, 1 << 24, 1),
]


@pytest.mark.parametrize("limit, base, exponent", LARGEST_EXPONENTS)
def test_helper_at_each_limit_from_both_sides(limit, base, exponent):
    assert power(base, exponent, limit) == base**exponent <= limit
    refused = f"^{base}\\^{exponent + 1} exceeds test guard {limit}$"
    with pytest.raises(ResourceLimitError, match=refused):
        power(base, exponent + 1, limit)


@pytest.mark.parametrize("base, exponent", [(2, 24), (4, 12), (16, 6), (4096, 2)])
def test_helper_accepts_the_limit_itself(base, exponent):
    assert power(base, exponent, 1 << 24) == 1 << 24
    with pytest.raises(ResourceLimitError):
        power(base, exponent, (1 << 24) - 1)


def test_helper_refuses_a_huge_exponent_without_forming_the_power():
    # 5^(10^18) could not be formed at all; the helper stops past 2^24
    with pytest.raises(ResourceLimitError, match="exceeds test guard 16777216"):
        power(5, 10**18, 1 << 24)


@pytest.mark.parametrize("base, want", [(-1, 1), (0, 0), (1, 1)])
def test_helper_answers_bases_that_never_grow_at_once(base, want):
    assert power(base, 10**18, 1 << 24) == want
    assert power(base, 0, 1 << 24) == 1
    assert power(7, 0, 1) == 1


# ---------------------------------------------------------------------------
# the public entries
# ---------------------------------------------------------------------------

def test_sweep_accepts_2_to_the_26():
    # the empty graph ends its sweep at level 1: every single X_i has weight 1
    weight, witness = minimum_support(Adjacency(MatrixGF.zeros(F2, 26, 26)))
    assert weight == 1
    assert witness.tolist() == [0] * 25 + [1]


def test_sweep_refuses_2_to_the_27():
    with pytest.raises(ResourceLimitError, match="2\\^27 exceeds sweep guard"):
        minimum_support(Adjacency(MatrixGF.zeros(F2, 27, 27)))


def test_min_distance_accepts_2_to_the_24():
    # A = 0: every unit message is a weight-1 word, found at level 1
    assert min_distance(LinearCode(MatrixGF.zeros(F2, 24, 1))) == 1


def test_enumeration_refuses_2_to_the_25():
    code = LinearCode(MatrixGF.zeros(F2, 25, 1))
    for entry in (min_distance, enumerate_codewords):
        with pytest.raises(ResourceLimitError, match="2\\^25 exceeds enumeration guard"):
            entry(code)


def test_state_refuses_2_to_the_25():
    # refused before the amplitudes are looked at
    with pytest.raises(ResourceLimitError, match="2\\^25 exceeds state guard"):
        StateVector(2, 25, np.zeros(1))
    for sparse in (False, True):
        payload = {"q": 2, "n": 25, "sparse": sparse, "amplitudes": []}
        with pytest.raises(ResourceLimitError, match="2\\^25 exceeds state guard"):
            StateVector.from_json(payload)


def test_state_refuses_a_huge_register_without_forming_q_to_the_n():
    with pytest.raises(ResourceLimitError, match="exceeds state guard"):
        StateVector(1_000_003, 10**9, np.zeros(1))
