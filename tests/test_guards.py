"""Every size guard at its limit, from both sides, without forming the size.

One helper, errors.guarded_power, decides all four q^e guards: the sweep's
q^n exponent vectors (2^26), the N q^n vectors of verify --random-b N
(2^26 over all N sweeps), the q^k codewords that enumeration and
min_distance may meet (2^24) and the q^n amplitudes of a dense state
(2^24). Its accepted side is tested directly; each public entry is tested
on its refusing side, and on its accepted side only where that is cheap.
The MDS test caps the C(k + m, k) - 1 square submatrices of a k x m block
at 2^22, counted up to the cap.
"""

from math import comb

import numpy as np
import pytest

from kunigraph import cli, matrix
from kunigraph.codes import (
    ENUMERATION_GUARD,
    LinearCode,
    enumerate_codewords,
    mds_a_matrix,
    min_distance,
)
from kunigraph.dense import STATE_GUARD, StateVector
from kunigraph.errors import ResourceLimitError, guarded_power
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency
from kunigraph.matrix import MINORS_GUARD, MatrixGF
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


@pytest.mark.parametrize("base", [-1, 0, 1, 2, 7])
def test_helper_refuses_a_negative_exponent(base):
    with pytest.raises(ValueError, match="test guard needs a nonnegative exponent, got -1"):
        power(base, -1, 1 << 24)


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


# 7^8 = 5,764,801 vectors a sweep, and 11 sweeps fit in 2^26 where 12 do not
RANDOM_B = ["verify", "--p", "7", "--n", "8", "--k", "1", "--method", "stabilizer", "--random-b"]


def test_random_b_accepts_11_sweeps_of_7_to_the_8(capsys):
    assert 11 * 7**8 <= SWEEP_GUARD < 12 * 7**8
    assert cli.main(RANDOM_B + ["11"]) == 0
    assert '"trials": 11' in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["12", "9" * 30])
def test_random_b_refuses_12_or_more_sweeps_before_verifying(capsys, monkeypatch, trials):
    def unexpected(*args):
        raise AssertionError("a sweep ran before the refusal")

    monkeypatch.setattr(cli, "minimum_support", unexpected)
    monkeypatch.setattr(cli, "verify_general_uniformity", unexpected)
    assert cli.main(RANDOM_B + [trials]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"7^8 exceeds sweep guard 67108864 / {int(trials)} trials =" in captured.err


# ---------------------------------------------------------------------------
# the square submatrices of the MDS test
# ---------------------------------------------------------------------------

def test_minors_guard_admits_a_12x12_block_and_refuses_a_16x16_one():
    assert MINORS_GUARD == 1 << 22
    assert comb(24, 12) - 1 == 2_704_155 <= MINORS_GUARD < comb(32, 16) - 1 == 601_080_389


def never_pivots(monkeypatch):
    def unexpected(*args):
        raise AssertionError("a pivot was inverted before the refusal")

    monkeypatch.setattr(matrix, "_inverses", unexpected)


# (rows, cols) on either side of 2^22: a zero block is answered at its first
# pivot, so the admitted side costs nothing
ADMITTED_AND_REFUSED = [((12, 12), (12, 13)), ((11, 13), (11, 14)), ((10, 15), (10, 16))]


@pytest.mark.parametrize("admitted, refused", ADMITTED_AND_REFUSED)
def test_minors_guard_at_its_limit_from_both_sides(monkeypatch, admitted, refused):
    assert comb(sum(admitted), admitted[0]) - 1 <= MINORS_GUARD < comb(sum(refused), refused[0]) - 1
    f31 = PrimeField(31)
    assert MatrixGF.zeros(f31, *admitted).all_square_submatrices_nonsingular() is False
    never_pivots(monkeypatch)
    for shape in (refused, refused[::-1]):
        with pytest.raises(ResourceLimitError, match=f"exceed minors guard {MINORS_GUARD}$"):
            MatrixGF.zeros(f31, *shape).all_square_submatrices_nonsingular()


def test_minors_guard_counts_every_square_submatrix(monkeypatch):
    # the GF(7) 3 x 4 Singleton block has C(7, 3) - 1 = 34 square submatrices
    entries = mds_a_matrix(PrimeField(7), 3, 4).entries
    monkeypatch.setattr(matrix, "MINORS_GUARD", 34)
    assert MatrixGF(PrimeField(7), entries).all_square_submatrices_nonsingular()
    monkeypatch.setattr(matrix, "MINORS_GUARD", 33)
    never_pivots(monkeypatch)
    refused = "^C\\(7, 3\\) - 1 square submatrices exceed minors guard 33$"
    with pytest.raises(ResourceLimitError, match=refused):
        MatrixGF(PrimeField(7), entries).all_square_submatrices_nonsingular()


# 601,080,389 minors: each command exits 3 before its first pivot and prints nothing
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "31", "--n", "32", "--k", "16", "--method", "structural"],
        ["build", "--p", "31", "--n", "32", "--k", "16", "--b-mode", "random"],
    ],
)
def test_commands_that_read_the_mds_verdict_exit_3_past_the_minors_guard(capsys, monkeypatch, argv):
    never_pivots(monkeypatch)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed minors guard 4194304" in captured.err


def test_construction_proves_mds_without_the_minors_guard(capsys, monkeypatch):
    never_pivots(monkeypatch)
    assert cli.main(["build", "--p", "31", "--n", "32", "--k", "16"]) == 0
    assert '"k": 16' in capsys.readouterr().out
