import numpy as np
import pytest

from kunigraph import dense
from kunigraph.analysis import (
    ame_support_check,
    rank_spectrum,
    rank_spectrum_check,
    rank_split_check,
)
from kunigraph.codes import LinearCode
from kunigraph.dense import (
    apply_fourier,
    apply_x,
    apply_z,
    graph_state,
    rank_of_reduction,
    state_from_code,
)
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency
from kunigraph.matrix import MatrixGF


def count_reductions(monkeypatch):
    """Sizes of the sides the rank table reduces from now on, state by state."""
    sizes = []
    rank = dense._ranks_in_one_pass

    def counted(support, values, q, n, sides):
        sizes.extend(map(len, sides))
        return rank(support, values, q, n, sides)

    monkeypatch.setattr(dense, "_ranks_in_one_pass", counted)
    return sizes


@pytest.fixture(scope="module")
def path_state():
    """A GF(5) graph state on 6 qudits whose triples have ranks 5, 25 and 125."""
    gamma = np.zeros((6, 6), dtype=np.int64)
    for i, j, w in ((0, 1, 1), (1, 2, 2), (2, 5, 1), (3, 4, 1)):
        gamma[i, j] = gamma[j, i] = w
    return graph_state(Adjacency(MatrixGF(PrimeField(5), gamma)))


# ---------------------------------------------------------------------------
# rank spectra
# ---------------------------------------------------------------------------

def test_spectrum_covers_all_subsets_up_to_half(phi60):
    spec = rank_spectrum(phi60)
    sizes = {len(s) for s in spec}
    assert sizes == {1, 2, 3}
    assert len(spec) == 6 + 15 + 20


def test_62_state_triple_ranks_are_capped_by_message_count(phi60):
    spec = rank_spectrum(phi60)
    for subset, rank in spec.items():
        if len(subset) == 3:
            assert rank <= 25, subset


def test_ghz_every_reduction_has_rank_q(f5):
    ghz = state_from_code(LinearCode(MatrixGF(f5, [[1, 1]])))
    spec = rank_spectrum(ghz)
    assert set(spec.values()) == {5}


def test_kuni_reductions_have_full_rank(phi60):
    # for a 2-uniform state every reduction of size <= 2 has rank q^|S|
    spec = rank_spectrum(phi60)
    for subset, rank in spec.items():
        if len(subset) <= 2:
            assert rank == 5 ** len(subset)


def test_spectrum_ranks_and_equality(phi50):
    spec = rank_spectrum(phi50)
    assert spec[(1, 2)] == 25
    assert spec == rank_spectrum(phi50)
    ghz5 = state_from_code(LinearCode(MatrixGF(PrimeField(5), [[1, 1, 1, 1]])))
    assert spec != rank_spectrum(ghz5)


def test_spectrum_ranks_each_complementary_pair_once(monkeypatch, phi60, path_state):
    sizes = count_reductions(monkeypatch)
    rank_spectrum_check(phi60, path_state)
    # per state: 6 singles, 15 pairs and one triple of each of the 10 pairs
    assert [sizes.count(size) for size in (1, 2, 3)] == [12, 30, 20]
    monkeypatch.undo()
    spec = rank_spectrum(path_state)
    assert set(spec.values()) == {1, 5, 25, 125}  # {4, 5} is an edge alone
    for subset, rank in spec.items():
        assert rank == rank_of_reduction(path_state, subset), subset


def test_rank_spectrum_is_lu_invariant(phi50):
    rng = np.random.default_rng(13)
    rotated = phi50
    for _ in range(6):
        qudit = int(rng.integers(1, 6))
        gate = rng.choice(["x", "z", "f"])
        if gate == "x":
            rotated = apply_x(rotated, qudit, int(rng.integers(1, 5)))
        elif gate == "z":
            rotated = apply_z(rotated, qudit, int(rng.integers(1, 5)))
        else:
            rotated = apply_fourier(rotated, qudit)
    assert rank_spectrum(rotated) == rank_spectrum(phi50)


def test_each_report_has_its_exact_key_set(phi50, phi52, phi60, phi62):
    shared = {"test", "states", "subsets_checked", "distinguishing_subsets", "verdict"}
    assert set(rank_spectrum_check(phi60, phi62)) == shared
    assert set(rank_split_check(phi60, phi62, 2, 2, 1)) == shared | {"ranks", "note"}
    assert set(ame_support_check(phi50, phi52)) == shared | {"supports", "note"}


def test_spectrum_check_lists_distinguishing_subsets_in_order(phi60, path_state):
    report = rank_spectrum_check(phi60, path_state, labels=("6:2", "path"))
    assert report["test"] == "rank_spectrum"
    assert report["states"] == ["6:2", "path"]
    assert report["subsets_checked"] == 6 + 15 + 20
    assert report["verdict"] == "distinguished"
    diffs = report["distinguishing_subsets"]
    assert diffs == sorted(diffs) and [4] not in diffs  # qudit 4 has rank 5 in both
    assert rank_spectrum_check(phi60, phi60)["verdict"] == "not distinguished"


# ---------------------------------------------------------------------------
# split-subset rank discrimination
# ---------------------------------------------------------------------------

def test_base_and_level1_states_are_distinguished(phi60, phi62):
    report = rank_split_check(phi60, phi62, 2, 2, 1, labels=("6:2", "6:2+2:1"))
    assert report["verdict"] == "distinguished"
    assert report["states"] == ["6:2", "6:2+2:1"]
    assert report["subsets_checked"] == 12  # C(4,2) * C(2,1)
    assert report["distinguishing_subsets"][0] == [1, 2, 5]
    assert report["ranks"]["1,2,5"] == [25, 125]
    # every split subset separates this pair
    assert len(report["distinguishing_subsets"]) == 12
    assert report["note"].startswith("rank is a SLOCC invariant; base rank <= 25")


def test_split_check_ranks_each_complementary_pair_once(monkeypatch, phi60, phi62, path_state):
    # n = 6, n_star = 2, k = 2, k_star = 1: the 12 split subsets form 6
    # complementary pairs, such as {1, 2, 5} and {3, 4, 6}
    sizes = count_reductions(monkeypatch)
    report = rank_split_check(phi60, phi62, 2, 2, 1)
    assert sizes == [3] * 12
    assert len(report["ranks"]) == report["subsets_checked"] == 12
    monkeypatch.undo()
    report = rank_split_check(phi60, path_state, 2, 2, 1)
    assert {pair[1] for pair in report["ranks"].values()} == {5, 25, 125}
    for key, pair in report["ranks"].items():
        subset = [int(qudit) for qudit in key.split(",")]
        assert pair == [
            rank_of_reduction(phi60, subset),
            rank_of_reduction(path_state, subset),
        ], subset


def test_identical_states_are_not_distinguished(phi60):
    report = rank_split_check(phi60, phi60, 2, 2, 1)
    assert report["verdict"] == "not distinguished"
    assert report["distinguishing_subsets"] == []
    assert report["note"] == "no rank difference found on the split subsets"


def test_split_check_preconditions(phi50, phi52, phi60):
    with pytest.raises(ValueError):
        rank_split_check(phi50, phi52, 2, 2, 1)  # k + k* = 3 > floor(5/2)
    with pytest.raises(ValueError):
        rank_split_check(phi60, phi50, 2, 2, 1)  # different registers


@pytest.mark.parametrize("n_star", [1, 5, 7])
def test_split_check_refuses_an_empty_split_family(phi60, n_star):
    # n = 6, k = 2, k* = 1: the first n - n* qudits must hold k of them
    with pytest.raises(ValueError, match="no split subsets"):
        rank_split_check(phi60, phi60, n_star, 2, 1)


def test_spectrum_check_refuses_different_registers(phi50, phi60):
    with pytest.raises(ValueError, match="different registers"):
        rank_spectrum_check(phi50, phi60)


# ---------------------------------------------------------------------------
# AME support discrimination
# ---------------------------------------------------------------------------

def test_ame_pair_support_separation(phi50, phi52):
    report = ame_support_check(phi50, phi52, labels=("5:2", "5:2+2:1"))
    assert report["supports"] == [25, 125]
    assert report["verdict"] == "distinguished"
    assert report["subsets_checked"] == 0
    assert report["distinguishing_subsets"] == []
    assert report["note"].startswith("support counts differ")


def test_same_state_supports_are_equal(phi50):
    report = ame_support_check(phi50, phi50)
    assert report["supports"] == [25, 25]
    assert report["verdict"] == "not distinguished by this test"
    assert report["note"] == "equal support counts; test is inconclusive"


def test_support_check_requires_odd_register(phi60, phi62):
    with pytest.raises(ValueError):
        ame_support_check(phi60, phi62)


def test_support_check_requires_ame_inputs(f5, phi50):
    not_ame = state_from_code(LinearCode(MatrixGF(f5, [[1, 1, 1, 1]])))  # 1-uniform
    with pytest.raises(ValueError):
        ame_support_check(not_ame, phi50)


def test_missing_mds_block_surfaces_as_construction_error():
    # GF(2) has no 2x3 block with all minors nonsingular, so the 5-qubit
    # AME pair cannot even be built; the error comes from the code layer
    from kunigraph.codes import mds_code
    from kunigraph.field import PrimeField

    with pytest.raises(ValueError):
        mds_code(PrimeField(2), 5, 2)


def test_smallest_odd_register_pair_over_gf2():
    # q=2, n=3: the repetition code is MDS, so the pair does build and
    # the support separation is 2 vs 4
    from kunigraph.codes import mds_code
    from kunigraph.dense import hierarchy_state_from_codes
    from kunigraph.field import PrimeField

    f2 = PrimeField(2)
    base = state_from_code(mds_code(f2, 3, 1))
    hier = hierarchy_state_from_codes(mds_code(f2, 3, 1), mds_code(f2, 2, 1))
    report = ame_support_check(base, hier)
    assert report["supports"] == [2, 4]
    assert report["verdict"] == "distinguished"
