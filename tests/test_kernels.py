import numpy as np
import pytest
from hypothesis import given, strategies as st

from kunigraph import _kernels
from kunigraph.codes import mds_code
from kunigraph.field import MAX_MODULUS, PrimeField
from kunigraph.graph import HierarchySpec, bipartite_adjacency, hierarchy_adjacency
from kunigraph.stabilizer import SWEEP_GUARD


def _full_sweep(gamma, q, chunk=1 << 14):
    """Reference: every nonzero w in base-q index order; ties keep the first."""
    g = np.ascontiguousarray(gamma, dtype=np.int64)
    n = g.shape[0]
    total = q**n
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best = n + 1
    best_idx = -1
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        w = (idx[:, None] // powers[None, :]) % q
        z = (w @ g) % q  # gamma is symmetric, so w @ g == (g @ w^T)^T
        weights = np.count_nonzero((w != 0) | (z != 0), axis=1)
        m = int(weights.argmin())
        if int(weights[m]) < best:
            best = int(weights[m])
            best_idx = int(idx[m])
    return best, best_idx


def _leading_digit(index, q):
    """The most significant nonzero base-q digit of a positive index."""
    while index >= q:
        index //= q
    return index


def _random_gamma(rng, p, n):
    upper = np.triu(rng.integers(0, p, size=(n, n)), k=1)
    return upper + upper.T


def corpus():
    f5 = PrimeField(5)
    f3 = PrimeField(3)
    return [
        (bipartite_adjacency(mds_code(f5, 6, 2)).gamma.entries, 5),
        (bipartite_adjacency(mds_code(f5, 5, 2)).gamma.entries, 5),
        (hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (2, 1)))).gamma.entries, 5),
        (bipartite_adjacency(mds_code(f3, 4, 2)).gamma.entries, 3),
        (np.zeros((4, 4), dtype=np.int64), 5),
    ]


def test_numpy_chunk_size_does_not_change_results(monkeypatch):
    for gamma, q in corpus():
        monkeypatch.setattr(_kernels, "SWEEP_CHUNK", 7)
        small = _kernels.min_support_sweep(gamma, q)
        monkeypatch.setattr(_kernels, "SWEEP_CHUNK", 1 << 16)
        large = _kernels.min_support_sweep(gamma, q)
        assert small == large


def test_default_backend_is_numpy():
    assert _kernels.DEFAULT_BACKEND == "numpy"


def test_witness_index_is_the_first_minimum():
    # the bell graph: every nonzero w touches both qudits, so the first
    # nonzero index (w = (0, 1)) is the witness
    gamma = np.array([[0, 4], [4, 0]], dtype=np.int64)
    assert _kernels.min_support_sweep(gamma, 5) == (2, 1)


def test_a_tie_at_a_later_level_can_hold_the_witness():
    # w = (0, 1, 0, 0) already has weight 2, but the witness is w = (0, 0, 1, 1),
    # of support 2 and smaller index, so the sweep must finish level 2
    gamma = np.array([[0, 2, 1, 2], [2, 0, 0, 0], [1, 0, 0, 2], [2, 0, 2, 0]])
    assert _kernels.min_support_sweep(gamma, 3) == _full_sweep(gamma, 3) == (2, 4)


@st.composite
def symmetric_gammas(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n_max = {2: 15, 3: 9, 5: 6, 7: 5, 11: 4, 13: 4}[p]  # q^n <= 4 * 10^4
    n = draw(st.integers(1, n_max))
    pairs = n * (n - 1) // 2
    entries = draw(st.lists(st.integers(0, p - 1), min_size=pairs, max_size=pairs))
    kept = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    upper = np.zeros((n, n), dtype=np.int64)
    upper[np.triu_indices(n, k=1)] = [e if keep else 0 for e, keep in zip(entries, kept)]
    return upper + upper.T, p


@given(symmetric_gammas())
def test_level_sweep_matches_the_full_sweep(case):
    gamma, q = case
    weight, index = _kernels.min_support_sweep(gamma, q)
    assert (weight, index) == _full_sweep(gamma, q)
    assert _leading_digit(index, q) == 1


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_level_sweep_matches_the_full_sweep_at_any_chunk(monkeypatch, chunk):
    monkeypatch.setattr(_kernels, "SWEEP_CHUNK", chunk)
    rng = np.random.default_rng(4)
    cases = [(np.zeros((1, 1), dtype=np.int64), q) for q in (2, 3, 7)]
    cases += [(gamma, q) for gamma, q in corpus()]
    cases += [
        (_random_gamma(rng, p, n), p)
        for p, n in ((2, 9), (3, 6), (7, 5), (13, 3), (11, 4), (13, 4))
    ]
    for gamma, q in cases:
        weight, index = _kernels.min_support_sweep(gamma, q)
        assert (weight, index) == _full_sweep(gamma, q)
        assert _leading_digit(index, q) == 1


@pytest.mark.parametrize("n", [14, 16])
def test_level_sweep_matches_the_full_sweep_on_large_qubit_graphs(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        gamma = _random_gamma(rng, 2, n)
        assert _kernels.min_support_sweep(gamma, 2) == _full_sweep(gamma, 2)


def test_one_support_fits_in_a_batch_under_the_sweep_guard():
    # A pure state of n qudits is at most floor(n/2)-uniform, so the sweep stops by
    # level floor(n/2) + 1, whose supports hold (q-1)^floor(n/2) value patterns each.
    # Over every prime the field accepts and every n with q^n <= SWEEP_GUARD, that
    # count stays within SWEEP_CHUNK, so a batch of whole supports never splits one.
    # A guard change that breaks this (ROADMAP item 3, a cap on vectors visited
    # instead of on q^n) must also bound the patterns per support.
    sieve = np.ones(MAX_MODULUS + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(MAX_MODULUS**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    most, where = 0, None
    for q in np.flatnonzero(sieve).tolist():
        n = 1
        while q**n <= SWEEP_GUARD:
            if (q - 1) ** (n // 2) > most:
                most, where = (q - 1) ** (n // 2), (q, n)
            n += 1
    assert (most, where) == (8190, (8191, 2))
    assert most <= _kernels.SWEEP_CHUNK
