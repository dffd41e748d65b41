import json
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kunigraph import dense
from kunigraph.codes import LinearCode, mds_code
from kunigraph.dense import (
    SUPPORT_TOL,
    StateVector,
    apply_O,
    apply_fourier,
    apply_x,
    apply_z,
    code_to_graph_fourier_positions,
    eigencheck,
    graph_state,
    hierarchy_state_from_codes,
    is_maximally_mixed,
    rank_of_reduction,
    reduced_density,
    state_from_code,
    support_count,
    to_graph_form,
    uniformity_by_oracle,
)
from kunigraph.errors import ResourceLimitError
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency, bipartite_adjacency
from kunigraph.matrix import MatrixGF
from kunigraph.stabilizer import graph_generators, support_weight, uniformity_index


# ---------------------------------------------------------------------------
# StateVector basics
# ---------------------------------------------------------------------------

def test_norm_validation():
    with pytest.raises(ValueError):
        StateVector(2, 1, [1.0, 1.0])
    sv = StateVector(2, 1, [2**-0.5, 2**-0.5])
    assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("via_json", [False, True])
def test_non_finite_norm_is_refused(bad, via_json):
    with pytest.raises(ValueError, match="not finite"):
        if via_json:
            StateVector.from_json({"q": 2, "n": 1, "amplitudes": [[bad.real, bad.imag], [0, 0]]})
        else:
            StateVector(2, 1, [bad, 0.0])


def test_size_guard():
    with pytest.raises(ResourceLimitError):
        StateVector(2, 25, np.zeros(2**25))


def test_size_guard_refuses_huge_n_before_forming_q_to_the_n():
    for sparse in (False, True):
        with pytest.raises(ResourceLimitError):
            StateVector.from_json({"q": 5, "n": 10**6, "sparse": sparse, "amplitudes": []})


def test_json_round_trip_dense_and_sparse(f5):
    sv = state_from_code(LinearCode(MatrixGF(f5, [[1]])))
    dense = StateVector.from_json(sv.to_json())
    sparse = StateVector.from_json(sv.to_json(sparse=True))
    assert sv.overlap(dense) == pytest.approx(1.0)
    assert sv.overlap(sparse) == pytest.approx(1.0)
    assert len(sv.to_json(sparse=True)["amplitudes"]) == 5
    payload = sv.to_json(sparse=True)
    payload["amplitudes"].reverse()  # entry order does not matter
    assert np.array_equal(StateVector.from_json(payload).amplitudes, sv.amplitudes)


@pytest.mark.parametrize(
    "payload",
    [
        # the sparse payloads have norm 1, so the norm check cannot be what refuses them
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[-1, 1.0, 0.0]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[True, 0.5**0.5, 0.0]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[0, 1.0, 0.0], [0, 1.0, 0.0]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[1.0, 1.0, 0.0]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[2, 1.0, 0.0]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[2**70, 1.0, 0.0]]},
        {"q": 2, "n": 1, "sparse": 1, "amplitudes": [[0, 1.0, 0.0]]},
        {"q": 2.0, "n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        {"q": True, "n": 1, "amplitudes": [[1.0, 0.0]]},
        {"q": 2, "n": False, "amplitudes": [[1.0, 0.0]]},
        {"q": 2, "n": 0, "amplitudes": [[1.0, 0.0]]},
        {"q": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        [2, 1, [[1.0, 0.0], [0.0, 0.0]]],
        # dense entries: a non-finite norm, strings, null, booleans and overflow
        {"q": 2, "n": 1, "amplitudes": [[float("nan"), 0.0], [0.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [[float("inf"), 0.0], [0.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [["1.0", 0.0], [0.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [[1.0, "0"], [0.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [[1.0, None], [0.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [None, [1.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [[True, False], [False, False]]},
        {"q": 2, "n": 1, "amplitudes": [[1.0, 0.0], [0.0, False]]},
        {"q": 2, "n": 1, "amplitudes": [[2**1100, 0.0], [0.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [[1.0], [0.0, 0.0]]},
        {"q": 2, "n": 1, "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0]]},
        # sparse parts: the same rule as dense ones
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[0, True, 0.0]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[0, 1.0, None]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [[0, 2**1100, 0.0]]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": [None]},
        {"q": 2, "n": 1, "sparse": True, "amplitudes": 1},
        {"q": 2, "n": 1, "amplitudes": 1},
    ],
)
def test_state_json_is_read_exactly(payload):
    with pytest.raises(ValueError):
        StateVector.from_json(payload)


def test_state_json_accepts_integer_parts():
    sv = StateVector.from_json({"q": 2, "n": 1, "amplitudes": [[0, 0], [0, 1]]})
    assert np.array_equal(sv.amplitudes, [0, 1j])


def _elementwise_payload(sv: StateVector, sparse: bool) -> dict:
    """The payload built one amplitude at a time: the reference for to_json."""
    amp = sv.amplitudes
    if sparse:
        idx = np.nonzero(np.abs(amp) > SUPPORT_TOL)[0]
        rows = [[int(i), float(amp[i].real), float(amp[i].imag)] for i in idx]
        return {"q": sv.q, "n": sv.n, "sparse": True, "amplitudes": rows}
    return {"q": sv.q, "n": sv.n, "amplitudes": [[float(a.real), float(a.imag)] for a in amp]}


def _types(payload: dict) -> list:
    return [[type(x) for x in row] for row in payload["amplitudes"]]


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_to_json_matches_the_elementwise_payload(seed, sparse):
    rng = np.random.default_rng(seed)
    q, n = (2, 3, 5)[seed % 3], 3
    raw = rng.normal(size=2 * q**n) + 1j * rng.normal(size=2 * q**n)
    raw[rng.random(raw.size) < 0.4] = 0.0
    raw[0] = complex(-0.0, -0.0)
    # a strided view: to_json must not depend on the amplitudes being contiguous
    sv = StateVector(q, n, (raw / np.linalg.norm(raw[::2]))[::2])
    assert not sv.amplitudes.flags.c_contiguous
    got, want = sv.to_json(sparse=sparse), _elementwise_payload(sv, sparse)
    assert got == want
    assert _types(got) == _types(want)
    assert json.dumps(got) == json.dumps(want)  # same float reprs, -0.0 included
    assert np.array_equal(StateVector.from_json(got).amplitudes, sv.amplitudes)


# ---------------------------------------------------------------------------
# code-superposition states
# ---------------------------------------------------------------------------

def test_bell_state_amplitudes(f5):
    sv = state_from_code(LinearCode(MatrixGF(f5, [[1]])))
    expected = np.zeros(25, dtype=complex)
    for a in range(5):
        expected[a * 5 + a] = 5**-0.5
    assert np.allclose(sv.amplitudes, expected)


def test_ghz_state_amplitudes(f5):
    sv = state_from_code(LinearCode(MatrixGF(f5, [[1, 1]])))
    idx = np.nonzero(np.abs(sv.amplitudes) > 1e-9)[0]
    assert idx.tolist() == [a * 25 + a * 5 + a for a in range(5)]
    assert np.allclose(np.abs(sv.amplitudes[idx]), 5**-0.5)


def test_62_state_support(phi60):
    assert support_count(phi60) == 25


# ---------------------------------------------------------------------------
# graph states and stabilizer eigenchecks
# ---------------------------------------------------------------------------

def _digit_graph_state_amplitudes(gamma: np.ndarray, q: int) -> np.ndarray:
    """omega^{sum_{i<j} Gamma_ij z_i z_j} / sqrt(q^n), from each index's base-q digits."""
    n = gamma.shape[0]
    idx = np.arange(q**n, dtype=np.int64)
    digits = [(idx // q ** (n - 1 - i)) % q for i in range(n)]
    exps = np.zeros(q**n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            exps += int(gamma[i, j]) * digits[i] * digits[j]
    return np.exp(2j * np.pi * np.arange(q) / q)[exps % q] / np.sqrt(q**n)


@st.composite
def small_adjacencies(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(1, {2: 10, 3: 7, 5: 5, 7: 4, 11: 3, 13: 3}[p]))
    pairs = n * (n - 1) // 2
    upper = np.zeros((n, n), dtype=np.int64)
    upper[np.triu_indices(n, k=1)] = draw(
        st.lists(st.integers(0, p - 1), min_size=pairs, max_size=pairs)
    )
    return upper + upper.T, p


@given(small_adjacencies())
def test_graph_state_matches_the_digit_formula_bitwise(case):
    gamma, p = case
    sv = graph_state(Adjacency(MatrixGF(PrimeField(p), gamma)))
    assert np.array_equal(sv.amplitudes, _digit_graph_state_amplitudes(gamma, p))


def test_empty_graph_is_plus_states():
    f2 = PrimeField(2)
    sv = graph_state(Adjacency(MatrixGF.zeros(f2, 2, 2)))
    assert np.allclose(sv.amplitudes, 0.5)


def test_bell_graph_eigenchecks(f5):
    adj = bipartite_adjacency(LinearCode(MatrixGF(f5, [[1]])))
    g = graph_state(adj)
    for row in graph_generators(adj):
        assert eigencheck(g, row[: adj.n], row[adj.n :])


def test_62_hierarchy_graph_eigenchecks(adj62):
    g = graph_state(adj62)
    for row in graph_generators(adj62):
        assert eigencheck(g, row[: adj62.n], row[adj62.n :])


def test_generator_products_match_sweep_weights():
    # S_1^{w_1} ... S_n^{w_n} is X^w Z^{Gamma w} up to a phase; apply it
    # gate by gate and compare its weight with the sweep's support weight
    for adj in (
        bipartite_adjacency(LinearCode(MatrixGF(PrimeField(5), [[1]]))),
        bipartite_adjacency(mds_code(PrimeField(3), 4, 2)),
    ):
        q, n = adj.field.p, adj.n
        g = graph_state(adj)
        tableau = graph_generators(adj)
        for w in product(range(q), repeat=n):
            exps = (np.array(w) @ tableau) % q
            x, z = exps[:n], exps[n:]
            out = g
            for i in range(n):
                out = apply_x(apply_z(out, i + 1, int(z[i])), i + 1, int(x[i]))
            assert out.overlap(g) >= 1 - 1e-9, w
            assert np.count_nonzero((x != 0) | (z != 0)) == support_weight(w, adj), w


def test_non_stabilizer_operator_fails_eigencheck(f5):
    adj = bipartite_adjacency(LinearCode(MatrixGF(f5, [[1]])))
    g = graph_state(adj)
    assert not eigencheck(g, [1, 0], [0, 0])


# ---------------------------------------------------------------------------
# local gates
# ---------------------------------------------------------------------------

def test_shift_gate_on_basis_state():
    sv = apply_x(StateVector(5, 1, np.eye(5)[0]), 1)
    assert np.argmax(np.abs(sv.amplitudes)) == 1


def test_phase_gate_on_basis_state():
    sv = apply_z(StateVector(5, 1, np.eye(5)[2]), 1, 3)
    assert sv.amplitudes[2] == pytest.approx(np.exp(2j * np.pi * 6 / 5))


def test_fourier_on_qubit_zero():
    sv = apply_fourier(StateVector(2, 1, np.eye(2)[0]), 1)
    assert np.allclose(sv.amplitudes, [2**-0.5, 2**-0.5])


def test_fourier_inverse_round_trip(phi60):
    sv = apply_fourier(apply_fourier(phi60, 3), 3, inverse=True)
    assert sv.overlap(phi60) == pytest.approx(1.0)


def test_gate_index_validation(phi60):
    with pytest.raises(ValueError):
        apply_x(phi60, 0)
    with pytest.raises(ValueError):
        apply_x(phi60, 7)


def test_gates_preserve_norm(phi60):
    for sv in (apply_x(phi60, 2, 3), apply_z(phi60, 5, 4), apply_fourier(phi60, 6)):
        assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# code state -> graph state conversion
# ---------------------------------------------------------------------------

def test_code_state_fourier_converts_to_graph_state(phi60, adj60):
    positions = code_to_graph_fourier_positions(6, 2)
    assert positions == [3, 4, 5, 6]
    conv = to_graph_form(phi60, positions)
    assert conv.overlap(graph_state(adj60)) >= 1 - 1e-8


def test_forward_fourier_does_not_reach_the_graph_state(phi60, adj60):
    wrong = phi60
    for pos in (3, 4, 5, 6):
        wrong = apply_fourier(wrong, pos, inverse=False)
    assert wrong.overlap(graph_state(adj60)) < 1 - 1e-8


# ---------------------------------------------------------------------------
# the hierarchy operator
# ---------------------------------------------------------------------------

def test_level1_state_matches_explicit_formula(f5, code62, phi62):
    # sum over messages (a, b) of |a, b, a+b, a+2b> (x) the shifted and
    # phased bell pair carrying exponents a+3b and a+4b
    bell = state_from_code(mds_code(f5, 2, 1))
    amp = np.zeros(5**6, dtype=complex)
    for a in range(5):
        for b in range(5):
            tail = apply_x(apply_z(bell, 1, -(a + 3 * b)), 2, a + 4 * b)
            head = 0
            for d in (a, b, (a + b) % 5, (a + 2 * b) % 5):
                head = head * 5 + d
            amp[head * 25 : (head + 1) * 25] += tail.amplitudes
    manual = StateVector(5, 6, amp / np.linalg.norm(amp))
    assert manual.overlap(phi62) >= 1 - 1e-8


def test_level1_states_are_2_uniform(phi62, phi63):
    assert uniformity_by_oracle(phi62) == 2
    assert uniformity_by_oracle(phi63) == 2


def test_level1_states_match_their_graph_states(phi62, phi63, adj62, adj63):
    conv62 = to_graph_form(phi62, code_to_graph_fourier_positions(6, 2, 2, 1))
    assert conv62.overlap(graph_state(adj62)) >= 1 - 1e-8
    conv63 = to_graph_form(phi63, code_to_graph_fourier_positions(6, 2, 3, 1))
    assert conv63.overlap(graph_state(adj63)) >= 1 - 1e-8


def test_fourier_position_patterns():
    assert code_to_graph_fourier_positions(6, 2, 2, 1) == [3, 4, 6]
    assert code_to_graph_fourier_positions(6, 2, 3, 1) == [3, 5, 6]
    assert code_to_graph_fourier_positions(5, 2, 2, 1) == [3, 5]


def test_operator_images_are_orthonormal(f5):
    # the q^2 images of the basis rule span an orthonormal basis
    sub = mds_code(f5, 2, 1)
    images = []
    for i1 in range(5):
        for i2 in range(5):
            img = apply_x(apply_z(state_from_code(sub), 1, -i1), 2, i2)
            images.append(img.amplitudes)
    gram = np.array(images) @ np.array(images).conj().T
    assert np.max(np.abs(gram - np.eye(25))) < 1e-12


def _apply_O_by_labels(state: StateVector, n_star: int, sub_code: LinearCode) -> np.ndarray:
    """O by its definition, one basis label of the last n_star qudits at a time.

    Label (i_1, ..., i_{n_star}) maps to Z^{-i_1} ... Z^{-i_{k*}} X^{i_{k*+1}} ...
    X^{i_{n_star}} applied to the code state of sub_code; the map extends linearly.
    """
    q, k_star = state.q, sub_code.k
    base = state_from_code(sub_code)
    mat = state.amplitudes.reshape(-1, q**n_star)
    out = np.zeros_like(mat)
    for col, labels in enumerate(product(range(q), repeat=n_star)):
        img = base
        for pos in range(k_star):
            img = apply_z(img, pos + 1, -labels[pos])
        for pos in range(k_star, n_star):
            img = apply_x(img, pos + 1, labels[pos])
        out += np.outer(mat[:, col], img.amplitudes)
    return out.reshape(-1)


@pytest.mark.parametrize(
    "p, level, sub",
    [
        (5, (6, 2), (2, 1)),
        (5, (6, 2), (4, 2)),
        (5, (6, 1), (5, 2)),
        (3, (4, 1), (3, 1)),
        (7, (6, 2), (3, 1)),
    ],
)
def test_operator_matches_its_per_label_definition(p, level, sub):
    f = PrimeField(p)
    code, sub_code = mds_code(f, *level), mds_code(f, *sub)
    got = hierarchy_state_from_codes(code, sub_code)
    want = _apply_O_by_labels(state_from_code(code), sub_code.n, sub_code)
    assert np.max(np.abs(got.amplitudes - want)) < 1e-12


@pytest.mark.parametrize(
    "p, graph, sub",
    [
        (5, (6, 2), (4, 2)),  # a graph state, not a code state
        (3, (4, 2), (4, 2)),  # O on the whole register
        (5, None, (3, 1)),  # a random state, no structure at all
    ],
)
def test_operator_matches_its_definition_on_other_states(p, graph, sub):
    f = PrimeField(p)
    if graph is None:
        state = _random_state(p, 4, 3, False)
    else:
        state = graph_state(bipartite_adjacency(mds_code(f, *graph)))
    sub_code = mds_code(f, *sub)
    got = apply_O(state, sub_code.n, sub_code)
    want = _apply_O_by_labels(state, sub_code.n, sub_code)
    assert np.max(np.abs(got.amplitudes - want)) < 1e-12


def test_operator_memory_stays_near_the_state_size(f5):
    # the state has 5^6 amplitudes (250 kB); a q^{n*} x q^{n*} image matrix
    # for n* = 5 alone would take 156 MB
    code, sub_code = mds_code(f5, 6, 1), mds_code(f5, 5, 2)
    tracemalloc.start()
    try:
        hierarchy_state_from_codes(code, sub_code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_operator_validation(f5, phi60):
    with pytest.raises(ValueError):
        apply_O(phi60, 2, mds_code(PrimeField(7), 2, 1))  # wrong field
    with pytest.raises(ValueError):
        apply_O(phi60, 1, mds_code(f5, 2, 1))  # n_star too small
    with pytest.raises(ValueError):
        apply_O(phi60, 3, mds_code(f5, 2, 1))  # length mismatch
    with pytest.raises(ValueError):
        hierarchy_state_from_codes(mds_code(f5, 6, 2), mds_code(f5, 5, 2))  # 5 > n - k


# ---------------------------------------------------------------------------
# reductions, ranks, supports
# ---------------------------------------------------------------------------

def test_bell_reduction_is_maximally_mixed(f5):
    sv = state_from_code(LinearCode(MatrixGF(f5, [[1]])))
    rho = reduced_density(sv, [1])
    assert np.max(np.abs(rho - np.eye(5) / 5)) < 1e-12


def test_product_state_reduction_is_pure():
    sv = StateVector(5, 2, np.eye(25)[0])
    rho = reduced_density(sv, [1])
    assert rank_of_reduction(sv, [1]) == 1
    assert rho[0, 0] == pytest.approx(1.0)


def test_62_state_all_pair_reductions_maximally_mixed(phi60):
    subsets = list(combinations(range(1, 7), 2))
    assert len(subsets) == 15
    for subset in subsets:
        rho = reduced_density(phi60, subset)
        assert np.max(np.abs(rho - np.eye(25) / 25)) < 1e-9, subset


def test_reduction_subset_validation(phi60):
    with pytest.raises(ValueError):
        reduced_density(phi60, [])
    with pytest.raises(ValueError):
        reduced_density(phi60, [0])
    with pytest.raises(ValueError):
        reduced_density(phi60, [7])


def test_ghz_is_exactly_1_uniform(f5):
    ghz = state_from_code(LinearCode(MatrixGF(f5, [[1, 1]])))
    assert uniformity_by_oracle(ghz) == 1


def test_62_state_is_exactly_2_uniform(phi60):
    assert uniformity_by_oracle(phi60) == 2


def test_rank_of_reductions_at_split_subset(phi60, phi62):
    assert rank_of_reduction(phi60, [1, 2, 5]) == 25
    assert rank_of_reduction(phi62, [1, 2, 5]) == 125


def test_support_counts_for_ame_pair(phi50, phi52):
    assert support_count(phi50) == 25
    assert support_count(phi52) == 125


def test_support_count_of_basis_state():
    assert support_count(StateVector(5, 3, np.eye(125)[0])) == 1


def test_is_maximally_mixed_tolerance():
    rho = np.eye(5) / 5
    assert is_maximally_mixed(rho)
    rho = rho.copy()
    rho[0, 1] = 1e-6
    assert not is_maximally_mixed(rho)


def _partial_trace(state: StateVector, subset) -> np.ndarray:
    """rho_S by numpy's tensordot of psi with its conjugate over the rest's axes.

    The reference for reduced_density, which transposes and multiplies itself.
    """
    axes = sorted({int(s) - 1 for s in subset})
    rest = [i for i in range(state.n) if i not in axes]
    t = state.tensor()
    rho = np.tensordot(t, t.conj(), axes=(rest, rest))
    return rho.reshape(state.q ** len(axes), -1)


def _random_state(q: int, n: int, seed: int, strided: bool) -> StateVector:
    """A random complex state, not a graph state; strided amplitudes are a view."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2 * q**n) + 1j * rng.normal(size=2 * q**n)
    pick = slice(None, None, 2) if strided else slice(q**n)
    sv = StateVector(q, n, (raw / np.linalg.norm(raw[pick]))[pick])
    assert sv.amplitudes.flags.c_contiguous != strided
    return sv


# (q, n, seed, strided amplitudes) and a subset: unsorted, repeated, with gaps
RANDOM_REDUCTIONS = [
    ((5, 3, 21, False), [1, 3]),
    ((2, 6, 1, False), [5, 1, 3]),
    ((2, 5, 2, True), [4, 4, 2]),
    ((2, 4, 3, False), [2, 3]),
    ((3, 5, 4, False), [3, 1, 5, 1]),
    ((3, 4, 5, True), [4, 3, 2, 1]),  # every qudit: rho = |psi><psi|
    ((5, 4, 6, True), [2]),
    ((5, 4, 7, False), [4, 1, 2]),
    ((7, 4, 8, True), [3, 1, 3]),
    ((7, 3, 9, False), [2, 3]),
]


def test_reductions_are_hermitian_with_unit_trace(phi62):
    cases = [(phi62, [2, 4]), (phi62, [1, 3, 6])]
    cases += [(_random_state(*spec), subset) for spec, subset in RANDOM_REDUCTIONS]
    for state, subset in cases:
        rho = reduced_density(state, subset)
        assert np.max(np.abs(rho - rho.conj().T)) < 64 * np.finfo(float).eps, (state, subset)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12), (state, subset)
        want = _partial_trace(state, subset)
        assert np.max(np.abs(rho - want)) < 1e-12, (state, subset)


# ---------------------------------------------------------------------------
# the oracle against the sweep and against its definition
# ---------------------------------------------------------------------------

def _uniformity_by_definition(state: StateVector) -> int:
    """Every subset of every size, in ascending order, by the reference trace."""
    for size in range(1, state.n // 2 + 1):
        for subset in combinations(range(1, state.n + 1), size):
            if not is_maximally_mixed(_partial_trace(state, subset)):
                return size - 1
    return state.n // 2


@st.composite
def oracle_adjacencies(draw, p: int):
    """Random symmetric zero-diagonal Gamma over GF(p) with q^n <= 2e4.

    One in three has a planted isolated vertex, so k = 0.
    """
    n = draw(st.integers(2, {2: 14, 3: 8, 5: 6, 7: 5}[p]))
    pairs = n * (n - 1) // 2
    upper = np.zeros((n, n), dtype=np.int64)
    upper[np.triu_indices(n, k=1)] = draw(
        st.lists(st.integers(0, p - 1), min_size=pairs, max_size=pairs)
    )
    gamma = upper + upper.T
    isolated = draw(st.integers(0, 3 * n - 1))
    if isolated < n:
        gamma[isolated, :] = gamma[:, isolated] = 0
    return gamma


def _mds_gamma(p: int, n: int, k: int) -> np.ndarray:
    return bipartite_adjacency(mds_code(PrimeField(p), n, k)).gamma.entries


def _isolated(gamma: np.ndarray, vertex: int) -> np.ndarray:
    gamma = gamma.copy()
    gamma[vertex, :] = gamma[:, vertex] = 0
    return gamma


def _check_oracle(gamma: np.ndarray, p: int) -> None:
    adj = Adjacency(MatrixGF(PrimeField(p), gamma))
    state = graph_state(adj)
    k = uniformity_by_oracle(state)
    assert k == uniformity_index(adj)
    assert k == _uniformity_by_definition(state)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
@settings(max_examples=25)
def test_oracle_matches_the_sweep_and_the_definition(p, data):
    _check_oracle(data.draw(oracle_adjacencies(p)), p)


@pytest.mark.parametrize(
    "gamma, p",
    [
        (_mds_gamma(3, 4, 2), 3),  # AME, even n: only the half of the top size holding qudit 1
        (_mds_gamma(5, 5, 2), 5),  # AME, odd n
        (_isolated(_mds_gamma(5, 6, 2), 3), 5),  # k = 0 though qudit 1 is not isolated
        (_isolated(_mds_gamma(5, 5, 2), 0), 5),  # k = 0, odd n, qudit 1 isolated
    ],
)
def test_oracle_on_planted_instances(gamma, p):
    _check_oracle(gamma, p)


@pytest.mark.parametrize(
    "p, n, k, want",
    [
        (5, 5, 2, {1: 1, 2: 10}),  # AME, odd n: one prefix below the top size
        (3, 4, 2, {1: 1, 2: 3}),  # AME, even n: the top-size subsets holding qudit 1
        (7, 6, 3, {1: 1, 2: 1, 3: 10}),
        (7, 7, 2, {1: 1, 2: 21, 3: 1}),  # k = n/2 - 1: one failing prefix past k
        (3, 4, 1, {1: 4, 2: 1}),  # low k: no reduction past size k + 1
        (5, 6, 1, {1: 6, 2: 1}),
        (7, 7, 1, {1: 7, 2: 1}),
    ],
)
def test_oracle_reductions_per_size(monkeypatch, p, n, k, want):
    state = graph_state(bipartite_adjacency(mds_code(PrimeField(p), n, k)))
    sizes = Counter()

    def counted(st, subset):
        sizes[len(set(subset))] += 1
        return reduced_density(st, subset)

    monkeypatch.setattr(dense, "reduced_density", counted)
    assert uniformity_by_oracle(state) == k
    assert sizes == Counter(want)
