import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from kunigraph.stabilizer import graph_generators, support_weight


# ---------------------------------------------------------------------------
# StateVector basics
# ---------------------------------------------------------------------------

def test_norm_validation():
    with pytest.raises(ValueError):
        StateVector(2, 1, [1.0, 1.0])
    sv = StateVector(2, 1, [1.0, 1.0], normalize=True)
    assert np.allclose(sv.amplitudes, [1 / np.sqrt(2)] * 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("normalize", [False, True])
def test_non_finite_norm_is_refused(bad, normalize):
    with pytest.raises(ValueError, match="not finite"):
        StateVector(2, 1, [bad, 0.0], normalize=normalize)


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
    assert conv.equals_up_to_phase(graph_state(adj60))


def test_forward_fourier_does_not_reach_the_graph_state(phi60, adj60):
    wrong = phi60
    for pos in (3, 4, 5, 6):
        wrong = apply_fourier(wrong, pos, inverse=False)
    assert not wrong.equals_up_to_phase(graph_state(adj60))


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
    manual = StateVector(5, 6, amp, normalize=True)
    assert manual.equals_up_to_phase(phi62)


def test_level1_states_are_2_uniform(phi62, phi63):
    assert uniformity_by_oracle(phi62) == 2
    assert uniformity_by_oracle(phi63) == 2


def test_level1_states_match_their_graph_states(phi62, phi63, adj62, adj63):
    conv62 = to_graph_form(phi62, code_to_graph_fourier_positions(6, 2, 2, 1))
    assert conv62.equals_up_to_phase(graph_state(adj62))
    conv63 = to_graph_form(phi63, code_to_graph_fourier_positions(6, 2, 3, 1))
    assert conv63.equals_up_to_phase(graph_state(adj63))


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
    from itertools import combinations

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


def test_reductions_are_hermitian_with_unit_trace(phi62):
    rng = np.random.default_rng(21)
    raw = rng.normal(size=125) + 1j * rng.normal(size=125)
    random_state = StateVector(5, 3, raw, normalize=True)
    for state, subset in ((phi62, [2, 4]), (phi62, [1, 3, 6]), (random_state, [1, 3])):
        rho = reduced_density(state, subset)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
