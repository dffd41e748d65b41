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
    RANK_TOL,
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
    reduction_ranks,
    state_from_code,
    support_count,
    to_graph_form,
    uniformity_by_oracle,
)
from kunigraph.errors import ResourceLimitError
from kunigraph.field import PrimeField
from kunigraph.graph import Adjacency, HierarchySpec, bipartite_adjacency, level_codes
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


@pytest.mark.parametrize("q, n", [(1, 3), (0, 2), (-2, 2), (2, 0), (3, -1)])
def test_a_register_needs_q_at_least_2_and_n_at_least_1(q, n):
    with pytest.raises(ValueError, match="need q >= 2 and n >= 1"):
        StateVector(q, n, [1.0])


@pytest.mark.parametrize("q, n", [(1, 3), (0, 2), (2, 0), (0, -1), (-1, -1), (1, -2), (3, -1)])
@pytest.mark.parametrize("sparse", [False, True])
def test_json_registers_are_refused_by_the_constructor_rule(q, n, sparse):
    entry = [0, 1.0, 0.0] if sparse else [1.0, 0.0]
    with pytest.raises(ValueError):
        StateVector.from_json({"q": q, "n": n, "sparse": sparse, "amplitudes": [entry]})


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


def test_sparse_json_keeps_every_nonzero_amplitude():
    # a 1e-12 amplitude is in the support: the sparse file reads back bit for bit
    amp = np.array([1.0, 1e-12, 0.0, -0.0, 1e-300j, 0.0])
    sv = StateVector(6, 1, amp / np.linalg.norm(amp))
    payload = json.loads(json.dumps(sv.to_json(sparse=True)))
    assert [row[0] for row in payload["amplitudes"]] == [0, 1, 4]
    assert StateVector.from_json(payload).amplitudes.tobytes() == sv.amplitudes.tobytes()
    assert support_count(sv) == 3


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
        idx = [i for i in range(len(amp)) if amp[i] != 0]
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
    assert sv.json_text(sparse) == json.dumps(got, sort_keys=True) + "\n"
    assert np.array_equal(StateVector.from_json(got).amplitudes, sv.amplitudes)


@pytest.mark.parametrize("sparse", [False, True])
def test_json_text_keeps_zero_and_negative_zero_apart(sparse):
    # equal by value, so a table keyed by value would write one of them twice
    a = 2**-0.5
    sv = StateVector(2, 1, [complex(0.0, a), complex(-0.0, a)])
    text = sv.json_text(sparse)
    assert text == json.dumps(sv.to_json(sparse), sort_keys=True) + "\n"
    assert text.count("-0.0") == 1


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


def _random_gamma(q: int, n: int, fill: float, seed: int) -> np.ndarray:
    """A symmetric zero-diagonal Gamma whose pairs carry a weight in 1..q-1 with chance fill."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, q, size=(n, n)) * (rng.random((n, n)) < fill), 1)
    return upper + upper.T


@pytest.mark.parametrize(
    "q, n, fill, itemsize",
    [
        (2, 9, 1.0, 1),  # q = 2, the complete graph: 36 edges
        (5, 5, 0.0, 1),  # no edge: every amplitude is 1 / sqrt(q^n)
        (7, 5, 0.7, 1),
        (101, 3, 1.0, 2),  # 3 edges of up to 100 need 2 bytes
        (4093, 2, 1.0, 2),  # the largest prime whose square fits the state guard
        (5, 6, 0.8, 8),  # an 8-byte accumulator, forced
    ],
)
def test_graph_state_equals_the_phase_of_each_basis_state(monkeypatch, q, n, fill, itemsize):
    # the last digit is vectorised, every other one is a Python int
    gamma = _random_gamma(q, n, fill, seed=q + n)
    smallest, chosen = np.min_scalar_type, []

    def accumulator(value):
        chosen.append(np.dtype(np.uint64) if itemsize == 8 else smallest(value))
        return chosen[-1]

    monkeypatch.setattr(np, "min_scalar_type", accumulator)
    amp = graph_state(Adjacency(MatrixGF(PrimeField(q), gamma))).amplitudes.reshape(-1, q)
    monkeypatch.undo()
    assert [dtype.itemsize for dtype in chosen] == [itemsize]
    assert chosen[0].kind == "u"
    roots, scale = np.exp(2j * np.pi * np.arange(q) / q), np.sqrt(q**n)
    g = gamma.tolist()
    last = np.arange(q)
    for row, z in enumerate(product(range(q), repeat=n - 1)):
        fixed = sum(g[i][j] * z[i] * z[j] for i in range(n - 1) for j in range(i + 1, n - 1))
        slope = sum(g[i][n - 1] * z[i] for i in range(n - 1))
        want = roots[(fixed + slope * last) % q] / scale
        assert amp[row].tobytes() == want.tobytes(), (row, z)


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


def test_eigencheck_refuses_exponents_that_are_not_integers(adj62):
    # x + 0.4 and z + 0.3 would truncate to a generator row, which passes
    g = graph_state(adj62)
    row = graph_generators(adj62)[0]
    x, z = row[: adj62.n], row[adj62.n :]
    assert eigencheck(g, x, z) and eigencheck(g, x.tolist(), tuple(z))
    for bad_x, bad_z in ((x + 0.4, z + 0.3), (x, z + 0.3), (x.astype(bool), z)):
        with pytest.raises(ValueError, match="must be integers"):
            eigencheck(g, bad_x, bad_z)


def test_eigencheck_refuses_booleans_among_integers(adj62):
    g = graph_state(adj62)
    row = graph_generators(adj62)[0]
    x, z = row[: adj62.n].tolist(), row[adj62.n :].tolist()
    for bad_x, bad_z in (([True] + x[1:], z), (x, [np.True_] + z[1:])):
        with pytest.raises(ValueError, match="got a boolean entry"):
            eigencheck(g, bad_x, bad_z)


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


def _apply_O_by_labels(state: StateVector, sub_code: LinearCode) -> np.ndarray:
    """O by its definition, one basis label of the last n_star = sub_code.n qudits at a time.

    Label (i_1, ..., i_{n_star}) maps to Z^{-i_1} ... Z^{-i_{k*}} X^{i_{k*+1}} ...
    X^{i_{n_star}} applied to the code state of sub_code; the map extends linearly.
    """
    q, n_star, k_star = state.q, sub_code.n, sub_code.k
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
    want = _apply_O_by_labels(state_from_code(code), sub_code)
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
    got = apply_O(state, sub_code)
    want = _apply_O_by_labels(state, sub_code)
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
        apply_O(phi60, mds_code(PrimeField(7), 2, 1))  # wrong field
    with pytest.raises(ValueError):
        apply_O(phi60, mds_code(f5, 1, 1))  # n_star too small
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


def test_reduction_refuses_subsets_that_are_not_integers(phi60):
    # [1.7, 2] would truncate to {1, 2}
    for subset in ([1.7, 2], [True, True], ["1", "2"]):
        with pytest.raises(ValueError, match="must be integers"):
            reduced_density(phi60, subset)
    want = reduced_density(phi60, [1, 2])
    for subset in (range(1, 3), (2, 1), np.array([1, 2, 2])):
        assert np.array_equal(reduced_density(phi60, subset), want)


@pytest.mark.parametrize("reduce", [reduced_density, rank_of_reduction])
def test_reduction_refuses_booleans_among_integers(phi60, reduce):
    # numpy promotes [True, 2] to [1, 2]
    for subset in ([True, 2], (1, np.True_)):
        with pytest.raises(ValueError, match="got a boolean entry"):
            reduce(phi60, subset)
    with pytest.raises(ValueError, match="got a boolean entry"):
        reduction_ranks(phi60, [(1, 2), [3, False]])


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


def test_is_maximally_mixed_forms_one_float_matrix():
    d = 1029
    rho = np.eye(d, dtype=np.complex128) / d
    tracemalloc.start()
    try:
        mixed = is_maximally_mixed(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mixed
    # one float d x d array is half of rho; forming eye(d) / d and rho - it takes 1.5
    assert peak < 0.6 * rho.nbytes


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


# subsets that the complement's first digit follows, and a whole register
PREFIX_REDUCTIONS = [
    ((3, 5, 10, True), [2, 1]),
    ((5, 4, 11, False), [1]),
    ((2, 6, 12, True), [3, 1, 2, 4, 5]),
    ((7, 3, 13, False), [3, 2, 1]),
]


@pytest.mark.parametrize("spec, subset", RANDOM_REDUCTIONS + PREFIX_REDUCTIONS)
def test_sliced_reductions_match_the_reference(monkeypatch, spec, subset):
    # RANK_CHUNK = 1 slices every reduction that has a complement, in real arithmetic
    state = _random_state(*spec)
    monkeypatch.setattr(dense, "RANK_CHUNK", 1)
    rho = reduced_density(state, subset)
    assert np.max(np.abs(rho - rho.conj().T)) < 64 * np.finfo(float).eps
    assert np.max(np.abs(rho - _partial_trace(state, subset))) < 1e-12
    # Im rho = C - C^T exactly, so its diagonal is exactly 0
    assert np.array_equal(rho.imag, -rho.imag.T)


def test_sliced_reductions_keep_an_imaginary_part_over_a_mixed_real_part(monkeypatch):
    # (|0> + i|1>)/sqrt(2) on qubit 1 has Re rho_1 = I/2 and Im rho_1 = [[0, -1/2], [1/2, 0]];
    # a real form that dropped or transposed C - C^T would pass the trace and the real part
    rng = np.random.default_rng(31)
    phi = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(2, 5, np.kron([1, 1j], phi / np.linalg.norm(phi)) / np.sqrt(2))
    monkeypatch.setattr(dense, "RANK_CHUNK", 1)
    rho = reduced_density(state, [1])
    assert np.max(np.abs(rho - _partial_trace(state, [1]))) < 1e-12
    assert np.max(np.abs(rho.real - np.eye(2) / 2)) < 1e-12
    assert rho.imag[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert not is_maximally_mixed(rho)
    assert uniformity_by_oracle(state) == 0


@pytest.mark.parametrize("p, n, k", [(3, 4, 2), (5, 5, 2), (5, 6, 1), (7, 6, 3)])
def test_sliced_reductions_give_the_same_oracle(monkeypatch, p, n, k):
    state = graph_state(bipartite_adjacency(mds_code(PrimeField(p), n, k)))
    monkeypatch.setattr(dense, "RANK_CHUNK", 1)
    assert uniformity_by_oracle(state) == k


@pytest.mark.parametrize("q, n, seed", [(3, 12, 1), (7, 7, 2)])
def test_the_dense_route_holds_one_state_and_one_slice(q, n, seed):
    # past the slicing size, a reduction holds one 1/q slice's bytes as floats,
    # and graph_state one byte of exponent per amplitude; copies of the state
    # would each add one more state. Qudit 2 is isolated, so the prefix {1, 2}
    # fails, k = 0 and every rho_S stays small
    assert 2 * q**n > dense.RANK_CHUNK
    adj = Adjacency(MatrixGF(PrimeField(q), _isolated(_random_gamma(q, n, 0.5, seed), 1)))
    size = 16 * q**n
    tracemalloc.start()
    try:
        state = graph_state(adj)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        k = uniformity_by_oracle(state)
        checked = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == uniformity_index(adj) == 0
    assert built - size < size / 8
    assert checked - size < (2 / q + 0.1) * size


@pytest.mark.parametrize("q, n, seed", [(3, 12, 3), (7, 7, 4)])
def test_a_sliced_reduction_holds_one_slice(q, n, seed):
    # [A | B] holds one 1/q slice's bytes; a slice and its conjugate would hold 2/q.
    # {2, 5} is no prefix, so each slice is gathered from a transposed view
    assert 2 * q**n > dense.RANK_CHUNK
    state = graph_state(Adjacency(MatrixGF(PrimeField(q), _random_gamma(q, n, 0.5, seed))))
    size = state.amplitudes.nbytes
    tracemalloc.start()
    try:
        rho = reduced_density(state, [2, 5])
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(rho - _partial_trace(state, [2, 5]))) < 1e-12
    assert held < (1 / q + 0.05) * size


# ---------------------------------------------------------------------------
# ranks by blocks against the SVD of the whole reduction
# ---------------------------------------------------------------------------

def _rank_by_svd(state: StateVector, subset) -> int:
    """rank rho_S by an SVD of reduced_density, counting above RANK_TOL * the largest.

    It reduces to the smaller of S and S^c, whose rho has the same nonzero
    spectrum, so that every proper subset of a register of 2e4 amplitudes
    stays within a 141 x 141 SVD. The whole register gives rho = |psi><psi|.
    """
    rest = sorted(set(range(1, state.n + 1)).difference(subset))
    side = rest if rest and len(rest) < len(set(subset)) else subset
    s = np.linalg.svd(reduced_density(state, side), compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


MAX_N = {2: 14, 3: 9, 5: 6, 7: 5}  # q^n <= 2e4


@st.composite
def supported_states(draw, p: int):
    """A state of q^n <= 2e4 amplitudes with a drawn support, and 1-4 proper subsets.

    The support is random, block diagonal for the first subset (rows of S
    and columns of S^c dealt into groups, an entry kept when its row and
    column share a group), a chain for the first subset (rows in a random
    order, each joined to the next through a column of its own, so that
    labelling the block takes several rounds), one amplitude, or full.
    Some states also get entries of exactly 1e-14 where they were zero:
    they are nonzero, so they stay in the support and may join blocks.
    """
    n = draw(st.integers(2, MAX_N[p]))
    dim = p**n
    subsets = draw(
        st.lists(st.sets(st.integers(1, n), min_size=1, max_size=n - 1), min_size=1, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "blocks", "chain", "one", "full"]))
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    keep = np.ones(dim, dtype=bool)
    digits = np.array(np.unravel_index(np.arange(dim), (p,) * n))
    axes = sorted(s - 1 for s in subsets[0])
    rest = sorted(set(range(n)).difference(axes))
    row = np.ravel_multi_index(tuple(digits[axes]), (p,) * len(axes))
    col = np.ravel_multi_index(tuple(digits[rest]), (p,) * len(rest))
    if kind == "random":
        keep = rng.random(dim) < draw(st.sampled_from([0.002, 0.02, 0.2, 0.6]))
    elif kind == "chain":
        links = min(p ** len(axes), p ** len(rest) + 1)
        chain = rng.permutation(p ** len(axes))[:links]
        link = rng.permutation(p ** len(rest))[: links - 1]
        held = np.zeros((p ** len(axes), p ** len(rest)), dtype=bool)
        held[chain[:-1], link] = held[chain[1:], link] = True
        keep = held[row, col]
    elif kind == "blocks":
        groups = draw(st.integers(1, 6))
        row_group = rng.integers(groups, size=p ** len(axes))
        col_group = rng.integers(groups, size=p ** len(rest))
        keep = row_group[row] == col_group[col]
        keep &= rng.random(dim) < draw(st.sampled_from([0.5, 1.0]))
    elif kind == "one":
        keep = np.zeros(dim, dtype=bool)
    keep[rng.integers(dim)] = True
    amp[~keep] = 0
    amp /= np.linalg.norm(amp)
    if draw(st.booleans()):
        zeros = np.flatnonzero(amp == 0)
        tiny = rng.choice(zeros, size=min(len(zeros), draw(st.integers(1, 40))), replace=False)
        amp[tiny] = 1e-14
    return StateVector(p, n, amp), [sorted(s) for s in subsets]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
@settings(max_examples=30)
def test_ranks_by_blocks_match_the_full_svd(p, data):
    state, subsets = data.draw(supported_states(p))
    want = [_rank_by_svd(state, subset) for subset in subsets]
    assert reduction_ranks(state, subsets) == want
    assert rank_of_reduction(state, subsets[0]) == want[0]


def _slocc_states(p: int, spec: str) -> StateVector:
    codes = level_codes(HierarchySpec.parse(PrimeField(p), spec))
    return state_from_code(codes[0]) if len(codes) == 1 else hierarchy_state_from_codes(*codes)


@pytest.mark.parametrize(
    "p, spec",
    [(5, "5:2"), (5, "5:2+2:1"), (5, "6:2"), (5, "6:2+2:1"), (7, "6:2"), (7, "6:2+3:1")],
)
def test_ranks_by_blocks_match_the_full_svd_on_slocc_states(p, spec):
    # every proper subset of the states the slocc corpus compares
    state = _slocc_states(p, spec)
    n = state.n
    subsets = [s for size in range(1, n) for s in combinations(range(1, n + 1), size)]
    assert reduction_ranks(state, subsets) == [_rank_by_svd(state, s) for s in subsets]


def test_ranks_by_blocks_on_random_and_whole_registers():
    for spec, subset in RANDOM_REDUCTIONS:
        state = _random_state(*spec)
        assert rank_of_reduction(state, subset) == _rank_by_svd(state, subset), (spec, subset)
    ghz = _slocc_states(3, "4:1")
    assert rank_of_reduction(ghz, [1, 2, 3, 4]) == 1 == _rank_by_svd(ghz, [1, 2, 3, 4])


def test_a_cut_is_ranked_once_on_the_side_that_holds_qudit_1(monkeypatch):
    # S = {2, 4, 6} and S^c = {1, 3, 5} split 6 qudits in half: all three
    # reductions take their rank from one pass over the side {1, 3, 5}
    state = _slocc_states(5, "6:2+2:1")
    passed = []
    rank = dense._ranks_in_one_pass

    def counted(support, values, q, n, sides):
        passed.append(sides)
        return rank(support, values, q, n, sides)

    monkeypatch.setattr(dense, "_ranks_in_one_pass", counted)
    ranks = reduction_ranks(state, [(2, 4, 6), (1, 3, 5), (6, 4, 2)])
    assert passed == [[(0, 2, 4)]]
    assert ranks == [_rank_by_svd(state, (1, 3, 5))] * 3


@pytest.mark.parametrize("chunk", [1, 7, 600])
def test_ranks_do_not_depend_on_how_many_entries_a_pass_holds(monkeypatch, chunk):
    state = _slocc_states(5, "6:2+2:1")
    subsets = [s for size in (1, 2, 3, 5) for s in combinations(range(1, 7), size)]
    want = reduction_ranks(state, subsets)
    monkeypatch.setattr(dense, "RANK_CHUNK", chunk)
    assert reduction_ranks(state, subsets) == want


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
