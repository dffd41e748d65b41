"""Dense complex state-vector oracle for qudit registers.

Everything here works directly on amplitude vectors of length q^n, so it
is independent of the symplectic machinery and serves as ground truth:
code-superposition states, graph states built by controlled-Z products,
local X/Z/Fourier gates, the hierarchy operator, partial traces, ranks,
and support counts. Every state is refused past STATE_GUARD amplitudes.

The hierarchy operator O of a sub-code [n*, k*] with G* = [I | A*] acts
on the last n* qudits. Split them into k* message digits a and
n* - k* digits b; then

    O |a, b> = q^{-k*/2} sum_m omega^{-a.m} |m, m A* + b>,

a Fourier transform over Z_q^{k*} on a followed by a shift of b by the
codeword tail of m. apply_O does exactly that: one matmul, one gather.

The uniformity oracle checks reductions literally, one Gram product
rho_S = M M^H per subset, and saves work only through exact identities.
Maximal mixing passes down to subsets (a partial trace of I/d is again
maximally mixed) and its failure passes up to supersets, so one prefix
{1, ..., s} per size bounds k from above and one full size confirms it;
and at |S| = n/2 it checks only the subsets holding qudit 1, since rho_S
and rho_{S^c} of a pure state share their spectrum.

Index convention: basis index = base-q digits of the qudit values with
qudit 1 the most significant digit.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

from .codes import LinearCode, enumerate_codewords
from .errors import guarded_power, integer_array
from .graph import Adjacency

STATE_GUARD = 1 << 24  # max q**n amplitudes
NORM_TOL = 1e-9
SUPPORT_TOL = 1e-9
RANK_TOL = 1e-8
MIX_TOL = 1e-8


class StateVector:
    """A normalized pure state of n qudits with local dimension q."""

    __slots__ = ("q", "n", "amplitudes")

    def __init__(self, q: int, n: int, amplitudes):
        dim = guarded_power(q, n, STATE_GUARD, "state guard")
        amp = np.asarray(amplitudes, dtype=np.complex128)
        if amp.shape != (dim,):
            raise ValueError(f"amplitude vector must have length {dim}")
        norm = float(np.linalg.norm(amp))
        if not math.isfinite(norm):
            raise ValueError(f"state norm {norm} is not finite")
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amp.setflags(write=False)
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "amplitudes", amp)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self) -> str:
        return f"StateVector(q={self.q}, n={self.n})"

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape([self.q] * self.n)

    def overlap(self, other: "StateVector") -> float:
        """|<self|other>|, the phase-insensitive fidelity amplitude."""
        if (other.q, other.n) != (self.q, self.n):
            raise ValueError("states live on different registers")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)))

    def to_json(self, sparse: bool = False) -> dict:
        """JSON payload: [re, im] pairs, or [index, re, im] over the support when sparse.

        Built in bulk by tolist(), which yields Python ints and floats.
        """
        amp = np.ascontiguousarray(self.amplitudes)
        if sparse:
            idx = np.nonzero(np.abs(amp) > SUPPORT_TOL)[0]
            kept = amp[idx]
            entries = zip(idx.tolist(), kept.real.tolist(), kept.imag.tolist())
            amps = list(map(list, entries))
            return {"q": self.q, "n": self.n, "sparse": True, "amplitudes": amps}
        return {
            "q": self.q,
            "n": self.n,
            "amplitudes": amp.view(np.float64).reshape(-1, 2).tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StateVector":
        """The state of a to_json payload, read exactly.

        q >= 2 and n >= 1 must be integers, and booleans do not count. In
        the sparse form every index must be an integer in [0, q^n) that
        appears once; nothing wraps around or overwrites another entry.
        Every real and imaginary part must be an int or a float (booleans
        do not count), each entry a list of its form's length, and the norm
        finite and within NORM_TOL of 1. Each of these refusals is a
        ValueError.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        for key in ("q", "n", "amplitudes"):
            if key not in payload:
                raise ValueError(f"missing key {key!r}")
        q, n, sparse = payload["q"], payload["n"], payload.get("sparse", False)
        if type(q) is not int or type(n) is not int or q < 2 or n < 1:
            raise ValueError(f"'q' >= 2 and 'n' >= 1 must be integers, got {q!r} and {n!r}")
        if not isinstance(sparse, bool):
            raise ValueError(f"'sparse' must be a boolean, got {sparse!r}")
        if not sparse:
            return cls(q, n, _dense_amplitudes(payload["amplitudes"]))
        dim = guarded_power(q, n, STATE_GUARD, "state guard")
        amp = np.zeros(dim, dtype=np.complex128)
        if payload["amplitudes"]:
            # checked a column at a time: per-entry Python would dominate a reload
            try:
                index, re, im = zip(*payload["amplitudes"], strict=True)
            except TypeError:  # a null, number or other unsized entry
                raise ValueError("sparse amplitudes must be [index, re, im] triples") from None
            if set(map(type, index)) != {int}:
                raise ValueError("sparse indices must be integers")
            index = np.array(index)  # object dtype if an index overflows int64
            if index.dtype.kind != "i" or index.min() < 0 or index.max() >= dim:
                raise ValueError(f"sparse indices must lie in [0, {dim})")
            ordered = np.sort(index)
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("sparse indices repeat")
            amp.real[index] = _float_parts(re)
            amp.imag[index] = _float_parts(im)
        return cls(q, n, amp)


def _float_parts(values) -> np.ndarray:
    """Real or imaginary parts as float64; each must be an int or a float, not a bool."""
    if not set(map(type, values)) <= {int, float}:
        raise ValueError("amplitude parts must be numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError("an amplitude part overflows a float") from None


def _dense_amplitudes(pairs) -> np.ndarray:
    """The complex vector of a dense payload's [re, im] pairs, read exactly.

    Checked a pass at a time over the whole list: per-entry Python would
    dominate a reload.
    """
    try:
        paired = set(map(len, pairs)) <= {2}
        parts = list(chain.from_iterable(pairs))
    except TypeError:  # a null, number or other unsized entry
        paired = False
    if not paired:
        raise ValueError("dense amplitudes must be [re, im] pairs")
    return _float_parts(parts).view(np.complex128)


def state_from_code(code: LinearCode) -> StateVector:
    """Equal superposition of all codewords, amplitude q^{-k/2} each."""
    q = code.field.p
    n = code.n
    dim = guarded_power(q, n, STATE_GUARD, "state guard")
    words = enumerate_codewords(code)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    idx = words @ powers
    amp = np.zeros(dim, dtype=np.complex128)
    amp[idx] = q ** (-code.k / 2)
    return StateVector(q, n, amp)


def graph_state(adj: Adjacency) -> StateVector:
    """Uniform superposition with phase omega^{sum_{i<j} Gamma_ij z_i z_j}.

    This is the product of controlled-Z gates CZ^{Gamma_ij} applied to
    |+>^n, the joint +1 eigenstate of the generators X_i prod_j Z_j^{Gamma_ij}.
    """
    q = adj.field.p
    n = adj.n
    dim = guarded_power(q, n, STATE_GUARD, "state guard")
    exps = np.zeros((q,) * n, dtype=np.int64)
    products = np.outer(np.arange(q), np.arange(q))
    ent = adj.gamma.entries
    for i, j in zip(*np.nonzero(np.triu(ent, 1))):
        # edge (i, j) adds its q x q table Gamma_ij * a * b along axes i < j
        shape = [1] * n
        shape[i] = shape[j] = q
        exps += (int(ent[i, j]) * products % q).reshape(shape)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    amp = roots[exps.reshape(-1) % q] / np.sqrt(dim)
    return StateVector(q, n, amp)


def apply_x(state: StateVector, qudit: int, power: int = 1) -> StateVector:
    """X^power on one qudit: |j> -> |j + power mod q>. Qudits are 1-based."""
    _check_qudit(state, qudit)
    arr = np.roll(state.tensor(), power % state.q, axis=qudit - 1)
    return StateVector(state.q, state.n, arr.reshape(-1))


def apply_z(state: StateVector, qudit: int, power: int = 1) -> StateVector:
    """Z^power on one qudit: |j> -> omega^{power j} |j>."""
    _check_qudit(state, qudit)
    q = state.q
    phases = np.exp(2j * np.pi * ((power % q) * np.arange(q) % q) / q)
    shape = [1] * state.n
    shape[qudit - 1] = q
    arr = state.tensor() * phases.reshape(shape)
    return StateVector(state.q, state.n, arr.reshape(-1))


def fourier_matrix(q: int, inverse: bool = False) -> np.ndarray:
    """F[b, a] = omega^{+-ab} / sqrt(q)."""
    sign = -1 if inverse else 1
    a = np.arange(q)
    return np.exp(sign * 2j * np.pi * np.outer(a, a) / q) / np.sqrt(q)


def apply_fourier(state: StateVector, qudit: int, inverse: bool = False) -> StateVector:
    """Single-qudit Fourier gate |a> -> sum_b omega^{+-ab} |b> / sqrt(q).

    The inverse direction (kernel omega^{-ab}) is the one that maps X to
    Z^{-1} and Z to X, i.e. the gate converting code-superposition states
    into their graph form.
    """
    _check_qudit(state, qudit)
    f = fourier_matrix(state.q, inverse=inverse)
    arr = np.tensordot(f, state.tensor(), axes=([1], [qudit - 1]))
    arr = np.moveaxis(arr, 0, qudit - 1)
    return StateVector(state.q, state.n, np.ascontiguousarray(arr).reshape(-1))


def _check_qudit(state: StateVector, qudit: int) -> None:
    if not 1 <= qudit <= state.n:
        raise ValueError(f"qudit index {qudit} out of range 1..{state.n}")


def apply_O(state: StateVector, n_star: int, sub_code: LinearCode) -> StateVector:
    """The hierarchy operator of sub_code on the last n_star qudits.

    Those qudits split into the k* message digits a and the remaining
    digits b, and

        O |a, b> = q^{-k*/2} sum_m omega^{-a.m} |m, m A* + b>,

    which on basis labels is Z^{-a_1} x ... x Z^{-a_{k*}} x X^{b_1} x ...
    applied to the code-superposition state of sub_code. The a digits are
    contracted with the table W[m, a] = omega^{-a.m} / q^{k*/2} in one
    matmul, giving Y; then out[x, m, c] = Y[x, m, (c - m A*) mod q], one
    gather. W is a Fourier transform and the gather permutes each m's
    block, so O is unitary and the result needs no renormalization. W has
    q^{2k*} entries, so for k* <= n*/2, as at every hierarchy level,
    nothing formed is larger than the state.
    """
    q = state.q
    if sub_code.field.p != q:
        raise ValueError("sub_code must share the state's local dimension")
    if not 2 <= n_star <= state.n:
        raise ValueError(f"n_star must lie in [2, {state.n}]")
    if sub_code.n != n_star:
        raise ValueError("sub_code length must equal n_star")
    k_star, tail = sub_code.k, n_star - sub_code.k
    words = enumerate_codewords(sub_code)  # row m: (m, m A*)
    messages, shifts = words[:, :k_star], words[:, k_star:]
    roots = np.exp(-2j * np.pi * np.arange(q) / q)
    w = roots[messages @ messages.T % q] / np.sqrt(len(words))
    y = w @ state.amplitudes.reshape(-1, len(words), q**tail)
    # source[m, c] = base-q index of (c - m A*) mod q, built one digit at a time
    source = np.zeros((len(words),) + (1,) * tail, dtype=np.int64)
    for j in range(tail):
        shape = [len(words)] + [1] * tail
        shape[j + 1] = q
        digit = (np.arange(q) - shifts[:, j, None]) % q * q ** (tail - 1 - j)
        source = source + digit.reshape(shape)
    rows = np.arange(len(words))[:, None]
    out = y[:, rows, source.reshape(len(words), -1)]
    return StateVector(q, state.n, out.reshape(-1))


def hierarchy_state_from_codes(code: LinearCode, sub_code: LinearCode) -> StateVector:
    """Level-1 hierarchy state: identity on the first n - n* qudits, O on the rest."""
    n_star = sub_code.n
    if not 2 <= n_star <= code.n - code.k:
        raise ValueError(
            f"sub_code length {n_star} must lie in [2, n - k] = [2, {code.n - code.k}]"
        )
    return apply_O(state_from_code(code), n_star, sub_code)


def code_to_graph_fourier_positions(n: int, k: int, n_star: int = 0, k_star: int = 0) -> list[int]:
    """Qudit positions Fourier-converted to reach graph form.

    For the plain code state all of the last n - k qudits are converted;
    for a level-1 hierarchy state the k_star qudits already carrying Z
    labels (positions n - n_star + 1 .. n - n_star + k_star) stay untouched.
    """
    skip = set(range(n - n_star + 1, n - n_star + k_star + 1))
    return [pos for pos in range(k + 1, n + 1) if pos not in skip]


def to_graph_form(state: StateVector, positions) -> StateVector:
    """Inverse-Fourier the listed qudit positions (1-based)."""
    out = state
    for pos in positions:
        out = apply_fourier(out, pos, inverse=True)
    return out


def reduced_density(state: StateVector, subset) -> np.ndarray:
    """rho_S = M M^H, the exact partial trace over the complement of subset.

    Qudits are 1-based; repeats and order in subset are ignored, and rho_S
    is indexed by the qudits of S in ascending order. M is the amplitude
    tensor with S's digits as rows and the rest's as columns, so one
    reduction costs d_S^2 d_rest complex multiply-adds.
    """
    subset = sorted(set(integer_array(subset, "subset").tolist()))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > state.n:
        raise ValueError("subset indices out of range")
    axes = [s - 1 for s in subset]
    rest = [i for i in range(state.n) if i not in axes]
    arr = np.transpose(state.tensor(), axes + rest)
    mat = arr.reshape(state.q ** len(axes), state.q ** len(rest))
    return mat @ mat.conj().T


def is_maximally_mixed(rho: np.ndarray) -> bool:
    d = rho.shape[0]
    return bool(np.max(np.abs(rho - np.eye(d) / d)) < MIX_TOL)


def _all_maximally_mixed(state: StateVector, size: int) -> bool:
    """Every reduction to size qudits maximally mixed, save the prefix {1, ..., size}.

    The caller has checked the prefix, the first subset in combinations
    order. At |S| = n/2 only the subsets holding qudit 1 are checked. The
    others are their complements, and rho_S and rho_{S^c} of a pure state
    have the same spectrum, so when their dimensions are equal one is I/d
    exactly when the other is.
    """
    n = state.n
    subsets = combinations(range(1, n + 1), size)
    if 2 * size == n:
        subsets = (s for s in subsets if s[0] == 1)
    return all(is_maximally_mixed(reduced_density(state, s)) for s in islice(subsets, 1, None))


def uniformity_by_oracle(state: StateVector) -> int:
    """Largest k with every reduction to at most k qudits maximally mixed.

    Two exact facts order the work. If rho_S is I/d, so is every partial
    trace of it, so one size whose reductions all pass gives k >= size. If
    rho_S is not I/d, no superset of S within n/2 qudits is, so one failing
    reduction gives k < |S|. The oracle first checks the prefix
    {1, ..., s} of each size from 1 up (it needs no transposed copy); the
    largest size m below the first failing prefix bounds k <= m. It then
    checks every subset of size m: if all pass, k = m. An AME state thus
    skips all but one reduction of each smaller size, and a state of low k
    stops near k, as a check from 1 up does. Otherwise k < m, and sizes are
    checked in full from 1 up until one fails.

    Both facts hold in exact arithmetic. is_maximally_mixed compares
    entries with MIX_TOL, so the result equals the check of every subset
    of every size only for states whose error is far below MIX_TOL / d, as
    the graph and code states built here are.
    """
    n = state.n
    m = next(
        (s - 1 for s in range(1, n // 2 + 1)
         if not is_maximally_mixed(reduced_density(state, range(1, s + 1)))),
        n // 2,
    )
    if m == 0 or _all_maximally_mixed(state, m):
        return m
    for size in range(1, m):
        if not _all_maximally_mixed(state, size):
            return size - 1
    return m - 1


def rank_of_reduction(state: StateVector, subset) -> int:
    """Numerical rank of rho_S: singular values above RANK_TOL * largest."""
    rho = reduced_density(state, subset)
    s = np.linalg.svd(rho, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def support_count(state: StateVector) -> int:
    """Number of computational-basis amplitudes with modulus above SUPPORT_TOL."""
    return int(np.count_nonzero(np.abs(state.amplitudes) > SUPPORT_TOL))


def eigencheck(state: StateVector, x_exp, z_exp) -> bool:
    """True iff prod_i X_i^{x[i]} Z_i^{z[i]} fixes the state within NORM_TOL."""
    out = state
    for i, e in enumerate(integer_array(z_exp, "z exponents")):
        if e % state.q:
            out = apply_z(out, i + 1, int(e))
    for i, e in enumerate(integer_array(x_exp, "x exponents")):
        if e % state.q:
            out = apply_x(out, i + 1, int(e))
    return bool(np.max(np.abs(out.amplitudes - state.amplitudes)) <= NORM_TOL)
