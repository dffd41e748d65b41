"""Dense complex state-vector oracle for qudit registers.

Everything here works directly on amplitude vectors of length q^n, so it
is independent of the symplectic machinery and serves as ground truth:
code-superposition states, graph states built by controlled-Z products,
local X/Z/Fourier gates, the hierarchy operator, partial traces, ranks,
and support counts.

Index convention: basis index = base-q digits of the qudit values with
qudit 1 the most significant digit.
"""

from __future__ import annotations

from itertools import combinations, product as iter_product

import numpy as np

from .codes import LinearCode, enumerate_codewords
from .errors import ResourceLimitError
from .graph import Adjacency

STATE_GUARD = 1 << 24  # max q**n amplitudes
MAX_QUDITS = STATE_GUARD.bit_length() - 1  # past this n, q**n > STATE_GUARD for every q >= 2
NORM_TOL = 1e-9
SUPPORT_TOL = 1e-9
RANK_TOL = 1e-8
MIX_TOL = 1e-8
OVERLAP_TOL = 1e-8


def _amplitude_count(q: int, n: int) -> int:
    """q**n, refused before it is formed whenever it would exceed STATE_GUARD."""
    if q >= 2 and n > MAX_QUDITS:
        raise ResourceLimitError(f"q^n = {q}^{n} amplitudes exceeds guard {STATE_GUARD}")
    dim = q**n
    if dim > STATE_GUARD:
        raise ResourceLimitError(f"q^n = {dim} amplitudes exceeds guard {STATE_GUARD}")
    return dim


class StateVector:
    """A normalized pure state of n qudits with local dimension q."""

    __slots__ = ("q", "n", "amplitudes")

    def __init__(self, q: int, n: int, amplitudes, normalize: bool = False):
        dim = _amplitude_count(q, n)
        amp = np.asarray(amplitudes, dtype=np.complex128)
        if amp.shape != (dim,):
            raise ValueError(f"amplitude vector must have length {dim}")
        norm = float(np.linalg.norm(amp))
        if normalize:
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            amp = amp / norm
        elif abs(norm - 1.0) > NORM_TOL:
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

    def equals_up_to_phase(self, other: "StateVector", tol: float = OVERLAP_TOL) -> bool:
        return self.overlap(other) >= 1.0 - tol

    def to_json(self, sparse: bool = False) -> dict:
        if sparse:
            idx = np.nonzero(np.abs(self.amplitudes) > SUPPORT_TOL)[0]
            amps = [
                [int(i), float(self.amplitudes[i].real), float(self.amplitudes[i].imag)]
                for i in idx
            ]
            return {"q": self.q, "n": self.n, "sparse": True, "amplitudes": amps}
        return {
            "q": self.q,
            "n": self.n,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StateVector":
        q, n = payload["q"], payload["n"]
        if payload.get("sparse"):
            amp = np.zeros(_amplitude_count(q, n), dtype=np.complex128)
            for i, re, im in payload["amplitudes"]:
                amp[i] = complex(re, im)
        else:
            amp = np.array([complex(re, im) for re, im in payload["amplitudes"]])
        return cls(q, n, amp)


def basis_state(q: int, n: int, digits) -> StateVector:
    """|d_1, ..., d_n> as a dense state."""
    digits = [int(d) % q for d in digits]
    if len(digits) != n:
        raise ValueError("need one digit per qudit")
    idx = 0
    for d in digits:
        idx = idx * q + d
    amp = np.zeros(q**n, dtype=np.complex128)
    amp[idx] = 1.0
    return StateVector(q, n, amp)


def _digit(q: int, n: int, qudit: int) -> np.ndarray:
    """Digit of each basis index at 1-based qudit position."""
    idx = np.arange(q**n, dtype=np.int64)
    return (idx // q ** (n - qudit)) % q


def state_from_code(code: LinearCode) -> StateVector:
    """Equal superposition of all codewords, amplitude q^{-k/2} each."""
    q = code.field.p
    n = code.n
    dim = _amplitude_count(q, n)
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
    dim = _amplitude_count(q, n)
    exps = np.zeros(dim, dtype=np.int64)
    ent = adj.gamma.entries
    for i in range(n):
        di = None
        for j in range(i + 1, n):
            if ent[i, j]:
                if di is None:
                    di = _digit(q, n, i + 1)
                exps += int(ent[i, j]) * di * _digit(q, n, j + 1)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    amp = roots[exps % q] / np.sqrt(dim)
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


def apply_local(state: StateVector, qudit: int, op: str) -> StateVector:
    """Apply a named local gate: "X", "X^a", "Z", "Z^a", "F", "F_inverse"."""
    token = op.strip()
    if token in ("F", "F_inverse", "F_inv"):
        return apply_fourier(state, qudit, inverse=token != "F")
    name, _, exp = token.partition("^")
    power = int(exp) if exp else 1
    if name == "X":
        return apply_x(state, qudit, power)
    if name == "Z":
        return apply_z(state, qudit, power)
    raise ValueError(f"unknown local operator {op!r}")


def _check_qudit(state: StateVector, qudit: int) -> None:
    if not 1 <= qudit <= state.n:
        raise ValueError(f"qudit index {qudit} out of range 1..{state.n}")


def apply_O(state: StateVector, n_star: int, sub_code: LinearCode) -> StateVector:
    """Rewrite the last n_star qudits through the hierarchy operator.

    On basis labels, |i_1 ... i_{n_star}> becomes
    Z^{-i_1} x ... x Z^{-i_{k_star}} x X^{i_{k_star+1}} x ... x X^{i_{n_star}}
    applied to the code-superposition state of sub_code; the map extends
    linearly and is unitary because the q^{n_star} images are orthonormal.
    """
    q = state.q
    if sub_code.field.p != q:
        raise ValueError("sub_code must share the state's local dimension")
    if not 2 <= n_star <= state.n:
        raise ValueError(f"n_star must lie in [2, {state.n}]")
    if sub_code.n != n_star:
        raise ValueError("sub_code length must equal n_star")
    k_star = sub_code.k
    base = state_from_code(sub_code)
    dim = q**n_star
    images = np.empty((dim, dim), dtype=np.complex128)
    for row, labels in enumerate(iter_product(range(q), repeat=n_star)):
        img = base
        for pos in range(k_star):
            img = apply_z(img, pos + 1, -labels[pos])
        for pos in range(k_star, n_star):
            img = apply_x(img, pos + 1, labels[pos])
        images[row] = img.amplitudes
    mat = state.amplitudes.reshape(q ** (state.n - n_star), dim)
    out = mat @ images
    return StateVector(state.q, state.n, out.reshape(-1), normalize=True)


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
    """rho_S: exact partial trace over the complement of subset (1-based)."""
    subset = sorted(set(int(s) for s in subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > state.n:
        raise ValueError("subset indices out of range")
    axes = [s - 1 for s in subset]
    rest = [i for i in range(state.n) if i not in axes]
    arr = np.transpose(state.tensor(), axes + rest)
    mat = arr.reshape(state.q ** len(axes), state.q ** len(rest))
    return mat @ mat.conj().T


def is_maximally_mixed(rho: np.ndarray, tol: float = MIX_TOL) -> bool:
    d = rho.shape[0]
    return bool(np.max(np.abs(rho - np.eye(d) / d)) < tol)


def uniformity_by_oracle(state: StateVector, tol: float = MIX_TOL) -> int:
    """Largest k with every reduction of size <= k maximally mixed."""
    for size in range(1, state.n // 2 + 1):
        for subset in combinations(range(1, state.n + 1), size):
            if not is_maximally_mixed(reduced_density(state, subset), tol=tol):
                return size - 1
    return state.n // 2


def rank_of_reduction(state: StateVector, subset, tol: float = RANK_TOL) -> int:
    """Numerical rank of rho_S: singular values above tol * largest."""
    rho = reduced_density(state, subset)
    s = np.linalg.svd(rho, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def support_count(state: StateVector, tol: float = SUPPORT_TOL) -> int:
    """Number of computational-basis amplitudes with modulus above tol."""
    return int(np.count_nonzero(np.abs(state.amplitudes) > tol))


def eigencheck(state: StateVector, x_exp, z_exp, tol: float = NORM_TOL) -> bool:
    """True iff prod_i X_i^{x[i]} Z_i^{z[i]} fixes the state within tol."""
    out = state
    for i, e in enumerate(np.asarray(z_exp, dtype=np.int64)):
        if e % state.q:
            out = apply_z(out, i + 1, int(e))
    for i, e in enumerate(np.asarray(x_exp, dtype=np.int64)):
        if e % state.q:
            out = apply_x(out, i + 1, int(e))
    return bool(np.max(np.abs(out.amplitudes - state.amplitudes)) <= tol)
