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
rho_S = M M^H per subset (for a large state, summed over q slices of M
as real products: half the multiply-adds, and no conjugate copy), and
saves work only through exact identities.
Maximal mixing passes down to subsets (a partial trace of I/d is again
maximally mixed) and its failure passes up to supersets, so one prefix
{1, ..., s} per size bounds k from above and one full size confirms it;
and at |S| = n/2 it checks only the subsets holding qudit 1, since rho_S
and rho_{S^c} of a pure state share their spectrum.

Ranks (the SLOCC rank tables) never form rho_S. The code-superposition
and hierarchy-operator states are exactly zero on all but q^k or
q^{k+k*} amplitudes, so reduction_ranks keeps only the exactly nonzero
entries of M, splits them into the connected blocks of their pattern
(rho_S is block diagonal over them) and ranks each block by the Gram on
its smaller side, one batched SVD per block shape. All subsets of a call
are ranked together from one support, so a subset costs work in the
support, not in q^n.

Index convention: basis index = base-q digits of the qudit values with
qudit 1 the most significant digit.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

from .codes import LinearCode, enumerate_codewords
from .errors import guarded_power, integer_array, is_int, json_counts
from .graph import Adjacency

STATE_GUARD = 1 << 24  # max q**n amplitudes
NORM_TOL = 1e-9
RANK_TOL = 1e-8
MIX_TOL = 1e-8
# entries a reduction's temporary arrays may hold before it splits them; past it
# reduced_density sums real products over 1/q slices, each held once as floats
RANK_CHUNK = 1 << 20


class StateVector:
    """A normalized pure state of n >= 1 qudits with local dimension q >= 2; both are ints."""

    __slots__ = ("q", "n", "amplitudes")

    def __init__(self, q: int, n: int, amplitudes):
        if not (is_int(q) and is_int(n)):
            raise ValueError(f"q and n must be integers, got {q!r} and {n!r}")
        if q < 2 or n < 1:
            raise ValueError(f"need q >= 2 and n >= 1, got {q} and {n}")
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
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
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
        """JSON payload: [re, im] pairs, or [index, re, im] for every nonzero amplitude when sparse.

        The reference payload: json_text writes its json.dumps text, and
        from_json reads it back. Built in bulk by tolist(), which yields
        Python ints and floats; an amplitude is left out of the sparse form
        only if it is exactly 0, so from_json gives back the same vector
        either way.
        """
        amp = np.ascontiguousarray(self.amplitudes)
        if sparse:
            idx = np.flatnonzero(amp)
            kept = amp[idx]
            entries = zip(idx.tolist(), kept.real.tolist(), kept.imag.tolist())
            amps = list(map(list, entries))
            return {"q": self.q, "n": self.n, "sparse": True, "amplitudes": amps}
        return {
            "q": self.q,
            "n": self.n,
            "amplitudes": amp.view(np.float64).reshape(-1, 2).tolist(),
        }

    def json_text(self, sparse: bool = False) -> str:
        """The state.json text, byte for byte that of the to_json payload.

        It equals json.dumps(self.to_json(sparse), sort_keys=True) + "\\n"
        without building that payload. A code state has two distinct
        amplitudes and a graph state at most q, so each distinct [re, im] is
        formatted once, by the float repr that json.dumps uses, and the
        entries are joined through the inverse index. The table is keyed by
        the amplitudes' bits, not their values: a key by value merges 0.0
        with -0.0, which json.dumps writes apart. The norm check keeps every
        part finite, so no NaN or Infinity occurs. The bits are sorted as
        two uint64 keys by lexsort; np.unique on a 16-byte void view
        compares them byte by byte, about six times slower on a 5^6 code
        state.
        """
        amp = np.ascontiguousarray(self.amplitudes)
        index = np.flatnonzero(amp) if sparse else None
        kept = amp[index] if sparse else amp
        re_bits, im_bits = kept.view(np.uint64).reshape(-1, 2).T
        order = np.lexsort((im_bits, re_bits))
        re_bits, im_bits = re_bits[order], im_bits[order]
        # a run of equal bits in sorted order is one distinct amplitude
        changed = (re_bits[1:] != re_bits[:-1]) | (im_bits[1:] != im_bits[:-1])
        starts = np.concatenate(([True], changed))
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(starts) - 1
        parts = kept[order[starts]].view(np.float64).reshape(-1, 2).tolist()
        tails = [f"{re!r}, {im!r}]" for re, im in parts]
        if sparse:
            entries = [f"[{i}, {tails[j]}" for i, j in zip(index.tolist(), inverse.tolist())]
            flag = ', "sparse": true'
        else:
            heads = ["[" + tail for tail in tails]
            entries = [heads[j] for j in inverse.tolist()]
            flag = ""
        return f'{{"amplitudes": [{", ".join(entries)}], "n": {self.n}, "q": {self.q}{flag}}}\n'

    @classmethod
    def from_json(cls, payload: dict) -> "StateVector":
        """The state of a to_json payload, read exactly.

        q and n must be integers, and booleans do not count; the
        constructor refuses q < 2 and n < 1. In the sparse form every index
        must be an integer in [0, q^n) that appears once; nothing wraps
        around or overwrites another entry.
        Every real and imaginary part must be an int or a float (booleans
        do not count), each entry a list of its form's length, and the norm
        finite and within NORM_TOL of 1. Each of these refusals is a
        ValueError.
        """
        q, n = json_counts(payload, ("q", "n"), "amplitudes")
        if not isinstance(sparse := payload.get("sparse", False), bool):
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
            index = integer_array(index, "sparse indices")
            ordered = np.sort(index)
            if index.ndim != 1 or ordered[0] < 0 or ordered[-1] >= dim:
                raise ValueError(f"sparse indices must lie in [0, {dim})")
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("sparse indices repeat")
            amp.real[index], amp.imag[index] = _float_parts(re + im).reshape(2, -1)
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

    Each of the E edges adds its q x q table Gamma_ij a b mod q, below q,
    so the exponents are summed exactly in the smallest unsigned type that
    holds E (q - 1) (and q), reduced mod q once, and gathered from a table
    of the q roots already divided by sqrt(q^n). The only q^n arrays are
    those exponents and the amplitudes; each amplitude is the same root
    divided by the same sqrt(q^n) as in a per-basis-state sum.
    """
    q = adj.field.p
    n = adj.n
    dim = guarded_power(q, n, STATE_GUARD, "state guard")
    ent = adj.gamma.entries
    edges = list(zip(*np.nonzero(np.triu(ent, 1))))
    exps = np.zeros((q,) * n, dtype=np.min_scalar_type(max(len(edges) * (q - 1), q)))
    digits = np.arange(q)
    for i, j in edges:
        # edge (i, j) adds its table along axes i < j
        shape = [1] * n
        shape[i] = shape[j] = q
        table = np.outer(int(ent[i, j]) * digits, digits) % q
        exps += table.astype(exps.dtype).reshape(shape)
    exps %= q
    roots = np.exp(2j * np.pi * digits / q) / np.sqrt(dim)
    return StateVector(q, n, roots[exps.reshape(-1)])


def apply_x(state: StateVector, qudit: int, power: int = 1) -> StateVector:
    """X^power on one qudit: |j> -> |j + power mod q>. Qudits are 1-based."""
    _check_qudit(state, qudit, power)
    arr = np.roll(state.tensor(), power % state.q, axis=qudit - 1)
    return StateVector(state.q, state.n, arr.reshape(-1))


def apply_z(state: StateVector, qudit: int, power: int = 1) -> StateVector:
    """Z^power on one qudit: |j> -> omega^{power j} |j>."""
    _check_qudit(state, qudit, power)
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


def _check_qudit(state: StateVector, qudit: int, power: int = 0) -> None:
    """Refuse a qudit that is not an int in 1..n, or a gate power that is not an int."""
    if not is_int(qudit) or not 1 <= qudit <= state.n:
        raise ValueError(f"qudit index {qudit!r} is not an integer in 1..{state.n}")
    if not is_int(power):
        raise ValueError(f"gate power must be an integer, got {power!r}")


def apply_O(state: StateVector, sub_code: LinearCode) -> StateVector:
    """The hierarchy operator of sub_code on the last n* = sub_code.n qudits.

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
    if not 2 <= sub_code.n <= state.n:
        raise ValueError(f"sub_code length must lie in [2, {state.n}]")
    k_star, tail = sub_code.k, sub_code.n - sub_code.k
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
    if sub_code.n > code.n - code.k:
        raise ValueError(f"sub_code length {sub_code.n} exceeds n - k = {code.n - code.k}")
    return apply_O(state_from_code(code), sub_code)


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


def _subset_axes(state: StateVector, subset) -> list[int]:
    """The 0-based axes of a 1-based subset; repeats and order are ignored."""
    subset = integer_array(subset, "subset")
    if subset.ndim != 1:
        raise ValueError("subset must be a flat list of qudit indices")
    subset = sorted(set(subset.tolist()))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > state.n:
        raise ValueError("subset indices out of range")
    return [s - 1 for s in subset]


def reduced_density(state: StateVector, subset) -> np.ndarray:
    """rho_S = M M^H, the exact partial trace over the complement of subset.

    Qudits are 1-based; repeats and order in subset are ignored, and rho_S
    is indexed by the qudits of S in ascending order. M is the amplitude
    tensor with S's digits as rows and the rest's as columns, so one
    reduction costs d_S^2 d_rest complex multiply-adds.

    While M and its conjugate stay within RANK_CHUNK entries together, or
    S is the whole register, rho_S is one complex product; M is a copy
    unless S's digits already come first. Past that, rho_S is summed over
    the q values c of the complement's first digit, in real arithmetic.
    The d_S x w slice M_c = A + iB with that digit fixed (w = d_rest / q)
    is a view of the state, whose real and imaginary parts are copied
    straight into one d_S x 2w float buffer [A | B]. With
    R = sum [A | B][A | B]^T, one symmetric product per slice that forms
    one triangle, and C = sum B A^T,

        rho_S = R + i (C - C^T),

    since Re M_c M_c^H = A A^T + B B^T and Im M_c M_c^H = B A^T - A B^T.
    That is 2 d_S^2 w real multiply-adds per slice, where the complex
    product takes 4 d_S^2 w, and a reduction holds one slice's bytes
    besides R, C, one d_S x d_S product and rho_S. The imaginary part is
    exactly antisymmetric, so its diagonal is exactly 0. Below the slicing
    size the real form was slower (0.35-0.9x on reductions of 5^6, 5^4
    and 3^4 registers), so it is not used there; past it, it is slower too
    where d_S = q, whose skinny product is bound by memory traffic.
    """
    axes = _subset_axes(state, subset)
    rest = [i for i in range(state.n) if i not in axes]
    d = state.q ** len(axes)
    if not rest or 2 * state.amplitudes.size <= RANK_CHUNK:
        mat = np.transpose(state.tensor(), axes + rest).reshape(d, -1)
        return mat @ mat.conj().T
    arr = np.transpose(state.tensor(), rest[:1] + axes + rest[1:])
    total, cross = _slice_sums(arr, len(axes))
    rho = np.empty((d, d), dtype=np.complex128)
    rho.real = total
    np.subtract(cross, cross.T, out=rho.imag)
    return rho


def _slice_sums(arr: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """R = sum_c [A | B][A | B]^T and C = sum_c B A^T over the slices arr[c] = A + iB.

    The first rows axes of a slice index its d rows. Its parts are copied
    into one float buffer, [A | B] row by row, through views of A and of B
    in the slice's own shape, so a slice in any axis order needs no other
    copy. The buffer and the one d x d product are freed when this
    returns, before reduced_density forms rho_S.
    """
    d = math.prod(arr.shape[1:rows + 1])
    parts = np.empty(arr.shape[1:rows + 1] + (2,) + arr.shape[rows + 1:])
    halves = np.moveaxis(parts, rows, 0)
    pair = parts.reshape(d, -1)
    real, imag = parts.reshape(d, 2, -1).transpose(1, 0, 2)
    total, cross, gram = np.zeros((d, d)), np.zeros((d, d)), np.empty((d, d))
    for part in arr:
        np.copyto(halves[0], part.real)
        np.copyto(halves[1], part.imag)
        total += np.matmul(pair, pair.T, out=gram)
        cross += np.matmul(imag, real.T, out=gram)
    return total, cross


def is_maximally_mixed(rho: np.ndarray) -> bool:
    """Every entry of rho within MIX_TOL of I/d, compared in one float d x d array.

    The deviations are |rho_ij| off the diagonal and |rho_ii - 1/d| on it,
    the same floats as abs(rho - I/d) entry for entry. Forming no eye and
    no complex difference keeps the transient at half of rho's bytes,
    which counts at |S| = n/2, where rho has q^n entries.
    """
    d = rho.shape[0]
    deviation = np.abs(rho)
    np.fill_diagonal(deviation, np.abs(rho.diagonal() - 1 / d))
    return bool(deviation.max() < MIX_TOL)


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
    """Numerical rank of rho_S: eigenvalues above RANK_TOL * the largest.

    One subset of reduction_ranks, which never forms rho_S itself.
    """
    return reduction_ranks(state, [subset])[0]


def reduction_ranks(state: StateVector, subsets) -> list[int]:
    """rank(rho_S) for each subset S, from the state's exactly nonzero amplitudes.

    rho_S = M M^H, with M the amplitudes with S's digits as rows and the
    rest's as columns. Three exact identities shrink it:

    * a row or column of M that is exactly zero adds exact zeros to rho_S,
      so only the support entries of M are kept (no tolerance is applied);
    * rows that share no column have a zero inner product, so rho_S is
      block diagonal over the connected blocks of the support pattern, and
      its spectrum is the union of the blocks' spectra;
    * a block B has the nonzero spectrum of its Gram on its smaller side,
      B B^H or B^H B; a block of one row or column has the 1 x 1 Gram of
      its squared norm. rho_S and rho_{S^c} share their nonzero spectrum
      too, so the smaller of S and S^c gives the rows, the one that holds
      qudit 1 at |S| = n/2; the rows are labelled through dense arrays of
      q^{min(|S|, n - |S|)} entries, and each distinct side is ranked once.

    Each Gram is ranked as rank_of_reduction always did: one batched SVD
    per block shape, counting singular values above RANK_TOL times the
    largest over all blocks of the subset. Blocks are found by min-label
    propagation between rows and columns, sorted by column key, with
    pointer jumping; a support made of complete blocks, as every code and
    hierarchy state is, settles in one round. The support is found once
    per call, and all subsets are ranked together, in passes whose arrays
    stay below RANK_CHUNK entries (one subset per pass at least). A subset
    costs O(s log s) for a support of s entries, plus q^{min(|S|, n - |S|)}
    row labels and its blocks' Grams, however large q^n is.
    """
    n, q = state.n, state.q
    slots = {}  # each distinct side, and its place among them
    picks = []
    for subset in subsets:
        axes = _subset_axes(state, subset)
        rest = sorted(set(range(n)).difference(axes))
        side = tuple(min(axes, rest, key=lambda cut: (len(cut), cut)))
        picks.append(slots.setdefault(side, len(slots)))
    sides = list(slots)
    support = np.flatnonzero(state.amplitudes)
    values = state.amplitudes[support]
    s, half = len(support), q ** (n // 2)
    per_pass = max(1, RANK_CHUNK // max(half, s * min(s, half)))
    ranks = []
    for lo in range(0, len(sides), per_pass):
        ranks += _ranks_in_one_pass(support, values, q, n, sides[lo:lo + per_pass])
    return [ranks[pick] for pick in picks]


def _ranks_in_one_pass(support, values, q: int, n: int, sides) -> list[int]:
    """The rank of each reduction, given its row side, over one support.

    Support entry e of subset j is an edge from row (j, e's digits on the
    side) to column (j, e's other digits). Rows are numbered densely, subset
    after subset; a column is keyed by e's index with the side's digits
    zeroed, plus j q^n. Keys are formed in float64, exactly, since each is
    below q^n <= STATE_GUARD.
    """
    m, s = len(sides), len(support)
    place = q ** np.arange(n - 1, -1, -1)
    owner = [j for j, side in enumerate(sides) for _ in side]
    axis = [i for side in sides for i in side]
    weights = np.zeros((2 * m, n))
    weights[owner, axis] = [q ** (len(side) - 1 - t) for side in sides for t in range(len(side))]
    weights[[m + j for j in owner], axis] = place[axis]
    keys = np.empty((2 * m, s), dtype=np.int64)
    step = max(1, RANK_CHUNK // n)
    for lo in range(0, s, step):
        keys[:, lo:lo + step] = weights @ (support[lo:lo + step] // place[:, None] % q)
    width = [q ** len(side) for side in sides]
    rows = (keys[:m] + np.cumsum([0] + width[:-1])[:, None]).ravel()
    cols = (support - keys[m:] + q**n * np.arange(m)[:, None]).ravel()
    order = np.argsort(cols)
    cols, rows = cols[order], rows[order]
    new_col = np.empty(len(cols), dtype=bool)
    new_col[0] = True
    np.not_equal(cols[1:], cols[:-1], out=new_col[1:])
    col_start = np.flatnonzero(new_col)
    col = np.cumsum(new_col) - 1

    # label each row by the least row of its block: pull each column's least
    # label into its rows, then jump to the label's label, until every column
    # holds one label
    label = np.arange(sum(width))
    while True:
        root = label[rows]
        least = np.minimum.reduceat(root, col_start)[col]
        if np.array_equal(root, least):
            break
        np.minimum.at(label, rows, least)
        label = label[label]

    # a block is named by its root, its least row
    present = np.zeros(len(label), dtype=bool)
    present[rows] = True
    row = np.flatnonzero(present)
    height = np.bincount(label[row], minlength=len(label))
    col_root = root[col_start]
    breadth = np.bincount(col_root, minlength=len(label))
    blocks = np.flatnonzero(height)
    thin = np.minimum(height, breadth) == 1
    subset_of = np.repeat(np.arange(m), width)
    values = values[order % s]
    norms = np.bincount(root, weights=np.abs(values) ** 2, minlength=len(label))
    single = blocks[thin[blocks]]
    spectra = [(subset_of[single], norms[single, None])]
    wide = blocks[~thin[blocks]]
    if len(wide):
        spectra += _wide_spectra(wide, label, root, rows, row, col, col_root, values,
                                 height, breadth, subset_of)
    owners = np.concatenate([owner for owner, _ in spectra])
    top = np.zeros(m)
    np.maximum.at(top, owners, np.concatenate([sv[:, 0] for _, sv in spectra]))
    above = [np.count_nonzero(sv > RANK_TOL * top[owner, None], axis=1) for owner, sv in spectra]
    return np.bincount(owners, weights=np.concatenate(above), minlength=m).astype(int).tolist()


def _wide_spectra(wide, label, root, rows, row, col, col_root, values, height, breadth, subset_of):
    """Gram spectra of the blocks named in wide, one batched SVD per block shape.

    Each block's rows and columns are numbered from 0 in ascending order,
    and the blocks of one shape fill consecutive runs of one buffer.
    """
    R = len(label)
    start = np.zeros(R, dtype=np.int64)
    start[wide] = np.cumsum(height[wide]) - height[wide]
    held = np.zeros(R, dtype=bool)
    held[wide] = True
    mine = row[held[label[row]]]
    mine = mine[np.argsort(label[mine] * R + mine)]
    row_pos = np.zeros(R, dtype=np.int64)
    row_pos[mine] = np.arange(len(mine)) - start[label[mine]]
    start[wide] = np.cumsum(breadth[wide]) - breadth[wide]
    mine = np.flatnonzero(held[col_root])
    mine = mine[np.argsort(col_root[mine] * len(col_root) + mine)]
    col_pos = np.zeros(len(col_root), dtype=np.int64)
    col_pos[mine] = np.arange(len(mine)) - start[col_root[mine]]

    shape = height[wide] * (breadth.max() + 1) + breadth[wide]
    ranked = np.argsort(shape)
    wide, shape = wide[ranked], shape[ranked]
    size = height[wide] * breadth[wide]
    offset = np.zeros(R, dtype=np.int64)
    offset[wide] = np.cumsum(size) - size
    keep = held[root]
    b = root[keep]
    buf = np.zeros(int(size.sum()), dtype=np.complex128)
    buf[offset[b] + row_pos[rows[keep]] * breadth[b] + col_pos[col[keep]]] = values[keep]
    spectra = []
    bounds = [0, *(np.flatnonzero(shape[1:] != shape[:-1]) + 1).tolist(), len(shape)]
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        group = wide[g0:g1]
        r, c, o = int(height[group[0]]), int(breadth[group[0]]), int(offset[group[0]])
        mat = buf[o:o + len(group) * r * c].reshape(len(group), r, c)
        adj = mat.conj().swapaxes(1, 2)
        gram = mat @ adj if r <= c else adj @ mat
        spectra.append((subset_of[group], np.linalg.svd(gram, compute_uv=False)))
    return spectra


def support_count(state: StateVector) -> int:
    """Number of computational-basis amplitudes that are not exactly 0."""
    return int(np.count_nonzero(state.amplitudes))


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
