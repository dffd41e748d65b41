"""Classical linear codes [n, k]_q in standard form G = [I_k | A].

Covers codeword enumeration, exact minimum distance by information-set
enumeration, dual codes, and construction of A matrices with all square
submatrices nonsingular (the MDS property) from Singleton arrays. Nothing
here imports the sweep (stabilizer, _kernels) or the dense oracle: the
structural route must stay independent of the routes it is checked against.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import guarded_power
from .field import PrimeField
from .matrix import MatrixGF, json_field_and_grid, row_reduce

# max q**k codewords of a code that is enumerated or has its minimum distance
# found; min_distance usually meets far fewer, but with one information set
# and d = k + 1 it meets about q^k / (q - 1)
ENUMERATION_GUARD = 1 << 24
ENCODE_CHUNK = 1 << 20  # bound on messages x generators x n x support size per batch


class LinearCode:
    """An [n, k]_q linear code with generator matrix [I_k | A]."""

    __slots__ = ("field", "n", "k", "a_matrix")

    def __init__(self, a_matrix: MatrixGF):
        k = a_matrix.rows
        n = k + a_matrix.cols
        if k < 1:
            raise ValueError("code dimension k must be at least 1")
        object.__setattr__(self, "field", a_matrix.field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a_matrix", a_matrix)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}]_{self.field.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCode) and other.a_matrix == self.a_matrix

    def __hash__(self) -> int:
        return hash(("LinearCode", self.a_matrix))

    @property
    def generator(self) -> MatrixGF:
        """G = [I_k | A]."""
        g = np.concatenate(
            [np.eye(self.k, dtype=np.int64), self.a_matrix.entries], axis=1
        )
        return MatrixGF(self.field, g)

    def messages(self) -> np.ndarray:
        """All q^k message vectors, lexicographic, most-significant symbol first."""
        q = self.field.p
        count = guarded_power(q, self.k, ENUMERATION_GUARD, "enumeration guard")
        idx = np.arange(count, dtype=np.int64)
        powers = q ** np.arange(self.k - 1, -1, -1, dtype=np.int64)
        return (idx[:, None] // powers[None, :]) % q

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "n": self.n,
            "k": self.k,
            "A": self.a_matrix.entries.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "LinearCode":
        code = cls(MatrixGF(*json_field_and_grid(payload, "A", "n", "k")))
        if code.n != payload["n"] or code.k != payload["k"]:
            raise ValueError("declared (n, k) disagrees with A matrix shape")
        return code


def enumerate_codewords(code: LinearCode) -> np.ndarray:
    """All q^k codewords as rows, ordered by message vector.

    Messages run in lexicographic order (base q, most-significant symbol
    first), so row i encodes the message with index i.
    """
    return (code.messages() @ code.generator.entries) % code.field.p


def _information_set_generators(code: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """An (m, k, n) stack of generators of the code, and the rank r_j of each set.

    Set j is found greedily: one row reduction of G with the columns no
    earlier set uses placed first. If those free columns have rank r >= 1,
    the r pivots that land among them form the set R_j, disjoint from the
    earlier ones, and the reduced generator is systematic on R_j plus
    k - r columns of earlier sets. The first set is the identity block of
    G = [I | A], with r = k. Sets of rank k are information sets; the
    ranks never increase, so they come first. The search ends once every
    free column is zero.
    """
    k, n = code.k, code.n
    gen = code.generator.entries
    gens, ranks = [gen], [k]
    used = np.arange(n) < k
    while free := n - int(np.count_nonzero(used)):
        order = np.argsort(used, kind="stable")
        reduced = row_reduce(gen[:, order][None], code.field)[0][0]
        pivots = np.argmax(reduced != 0, axis=1)  # ascending; G has rank k
        rank = int(np.count_nonzero(pivots < free))
        if not rank:
            break
        systematic = np.empty_like(reduced)
        systematic[:, order] = reduced
        used[order[pivots]] = True  # the pivots past the first rank were used already
        gens.append(systematic)
        ranks.append(rank)
    return np.stack(gens), np.array(ranks)


def _messages(q: int, k: int, t: int) -> int:
    """Messages of support size t whose first nonzero entry is 1."""
    return comb(k, t) * (q - 1) ** (t - 1)


def _lightest(gens: np.ndarray, t: int, q: int) -> int:
    """Least weight of the words the generators encode from the level-t messages."""
    _, k, n = gens.shape
    best = n
    patterns = (q - 1) ** (t - 1)
    digit_powers = (q - 1) ** np.arange(t - 2, -1, -1, dtype=np.int64)
    batch = max(1, ENCODE_CHUNK // (len(gens) * n * t))
    batch_patterns = min(patterns, batch)
    supports = combinations(range(k), t)
    while chunk := list(islice(supports, max(1, batch // patterns))):
        # one (t, m * supports * n) block: every pattern times every support's rows
        rows = gens[:, chunk].transpose(2, 0, 1, 3).reshape(t, -1)
        for start in range(0, patterns, batch_patterns):
            index = np.arange(start, min(start + batch_patterns, patterns))
            values = np.ones((index.size, t), dtype=np.int64)
            values[:, 1:] += index[:, None] // digit_powers % (q - 1)
            words = (values @ rows % q).reshape(-1, n)
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over the nonzero codewords, exactly.

    Information-set enumeration (Brouwer-Zimmermann, with Zimmermann's
    bound for sets of rank below k). Generator j of
    _information_set_generators is systematic on k columns: its set R_j
    of rank r_j and k - r_j columns of earlier sets. Level t encodes, with
    a generator, each message of support size t whose first nonzero entry
    is 1 (a scalar multiple of a codeword has its weight). A codeword that
    generator j did not meet in levels 1..t has weight at least t + 1 on
    its k columns, so at least t + 1 - (k - r_j) on R_j. The R_j are
    disjoint, so a codeword no generator run so far met weighs at least
    LB(t) = sum over them of max(0, t + 1 - (k - r_j)), which is m(t + 1)
    for m information sets (r_j = k).

    The levels run with the m information sets, and the search stops
    after the first level t whose best weight is <= m(t + 1), or at t = k,
    when every codeword has been met. Before it goes on to level t + 1, it
    takes the fewest sets of rank below k whose LB(t) reaches the best
    weight, if running their levels 1..t costs no more messages than level
    t + 1 would: they then end the search at level t. So it never encodes
    more messages than the search on the information sets alone. The q^k
    enumeration guard applies.
    """
    q, k = code.field.p, code.k
    guarded_power(q, k, ENUMERATION_GUARD, "enumeration guard")
    gens, ranks = _information_set_generators(code)
    full = int(np.count_nonzero(ranks == k))
    best = code.n
    for t in range(1, k + 1):
        best = min(best, _lightest(gens[:full], t, q))
        bound = full * (t + 1)
        if best <= bound or t == k:
            break
        # the fewest sets of lower rank whose LB(t) reaches best, if any
        for extra, rank in enumerate(ranks[full:].tolist(), start=1):
            bound += max(0, t + 1 - k + rank)
            if bound >= best:
                break
        catch_up = sum(_messages(q, k, s) for s in range(1, t + 1))
        if bound >= best and extra * catch_up <= full * _messages(q, k, t + 1):
            for s in range(1, t + 1):
                best = min(best, _lightest(gens[full : full + extra], s, q))
            break
    return best


def dual_code(code: LinearCode) -> LinearCode:
    """The [n, n-k] dual code, in standard form.

    The dual is generated by H = [-A^T | I_{n-k}], which satisfies
    G H^T = 0. One row reduction of H to reduced echelon form gives
    [I | A'] whenever the leading (n-k) x (n-k) block of H is nonsingular;
    otherwise no standard form exists without permuting coordinates, and
    this raises ValueError.
    """
    if code.k == code.n:
        raise ValueError("the dual of a full-dimension code is the zero code")
    field = code.field
    m = code.n - code.k
    h = np.concatenate(
        [(-code.a_matrix.entries.T) % field.p, np.eye(m, dtype=np.int64)], axis=1
    )
    reduced = row_reduce(h[None], field)[0][0]
    if not np.array_equal(reduced[:, :m], np.eye(m, dtype=np.int64)):
        raise ValueError(
            "dual generator cannot be put in standard form without a column permutation"
        )
    return LinearCode(MatrixGF(field, reduced[:, m:]))


def singleton_gamma(field: PrimeField) -> int:
    """Deterministic primitive element for Singleton-array construction.

    Among all primitive elements, picks the one whose leading interior
    array entry 1/(1 - gamma) is smallest; distinct gammas give distinct
    leading entries, so the choice is unique.
    """
    if field.p == 2:
        return 1
    best = None
    best_a1 = field.p
    for g in range(2, field.p):
        if field.is_primitive(g):
            a1 = field.inv(1 - g)
            if a1 < best_a1:
                best_a1 = a1
                best = g
    return best


def singleton_array(field: PrimeField, gamma: int) -> list[list[int]]:
    """Triangular array over GF(q) generated by a primitive element.

    Row 0 is all ones (length q); row i >= 1 is [1, a_i, a_{i+1}, ...]
    with a_i = 1/(1 - gamma^i), truncated so row i has length q - i.
    Every rectangular submatrix has all square submatrices nonsingular.
    """
    q = field.p
    g = int(gamma) % q
    if not field.is_primitive(g):
        raise ValueError(f"{g} is not a primitive element of GF({q})")
    a = [0] * (q - 1)  # a[i] holds a_i for 1 <= i <= q-2
    for i in range(1, q - 1):
        a[i] = field.inv(1 - pow(g, i, q))
    rows = [[1] * q]
    for i in range(1, q):
        row = [1] + [a[i + j - 1] for j in range(1, q - i)]
        rows.append(row)
    return rows


def mds_a_matrix(
    field: PrimeField, k: int, m: int, gamma: int | None = None
) -> MatrixGF:
    """A k x m matrix whose every square submatrix is nonsingular.

    Takes the top-left k x m rectangle of the Singleton array S_q; the
    rectangle fits iff k + m <= q + 1. The MDS property is re-verified on
    the result before returning.
    """
    if k < 1 or m < 0:
        raise ValueError("k must be >= 1 and m >= 0")
    if m == 0:
        return MatrixGF.zeros(field, k, 0)
    if k + m > field.p + 1:
        raise ValueError(
            f"a {k}x{m} rectangle does not fit in the Singleton array of GF({field.p})"
        )
    if gamma is None:
        gamma = singleton_gamma(field)
    arr = singleton_array(field, gamma)
    a = MatrixGF(field, [arr[i][:m] for i in range(k)])
    if not a.all_square_submatrices_nonsingular():
        raise RuntimeError("Singleton rectangle failed the nonsingularity check")
    return a


def mds_code(field: PrimeField, n: int, k: int, gamma=None) -> LinearCode:
    """The [n, k] MDS code generated from a Singleton-array rectangle."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return LinearCode(mds_a_matrix(field, k, n - k, gamma=gamma))
