"""Classical linear codes [n, k]_q in standard form G = [I_k | A].

Covers codeword enumeration, exact minimum distance by information-set
enumeration, dual codes, and construction of A matrices with all square
submatrices nonsingular (the MDS property, by theorem) from Singleton
arrays. Nothing here imports the sweep (stabilizer, _kernels) or the dense
oracle: the structural route must stay independent of the routes it is
checked against.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import guarded_power, is_int
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
    q = code.field.p
    count = guarded_power(q, code.k, ENUMERATION_GUARD, "enumeration guard")
    powers = q ** np.arange(code.k - 1, -1, -1, dtype=np.int64)
    messages = np.arange(count, dtype=np.int64)[:, None] // powers % q
    return messages @ code.generator.entries % q


def _information_sets(code: LinearCode):
    """Yield a generator of the code systematic on each set in turn, with its rank r_j.

    Set j is found greedily, only when asked for: one row reduction of G
    with the columns no earlier set uses placed first. If those free
    columns have rank r >= 1, the r pivots that land among them form the
    set R_j, disjoint from the earlier ones, and the reduced generator is
    systematic on R_j plus k - r columns of earlier sets. The first set is
    the identity block of G = [I | A], with r = k. Sets of rank k are
    information sets; the ranks never increase, so they come first, and
    after sets of ranks r_1, ..., r_j the next one's rank is at most the
    n - (r_1 + ... + r_j) free columns. The sets end once every free
    column is zero.
    """
    k, n = code.k, code.n
    gen = code.generator.entries
    yield gen, k
    used = np.arange(n) < k
    while free := n - int(np.count_nonzero(used)):
        order = np.argsort(used, kind="stable")
        reduced = row_reduce(gen[:, order][None], code.field)[0][0]
        pivots = np.argmax(reduced != 0, axis=1)  # ascending; G has rank k
        rank = int(np.count_nonzero(pivots < free))
        if not rank:
            return
        systematic = np.empty_like(reduced)
        systematic[:, order] = reduced
        used[order[pivots]] = True  # the pivots past the first rank were used already
        yield systematic, rank


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
    bound for sets of rank below k). Generator j of _information_sets is
    systematic on k columns: its set R_j of rank r_j and k - r_j columns
    of earlier sets. Level t encodes, with a generator, each message of
    support size t whose first nonzero entry is 1 (a scalar multiple of a
    codeword has its weight). A codeword that generator j did not meet in
    levels 1..t has weight at least t + 1 on its k columns, so at least
    t + 1 - (k - r_j) on R_j. The R_j are disjoint, so a codeword no
    generator run so far met weighs at least LB(t) = sum over them of
    max(0, t + 1 - (k - r_j)), which is m(t + 1) for m information sets
    (r_j = k).

    The levels run with the m information sets, and the search stops
    after the first level t whose best weight is <= m(t + 1), or at t = k,
    when every codeword has been met. Before it goes on to level t + 1, it
    takes the fewest sets of rank below k whose LB(t) reaches the best
    weight, if running their levels 1..t costs no more messages than level
    t + 1 would: they then end the search at level t. So it never encodes
    more messages than the search on the information sets alone.

    A set of lower rank is formed only when it could reach the best
    weight. For t < k every term t + 1 - k is <= 0, so the sets not yet
    formed, whose ranks sum to at most the f free columns, add at most
    max(0, t + 1 - k + f) to LB(t) together; once that cannot reach the
    best weight, no more are formed. The q^k enumeration guard applies.
    """
    q, k, n = code.field.p, code.k, code.n
    guarded_power(q, k, ENUMERATION_GUARD, "enumeration guard")
    sets = _information_sets(code)
    formed, free = [], n  # the sets formed so far, and the columns none of them uses
    for found in sets:  # the information sets, and the first set of lower rank
        formed.append(found)
        free -= found[1]
        if found[1] < k or free < k:
            break
    full = sum(rank == k for _, rank in formed)
    infos = np.stack([gen for gen, _ in formed[:full]])
    best = n
    for t in range(1, k + 1):
        best = min(best, _lightest(infos, t, q))
        bound = full * (t + 1)
        if best <= bound or t == k:
            break
        # the fewest sets of lower rank whose LB(t) reaches best, among as many
        # as cost no more messages for levels 1..t than level t + 1 would
        catch_up = sum(_messages(q, k, s) for s in range(1, t + 1))
        extra = 0
        while bound < best and (extra + 1) * catch_up <= full * _messages(q, k, t + 1):
            if full + extra == len(formed):
                if bound + t + 1 - k + free < best or not (found := next(sets, None)):
                    break
                formed.append(found)
                free -= found[1]
            bound += max(0, t + 1 - k + formed[full + extra][1])
            extra += 1
        if bound >= best:
            lower = np.stack([gen for gen, _ in formed[full : full + extra]])
            for s in range(1, t + 1):
                best = min(best, _lightest(lower, s, q))
            break
    return best


def dual_code(code: LinearCode) -> LinearCode:
    """The [n, n-k] dual code as [I_{n-k} | -A^T], with its coordinates rotated.

    The dual is generated by H = [-A^T | I_{n-k}] (G H^T = 0). Moving its
    last n - k coordinates to the front gives [I | -A^T], so the code
    returned is the dual rotated left by k: np.roll(dual.generator.entries,
    code.k, axis=1) generates the dual itself. Weights do not change.
    """
    if code.k == code.n:
        raise ValueError("the dual of a full-dimension code is the zero code")
    return LinearCode(MatrixGF(code.field, -code.a_matrix.entries.T))


def _check_gamma(field: PrimeField, gamma) -> None:
    """Refuse a gamma that is not a primitive int in [0, q); it is never reduced mod q."""
    q = field.p
    if not is_int(gamma) or not 0 <= gamma < q:
        raise ValueError(f"gamma must be an integer in [0, {q}), got {gamma!r}")
    if not field.is_primitive(gamma):
        raise ValueError(f"{gamma} is not a primitive element of GF({q})")


def _singleton_values(field: PrimeField, gamma: int, count: int) -> list[int]:
    """Singleton array values [a_1, ..., a_count], a_i = 1/(1 - gamma^i), count <= q - 2.

    gamma must be primitive and an int in [0, q): it is never reduced mod q.
    """
    _check_gamma(field, gamma)
    q = field.p
    return [pow(1 - pow(gamma, i, q), -1, q) for i in range(1, count + 1)]


def singleton_gamma(field: PrimeField) -> int:
    """Deterministic primitive element for Singleton-array construction.

    Among all primitive elements, picks the one whose leading interior
    array entry a_1 = 1/(1 - gamma) is smallest: the first primitive gamma =
    1 - 1/a_1 for a_1 = 1, 2, ..., which maps one-to-one onto GF(q) minus {1}.
    """
    if field.p == 2:
        return 1
    gammas = ((1 - pow(a1, -1, field.p)) % field.p for a1 in range(1, field.p))
    return next(g for g in gammas if field.is_primitive(g))


def singleton_array(field: PrimeField, gamma: int) -> list[list[int]]:
    """Triangular array over GF(q) generated by a primitive element.

    Row 0 is all ones (length q); row i >= 1 is [1, a_i, a_{i+1}, ..., a_{q-2}]
    with a_i = 1/(1 - gamma^i), so row i has length q - i.
    Every rectangular submatrix has all square submatrices nonsingular.
    gamma must be an int in [0, q): it is never reduced mod q.
    """
    a = _singleton_values(field, gamma, field.p - 2)
    return [[1] * field.p] + [[1] + a[i - 1 :] for i in range(1, field.p)]


def mds_a_matrix(
    field: PrimeField, k: int, m: int, gamma: int | None = None
) -> MatrixGF:
    """A k x m matrix whose every square submatrix is nonsingular.

    The top-left k x m rectangle of the Singleton array S_q, built from its
    k + m - 3 values a_1 .. a_{k+m-3} alone: row 0 is all ones and row i >= 1
    is [1, a_i, ..., a_{i+m-2}]. The rectangle fits iff k + m <= q + 1.

    It is MDS by theorem, so no minor is tested here. Its entries are
    K_ij = 1/(1 - u_i y_j) with u = (0, gamma, ..., gamma^{k-1}) and
    y = (0, 1, gamma, ..., gamma^{m-2}), as u_i y_j = gamma^{i+j-1} for
    i, j >= 1. That is 1 / det [[1, u_i], [y_j, 1]]: a Cauchy matrix on
    the projective points (1 : u_i) and (y_j : 1). By Cauchy's determinant,
    every square submatrix is nonsingular iff the u_i are distinct, the y_j
    are distinct and u_i y_j != 1 for all i, j (MacWilliams and Sloane,
    ch. 11). Each condition is gamma^e != 1 for exponents 1 <= e <= k + m - 3.
    A primitive gamma, which _check_gamma demands, has gamma^e = 1 only at
    multiples of q - 1, and k + m <= q + 1 keeps e below q - 1.
    """
    if k < 1 or m < 0:
        raise ValueError("k must be >= 1 and m >= 0")
    if m == 0:
        if gamma is not None:
            _check_gamma(field, gamma)
        return MatrixGF.zeros(field, k, 0)
    if k + m > field.p + 1:
        raise ValueError(
            f"a {k}x{m} rectangle does not fit in the Singleton array of GF({field.p})"
        )
    if gamma is None:
        gamma = singleton_gamma(field)
    values = _singleton_values(field, gamma, k + m - 3)
    return MatrixGF(field, [[1] * m] + [[1] + values[i - 1 : i + m - 2] for i in range(1, k)])


def mds_code(field: PrimeField, n: int, k: int, gamma=None) -> LinearCode:
    """The [n, k] MDS code generated from a Singleton-array rectangle."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return LinearCode(mds_a_matrix(field, k, n - k, gamma=gamma))
