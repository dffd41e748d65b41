"""Classical linear codes [n, k]_q in standard form G = [I_k | A].

Covers codeword enumeration, brute-force minimum distance, dual codes,
and construction of A matrices with all square submatrices nonsingular
(the MDS property) from Singleton arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError
from .field import PrimeField
from .matrix import MatrixGF, json_field_and_grid

ENUMERATION_GUARD = 1 << 24  # max q**k codewords enumerated brute force


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

    @classmethod
    def from_entries(cls, field: PrimeField, a_entries) -> "LinearCode":
        return cls(MatrixGF(field, a_entries))

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

    def message_count(self) -> int:
        return self.field.p**self.k

    def _guard(self) -> None:
        if self.message_count() > ENUMERATION_GUARD:
            raise ResourceLimitError(
                f"q^k = {self.message_count()} codewords exceeds enumeration guard "
                f"{ENUMERATION_GUARD}"
            )

    def messages(self) -> np.ndarray:
        """All q^k message vectors, lexicographic, most-significant symbol first."""
        self._guard()
        q = self.field.p
        idx = np.arange(self.message_count(), dtype=np.int64)
        powers = q ** np.arange(self.k - 1, -1, -1, dtype=np.int64)
        return (idx[:, None] // powers[None, :]) % q

    def encode(self, message) -> np.ndarray:
        """Codeword (x, xA) for a length-k message vector x."""
        x = np.asarray(message, dtype=np.int64) % self.field.p
        if x.shape != (self.k,):
            raise ValueError(f"message must have length {self.k}")
        return (x @ self.generator.entries) % self.field.p

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


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over the nonzero codewords, by brute force."""
    code._guard()
    q = code.field.p
    gen = code.generator.entries
    best = code.n
    chunk = 1 << 14
    total = code.message_count()
    powers = q ** np.arange(code.k - 1, -1, -1, dtype=np.int64)
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = (idx[:, None] // powers[None, :]) % q
        words = (msgs @ gen) % q
        weights = np.count_nonzero(words, axis=1)
        best = min(best, int(weights.min()))
    return best


def dual_code(code: LinearCode) -> LinearCode:
    """The [n, n-k] dual code, in standard form.

    The dual is generated by H = [-A^T | I_{n-k}], which satisfies
    G H^T = 0. H is row-reduced back to [I | A'] form; this fails only
    when the leading (n-k) x (n-k) block of H is singular, in which case
    no standard form exists without permuting coordinates.
    """
    if code.k == code.n:
        raise ValueError("the dual of a full-dimension code is the zero code")
    field = code.field
    m = code.n - code.k
    h = np.concatenate(
        [(-code.a_matrix.entries.T) % field.p, np.eye(m, dtype=np.int64)], axis=1
    )
    lead = MatrixGF(field, h[:, :m])
    if lead.det() == 0:
        raise ValueError(
            "dual generator cannot be put in standard form without a column permutation"
        )
    reduced = (lead.inverse().entries @ h) % field.p
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
            a1 = field.inv(field.sub(1, g))
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
        a[i] = field.inv(field.sub(1, field.pow(g, i)))
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
