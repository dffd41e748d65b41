"""Dense exact matrices over GF(p).

Entries are stored as canonical int representatives in a read-only numpy
array; all elimination is exact integer work modulo p.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .field import PrimeField


class MatrixGF:
    """An immutable rows x cols matrix with entries in GF(p)."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, entries):
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("entries must be a 2-D grid")
        arr = np.mod(arr, field.p)
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", int(arr.shape[0]))
        object.__setattr__(self, "cols", int(arr.shape[1]))
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGF is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "MatrixGF":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    # -- basics --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, idx) -> int:
        return int(self.entries[idx])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGF)
            and other.field == self.field
            and other.shape == self.shape
            and bool(np.array_equal(other.entries, self.entries))
        )

    def __hash__(self) -> int:
        return hash((self.field, self.shape, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixGF(p={self.field.p}, {self.entries.tolist()})"

    # -- elimination ------------------------------------------------------------

    def rank(self) -> int:
        """Rank over GF(p)."""
        if self.rows == 0 or self.cols == 0:
            return 0
        return _eliminate(np.array(self.entries), self.field)[1]

    def det(self) -> int:
        """Determinant over GF(p); matrix must be square."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        return _det(np.array(self.entries), self.field)

    def inverse(self) -> "MatrixGF":
        """Inverse of a square nonsingular matrix."""
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        p = self.field.p
        n = self.rows
        a = np.concatenate(
            [np.array(self.entries, dtype=np.int64), np.eye(n, dtype=np.int64)], axis=1
        )
        for col in range(n):
            pivot_rows = np.nonzero(a[col:, col])[0]
            if pivot_rows.size == 0:
                raise ValueError("matrix is singular")
            pr = col + int(pivot_rows[0])
            if pr != col:
                a[[col, pr]] = a[[pr, col]]
            a[col] = (a[col] * self.field.inv(int(a[col, col]))) % p
            for r in range(n):
                if r != col and a[r, col]:
                    a[r] = (a[r] - a[r, col] * a[col]) % p
        return MatrixGF(self.field, a[:, n:])

    def all_square_submatrices_nonsingular(self) -> bool:
        """True iff every t x t submatrix has nonzero determinant.

        Exhaustive over all row and column subsets for each size t; matrices
        at the scale this library targets are at most a few rows wide, so
        the combinatorial sweep is cheap.
        """
        ent = self.entries
        if np.any(ent == 0):
            return False  # 1x1 submatrices
        tmax = min(self.rows, self.cols)
        for t in range(2, tmax + 1):
            for rsel in combinations(range(self.rows), t):
                for csel in combinations(range(self.cols), t):
                    if _det(ent[np.ix_(rsel, csel)], self.field) == 0:
                        return False
        return True

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.entries.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MatrixGF":
        field, grid = json_field_and_grid(payload, "entries", "rows", "cols")
        arr = np.array(grid, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(payload["rows"], payload["cols"])
        m = cls(field, arr)
        if m.shape != (payload["rows"], payload["cols"]):
            raise ValueError("entries shape disagrees with declared rows/cols")
        return m



def _eliminate(a: np.ndarray, field: PrimeField) -> tuple[np.ndarray, int, int]:
    """Row echelon form via exact Gaussian elimination, in place.

    a is an int64 array of canonical representatives that the caller
    gives up. Returns (echelon array, rank, sign) where sign flips with
    each row swap (used by det).
    """
    p = field.p
    m, n = a.shape
    rank = 0
    sign = 1
    for col in range(n):
        if rank == m:
            break
        pivot_rows = np.nonzero(a[rank:, col])[0]
        if pivot_rows.size == 0:
            continue
        pr = rank + int(pivot_rows[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
            sign = -sign
        inv_piv = field.inv(int(a[rank, col]))
        below = a[rank + 1 :, col]
        nz = np.nonzero(below)[0]
        if nz.size:
            factors = (below[nz] * inv_piv) % p
            a[rank + 1 + nz] = (a[rank + 1 + nz] - factors[:, None] * a[rank]) % p
        rank += 1
    return a, rank, sign


def _det(a: np.ndarray, field: PrimeField) -> int:
    """Determinant of a square array that the caller gives up (see _eliminate)."""
    n = a.shape[0]
    if n == 0:
        return 1 % field.p
    ech, rank, sign = _eliminate(a, field)
    if rank < n:
        return 0
    d = 1
    for i in range(n):
        d = d * int(ech[i, i]) % field.p
    return d if sign == 1 else -d % field.p

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_field_and_grid(payload, grid_key: str, *count_keys: str) -> tuple[PrimeField, list]:
    """The field and entry grid of a JSON payload, validated exactly.

    The payload must be an object with an integer "p", integer counts
    under count_keys and, under grid_key, a list of rows whose entries
    are integers in [0, p). Booleans do not count as integers, and
    nothing is truncated or reduced mod p. Every refusal is a ValueError.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    for key in ("p", grid_key, *count_keys):
        if key not in payload:
            raise ValueError(f"missing key {key!r}")
    for key in ("p", *count_keys):
        if not _is_int(payload[key]):
            raise ValueError(f"{key!r} must be an integer, got {payload[key]!r}")
    field = PrimeField(payload["p"])
    grid = payload[grid_key]
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ValueError(f"{grid_key!r} must be a list of rows")
    for row in grid:
        for value in row:
            if not _is_int(value) or not 0 <= value < field.p:
                raise ValueError(f"entry {value!r} is not an integer in [0, {field.p})")
    return field, grid

