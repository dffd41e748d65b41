"""Dense exact matrices over GF(p).

Entries are stored as canonical int representatives in a read-only numpy
array; all elimination is exact integer work modulo p.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

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

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "MatrixGF":
        return cls(field, np.eye(n, dtype=np.int64))

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

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.field, self.entries.T)

    def __neg__(self) -> "MatrixGF":
        return MatrixGF(self.field, -self.entries)

    def __add__(self, other: "MatrixGF") -> "MatrixGF":
        self._check_same_field(other)
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        return MatrixGF(self.field, self.entries + other.entries)

    def __sub__(self, other: "MatrixGF") -> "MatrixGF":
        return self + (-other)

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        return MatrixGF(self.field, (self.entries @ other.entries) % self.field.p)

    def _check_same_field(self, other: "MatrixGF") -> None:
        if not isinstance(other, MatrixGF) or other.field != self.field:
            raise ValueError("matrices belong to different fields")

    # -- submatrices ----------------------------------------------------------

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "MatrixGF":
        """The minor on the given rows and columns, in the given order.

        Indices must be in range and free of duplicates; empty selections
        are rejected.
        """
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        if not row_idx or not col_idx:
            raise ValueError("empty row or column selection")
        if len(set(row_idx)) != len(row_idx) or len(set(col_idx)) != len(col_idx):
            raise ValueError("duplicate indices in selection")
        for r in row_idx:
            if not 0 <= r < self.rows:
                raise IndexError(f"row index {r} out of range")
        for c in col_idx:
            if not 0 <= c < self.cols:
                raise IndexError(f"column index {c} out of range")
        return MatrixGF(self.field, self.entries[np.ix_(row_idx, col_idx)])

    # -- elimination ------------------------------------------------------------

    def _eliminate(self) -> tuple[np.ndarray, int, int]:
        """Row echelon form via exact Gaussian elimination.

        Returns (echelon array, rank, sign) where sign flips with each row
        swap (used by det).
        """
        p = self.field.p
        a = np.array(self.entries, dtype=np.int64)
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
            inv_piv = self.field.inv(int(a[rank, col]))
            below = a[rank + 1 :, col]
            nz = np.nonzero(below)[0]
            if nz.size:
                factors = (below[nz] * inv_piv) % p
                a[rank + 1 + nz] = (a[rank + 1 + nz] - factors[:, None] * a[rank]) % p
            rank += 1
        return a, rank, sign

    def rank(self) -> int:
        """Rank over GF(p)."""
        if self.rows == 0 or self.cols == 0:
            return 0
        return self._eliminate()[1]

    def det(self) -> int:
        """Determinant over GF(p); matrix must be square."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        if self.rows == 0:
            return 1 % self.field.p
        ech, rank, sign = self._eliminate()
        if rank < self.rows:
            return 0
        d = 1
        for i in range(self.rows):
            d = self.field.mul(d, int(ech[i, i]))
        return d if sign == 1 else self.field.neg(d)

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
        if np.any(self.entries == 0):
            return False  # 1x1 submatrices
        tmax = min(self.rows, self.cols)
        for t in range(2, tmax + 1):
            for rsel in combinations(range(self.rows), t):
                for csel in combinations(range(self.cols), t):
                    if self.submatrix(rsel, csel).det() == 0:
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


def combine_rows(m: MatrixGF, coeffs: Iterable[int]) -> np.ndarray:
    """The linear combination of m's rows with the given coefficients."""
    c = np.asarray(list(coeffs), dtype=np.int64)
    if c.shape != (m.rows,):
        raise ValueError("coefficient vector length must equal row count")
    return (c @ m.entries) % m.field.p
