"""Dense exact matrices over GF(p).

Entries are stored as canonical int representatives in a read-only numpy
array; all elimination is exact integer work modulo p.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .field import PrimeField


MINOR_CHUNK = 4096  # t x t minors row-reduced per batch by the MDS test


class MatrixGF:
    """An immutable rows x cols matrix with entries in GF(p)."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2:
            raise ValueError("entries must be a 2-D grid")
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"entries must be integers, got dtype {arr.dtype}")
        arr = np.mod(arr, field.p).astype(np.int64, copy=False)
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

    def all_square_submatrices_nonsingular(self) -> bool:
        """True iff every t x t submatrix has full rank t.

        Exhaustive over all row and column subsets for each size t; the
        minors of one size are row-reduced together, MINOR_CHUNK at a time,
        and the test stops at the first batch holding a singular one.
        """
        ent = self.entries
        for t in range(1, min(self.rows, self.cols) + 1):
            rsel = np.array(list(combinations(range(self.rows), t)))
            csel = np.array(list(combinations(range(self.cols), t)))
            total = len(rsel) * len(csel)
            for start in range(0, total, MINOR_CHUNK):
                r, c = np.divmod(np.arange(start, min(start + MINOR_CHUNK, total)), len(csel))
                minors = ent[rsel[r][:, :, None], csel[c][:, None, :]]
                if np.any(row_reduce(minors, self.field)[1] < t):
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


def row_reduce(stack: np.ndarray, field: PrimeField) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix in a (B, r, c) stack, and their ranks.

    stack holds int64 canonical representatives and is reduced in place;
    the caller gives it up. The B matrices are reduced in lockstep, one
    column at a time: each matrix that has a nonzero entry at or below its
    next pivot row takes the first such row as its pivot, scales it to 1
    and clears the column in every other row. Returns (stack, ranks).
    """
    p = field.p
    inverses = field.inverses()
    count, rows, cols = stack.shape
    ranks = np.zeros(count, dtype=np.int64)
    row_index = np.arange(rows)
    for col in range(cols):
        candidates = (stack[:, :, col] != 0) & (row_index >= ranks[:, None])
        pivoting = np.nonzero(candidates.any(axis=1))[0]
        if pivoting.size == 0:
            continue
        lanes = np.arange(pivoting.size)
        target = ranks[pivoting]
        source = candidates[pivoting].argmax(axis=1)
        pivot = stack[pivoting, source, col:]
        stack[pivoting, source, col:] = stack[pivoting, target, col:]
        pivot = pivot * inverses[pivot[:, :1]] % p
        factors = stack[pivoting, :, col]
        factors[lanes, target] = 0
        block = stack[pivoting, :, col:] - factors[:, :, None] * pivot[:, None, :]
        block[lanes, target] = pivot
        stack[pivoting, :, col:] = block % p
        ranks[pivoting] += 1
    return stack, ranks


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

