"""Dense exact matrices over GF(p).

Entries are stored as canonical int representatives in a read-only numpy
array. row_reduce is the one elimination: exact integer work modulo p.
"""

from __future__ import annotations

import numpy as np

from .errors import integer_array, json_counts
from .field import PrimeField


class MatrixGF:
    """An immutable rows x cols matrix with entries in GF(p)."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, entries):
        arr = integer_array(entries, "entries")
        if arr.ndim != 2:
            raise ValueError("entries must be a 2-D grid")
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

    def __repr__(self) -> str:
        return f"MatrixGF(p={self.field.p}, {self.entries.tolist()})"


def row_reduce(matrix: np.ndarray, field: PrimeField) -> tuple[np.ndarray, int]:
    """Reduced row echelon form of one int64 matrix of canonical representatives, and its rank.

    Gauss-Jordan on a copy, one column at a time: the first nonzero entry
    at or below the next pivot row is the pivot, its row is scaled by the
    pivot's inverse, pow(pivot, -1, p), and moved up, and one rank-1 update
    mod p clears the column in every other row. So only pivots are
    inverted and nothing of size p is formed. The input is left unchanged.
    """
    p = field.p
    reduced = matrix.astype(np.int64)
    rows, cols = reduced.shape
    rank = 0
    for col in range(cols):
        if rank == rows:  # every row holds a pivot: the later columns are done
            break
        below = np.flatnonzero(reduced[rank:, col])
        if not below.size:
            continue
        source = rank + int(below[0])
        pivot_row = reduced[source] * pow(int(reduced[source, col]), -1, p) % p
        reduced[source] = reduced[rank]
        reduced -= reduced[:, col:col + 1] * pivot_row
        reduced %= p
        reduced[rank] = pivot_row
        rank += 1
    return reduced, rank


def json_field_and_grid(payload, grid_key: str, *count_keys: str) -> tuple[PrimeField, np.ndarray]:
    """The field and entry grid of a JSON payload, validated exactly.

    An object with integers under "p" and count_keys and, under grid_key, a
    grid of integers in [0, p), which MatrixGF refuses unless it is 2-D.
    Nothing is truncated or reduced mod p. Every refusal is a ValueError.
    """
    field = PrimeField(json_counts(payload, ("p", *count_keys), grid_key)[0])
    entries = integer_array(payload[grid_key], "entries")
    if entries.size and (entries.min() < 0 or entries.max() >= field.p):
        raise ValueError(f"entries must lie in [0, {field.p})")
    return field, entries
