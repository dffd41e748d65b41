"""Dense exact matrices over GF(p).

Entries are stored as canonical int representatives in a read-only numpy
array; all elimination is exact integer work modulo p.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, integer_array, json_counts
from .field import PrimeField

# max square submatrices, C(rows + cols, rows) - 1, the MDS test may meet: a
# 12 x 12 block's 2,704,155 fit and a 16 x 16 block's 601,080,389 do not
MINORS_GUARD = 1 << 22

# Schur complements the MDS test forms per step. It walks depth first, so at
# most one batch per minor size is alive: its peak memory grows with
# min(rows, cols) x MINOR_CHUNK x rows x cols entries, not with the number of minors.
MINOR_CHUNK = 4096


def _inverses(values: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of every nonzero int64 entry of values, in [0, p).

    x^(p - 2) by square-and-multiply on the whole array at once, reading
    the exponent's bits from the top; as p <= MAX_MODULUS = 2^20, a square
    times x stays below p^3 < 2^63, so int64 holds it exactly. The
    eliminations call this on their pivots alone, so no table of all p
    inverses is formed.
    """
    inverse = values
    for bit in bin(p - 2)[3:]:
        inverse = inverse * inverse * values % p if bit == "1" else inverse * inverse % p
    return inverse


class MatrixGF:
    """An immutable rows x cols matrix with entries in GF(p)."""

    __slots__ = ("field", "rows", "cols", "entries", "_minors_verdict")

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
        # all_square_submatrices_nonsingular's verdict, filled on first use
        object.__setattr__(self, "_minors_verdict", None)

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

        The matrix is immutable, so the verdict is computed once, on the
        first call, and every later call reads it.
        """
        if self._minors_verdict is None:
            object.__setattr__(self, "_minors_verdict", self._minors_nonsingular())
        return self._minors_verdict

    def _minors_nonsingular(self) -> bool:
        """One Schur-complement pivot per minor; False at the first zero one.

        The minor on rows R and columns C has one parent, A[R', C'] with its
        largest row r and column c removed, and det A[R, C] =
        det A[R', C'] * S[r, c] mod p, where S is the Schur complement of the
        parent in A (A itself for the empty minor). The complement of
        A[R, C] is that of S at pivot (r, c): S - S[:, c] S[r, :] / S[r, c].
        So, from the empty minor down, every minor is nonsingular iff every
        pivot S[r, c] with r > max R' and c > max C' is nonzero: one pivot and
        one rank-1 update per minor, in exact integer arithmetic mod p.
        Complements are formed only for minors that have children, at most
        MINOR_CHUNK per step, depth first.

        A matrix with more than MINORS_GUARD minors is refused before any
        pivot: C(n - s + i, i) at least doubles with each i <= s, so
        counting them up stops within 23 steps.
        """
        p, rows, cols = self.field.p, self.rows, self.cols
        n, s = rows + cols, min(rows, cols)
        minors = 1
        for i in range(1, s + 1):
            minors = minors * (n - s + i) // i  # C(n - s + i, i)
            if minors - 1 > MINORS_GUARD:
                raise ResourceLimitError(
                    f"C({n}, {s}) - 1 square submatrices exceed minors guard {MINORS_GUARD}"
                )
        row, col = np.arange(rows)[:, None], np.arange(cols)
        inner = (row < rows - 1) & (col < cols - 1)

        def extensions(complements, last_row, last_col):
            """Flat (complement, r, c) indices of the children that have children,
            or None if a child's pivot is zero."""
            below = (row > last_row[:, None, None]) & (col > last_col[:, None, None])
            if ((complements == 0) & below).any():
                return None
            return np.flatnonzero(below & inner)

        root = self.entries[None]
        pending = extensions(root, np.array([-1]), np.array([-1]))
        if pending is None:
            return False
        work = [(root, pending)]
        while work:
            complements, pending = work.pop()
            if pending.size > MINOR_CHUNK:
                work.append((complements, pending[MINOR_CHUNK:]))
                pending = pending[:MINOR_CHUNK]
            parent, r, c = np.unravel_index(pending, complements.shape)
            lanes = np.arange(pending.size)
            children = complements[parent]
            factor = children[lanes, :, c] * _inverses(children[lanes, r, c], p)[:, None] % p
            children -= factor[:, :, None] * children[lanes, r][:, None, :]
            children %= p
            pending = extensions(children, r, c)
            if pending is None:
                return False
            if pending.size:
                work.append((children, pending))
        return True


def row_reduce(stack: np.ndarray, field: PrimeField) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix in a (B, r, c) stack, and their ranks.

    stack holds int64 canonical representatives and is reduced in place;
    the caller gives it up. The B matrices are reduced in lockstep, one
    column at a time: each matrix that has a nonzero entry at or below its
    next pivot row takes the first such row as its pivot and clears the
    column in every other row without division, each row becoming
    lead * row - entry * pivot row, so each row carries a nonzero factor
    until the end, when it is divided by its leading entry: one batch of
    inverses per call, of the pivots alone, so nothing of size p is formed.
    Returns (stack, ranks).
    """
    p = field.p
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
        # the pivot row is zero before col, so the rows' earlier entries only scale
        pivot = stack[pivoting, source]
        stack[pivoting, source] = stack[pivoting, target]
        factors = stack[pivoting, :, col]
        factors[lanes, target] = 0
        block = stack[pivoting] * pivot[:, None, col:col + 1] - factors[:, :, None] * pivot[:, None, :]
        block[lanes, target] = pivot
        stack[pivoting] = block % p
        ranks[pivoting] += 1
        if ranks.min() == rows:  # every row holds a pivot: the later columns are done
            break
    lead = stack[np.arange(count)[:, None], row_index, np.argmax(stack != 0, axis=2)]
    stack *= _inverses(np.maximum(lead, 1), p)[:, :, None]  # 1 for the zero rows past each rank
    stack %= p
    return stack, ranks


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
