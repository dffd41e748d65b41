"""Weighted-graph adjacency matrices for qudit graph states.

Builders for the complete-bipartite family (straight from a code), the
generalized family with a free lower-right block, and the hierarchical
family obtained by recursively embedding bipartite blocks into the
remaining zero corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearCode, mds_a_matrix
from .field import PrimeField
from .matrix import MatrixGF, json_field_and_grid


class Adjacency:
    """Symmetric zero-diagonal n x n matrix over GF(p)."""

    __slots__ = ("field", "n", "gamma")

    def __init__(self, gamma: MatrixGF):
        if gamma.rows != gamma.cols:
            raise ValueError("adjacency matrix must be square")
        ent = gamma.entries
        if np.any(np.diagonal(ent) != 0):
            raise ValueError("adjacency matrix must have zero diagonal")
        if not np.array_equal(ent, ent.T):
            raise ValueError("adjacency matrix must be symmetric")
        object.__setattr__(self, "field", gamma.field)
        object.__setattr__(self, "n", gamma.rows)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("Adjacency is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Adjacency) and other.gamma == self.gamma

    def __hash__(self) -> int:
        return hash(("Adjacency", self.gamma))

    def __repr__(self) -> str:
        return f"Adjacency(n={self.n}, p={self.field.p})"

    def edge_count(self) -> int:
        """Number of weighted edges (nonzero upper-triangle entries)."""
        return int(np.count_nonzero(np.triu(self.gamma.entries, k=1)))

    def edges(self) -> list[tuple[int, int, int]]:
        """Edges as (i, j, weight) with 1-based vertices and i < j."""
        out = []
        ent = self.gamma.entries
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if ent[i, j]:
                    out.append((i + 1, j + 1, int(ent[i, j])))
        return out

    def to_json(self) -> dict:
        return {"p": self.field.p, "n": self.n, "gamma": self.gamma.entries.tolist()}

    @classmethod
    def from_json(cls, payload: dict) -> "Adjacency":
        adj = cls(MatrixGF(*json_field_and_grid(payload, "gamma", "n")))
        if adj.n != payload["n"]:
            raise ValueError("declared n disagrees with gamma shape")
        return adj


def _bipartite_block(field: PrimeField, a: MatrixGF) -> np.ndarray:
    """[[0, -A], [-A^T, 0]] as a raw array mod p."""
    k, m = a.rows, a.cols
    n = k + m
    g = np.zeros((n, n), dtype=np.int64)
    neg_a = (-a.entries) % field.p
    g[:k, k:] = neg_a
    g[k:, :k] = neg_a.T
    return g


def bipartite_adjacency(code: LinearCode) -> Adjacency:
    """Complete-bipartite adjacency with upper-right block -A mod p."""
    return Adjacency(MatrixGF(code.field, _bipartite_block(code.field, code.a_matrix)))


def general_adjacency(code: LinearCode, b: MatrixGF) -> Adjacency:
    """Adjacency [[0, -A], [-A^T, B]] for a free lower-right block B.

    B must be symmetric with zero diagonal so the result is a valid
    graph; A must pass the all-square-submatrices-nonsingular test, the
    condition under which the graph state is k-uniform.
    """
    field = code.field
    m = code.n - code.k
    if b.field != field:
        raise ValueError("B must live over the code's field")
    if b.shape != (m, m):
        raise ValueError(f"B must be {m}x{m}")
    if np.any(np.diagonal(b.entries) != 0):
        raise ValueError("B must have zero diagonal")
    if not np.array_equal(b.entries, b.entries.T):
        raise ValueError("B must be symmetric")
    if not code.a_matrix.all_square_submatrices_nonsingular():
        raise ValueError("A has a singular square submatrix")
    g = _bipartite_block(field, code.a_matrix)
    g[code.k :, code.k :] = b.entries
    return Adjacency(MatrixGF(field, g))


def random_b_matrix(field: PrimeField, size: int, rng: np.random.Generator) -> MatrixGF:
    """Random symmetric zero-diagonal size x size matrix over GF(p)."""
    upper = rng.integers(0, field.p, size=(size, size), dtype=np.int64)
    b = np.triu(upper, k=1)
    return MatrixGF(field, b + b.T)


@dataclass(frozen=True)
class HierarchySpec:
    """Level list ((n, k), (n*, k*), ...) for the hierarchical construction.

    Level 0 is the outer code; each later level's bipartite block is
    embedded flush into the bottom-right zero corner left by the previous
    level, so level l needs n_l <= n_{l-1} - k_{l-1}.
    """

    field: PrimeField
    levels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("at least one level is required")
        levels = tuple((int(n), int(k)) for n, k in self.levels)
        object.__setattr__(self, "levels", levels)
        n0, k0 = levels[0]
        if not 1 <= k0 <= n0 // 2:
            raise ValueError(f"level 0 needs 1 <= k <= n/2, got (n, k) = ({n0}, {k0})")
        prev_n, prev_k = n0, k0
        for depth, (nl, kl) in enumerate(levels[1:], start=1):
            if nl < 2:
                raise ValueError(f"level {depth} needs at least 2 qudits, got {nl}")
            if nl > prev_n - prev_k:
                raise ValueError(
                    f"level {depth} block of {nl} qudits does not fit in the "
                    f"remaining zero corner of size {prev_n - prev_k}"
                )
            if not 1 <= kl <= nl // 2:
                raise ValueError(
                    f"level {depth} needs 1 <= k <= n/2, got (n, k) = ({nl}, {kl})"
                )
            prev_n, prev_k = nl, kl

    @classmethod
    def parse(cls, field: PrimeField, text: str) -> "HierarchySpec":
        """Parse "6:2,2:1" or "6:2+2:1" into a spec."""
        seps = text.replace("+", ",")
        levels = []
        for token in seps.split(","):
            parts = token.strip().split(":")
            if len(parts) != 2:
                raise ValueError(f"bad level token {token!r}, expected n:k")
            levels.append((int(parts[0]), int(parts[1])))
        return cls(field, tuple(levels))

    def label(self) -> str:
        return "+".join(f"{n}:{k}" for n, k in self.levels)


def hierarchy_adjacency(spec: HierarchySpec, gamma=None) -> Adjacency:
    """Adjacency of the hierarchy state: bipartite blocks nested bottom-right.

    With a single level this is exactly the bipartite adjacency of the
    level-0 code; each later level writes its own bipartite block into
    the last n_l rows and columns, which are zero up to that point.
    """
    field = spec.field
    n0 = spec.levels[0][0]
    blocks = [mds_a_matrix(field, kl, nl - kl, gamma=gamma) for nl, kl in spec.levels]
    g = _bipartite_block(field, blocks[0])
    for (nl, _), a in zip(spec.levels[1:], blocks[1:]):
        g[n0 - nl :, n0 - nl :] = _bipartite_block(field, a)
    return Adjacency(MatrixGF(field, g))


def export_dot(adj: Adjacency) -> str:
    """Undirected weighted DOT graph; vertices 1..n, edge label = weight."""
    lines = ["graph g {"]
    for v in range(1, adj.n + 1):
        lines.append(f"  {v};")
    for i, j, w in adj.edges():
        lines.append(f"  {i} -- {j} [label={w}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
