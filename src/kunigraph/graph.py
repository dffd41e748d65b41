"""Weighted-graph adjacency matrices for qudit graph states.

Builders for the complete-bipartite family (straight from a code), the
generalized family with a free lower-right block, and the hierarchical
family obtained by recursively embedding bipartite blocks into the
remaining zero corner. level_codes is the one place where a level
(n, k) becomes its MDS code; every hierarchy adjacency is folded from
those codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .codes import LinearCode, mds_code
from .errors import is_int, read_int
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

    def __repr__(self) -> str:
        return f"Adjacency(n={self.n}, p={self.field.p})"

    def edge_count(self) -> int:
        """Number of weighted edges (nonzero upper-triangle entries)."""
        return int(np.count_nonzero(np.triu(self.gamma.entries, k=1)))

    def edges(self) -> list[tuple[int, int, int]]:
        """Edges as (i, j, weight) with 1-based vertices and i < j, row by row."""
        upper = np.triu(self.gamma.entries, k=1)
        rows, cols = np.nonzero(upper)
        return [
            (i + 1, j + 1, weight)
            for i, j, weight in zip(rows.tolist(), cols.tolist(), upper[rows, cols].tolist())
        ]

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
    """Adjacency [[0, -A], [-A^T, B]] for any A and a free lower-right block B.

    Adjacency refuses a B that is not symmetric or has a nonzero
    diagonal, as Gamma's diagonal and symmetry are B's. A is not tested.
    When the code [I | A] is MDS the state is at least k-uniform, k the
    code's dimension, whatever B is (the paper's theorem), and every
    Singleton rectangle mds_code builds is MDS. verify_general_uniformity
    checks that bound by the sweep.
    """
    field = code.field
    m = code.n - code.k
    if b.field != field:
        raise ValueError("B must live over the code's field")
    if b.shape != (m, m):
        raise ValueError(f"B must be {m}x{m}")
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
        for level in self.levels:
            if not isinstance(level, (tuple, list)) or len(level) != 2:
                raise ValueError(f"each level must be an (n, k) pair, got {level!r}")
            if not all(map(is_int, level)):
                raise ValueError(f"level sizes must be integers, got {self.levels!r}")
        object.__setattr__(self, "levels", tuple(map(tuple, self.levels)))
        corner = self.levels[0][0]  # level 0 spans the whole register
        for depth, (nl, kl) in enumerate(self.levels):
            if nl > corner:
                raise ValueError(
                    f"level {depth} block of {nl} qudits does not fit in the "
                    f"remaining zero corner of size {corner}"
                )
            if not 1 <= kl <= nl // 2:
                raise ValueError(f"level {depth} needs 1 <= k <= n/2, got (n, k) = ({nl}, {kl})")
            corner = nl - kl

    @classmethod
    def parse(cls, field: PrimeField, text: str) -> "HierarchySpec":
        """Parse "6:2,2:1" or "6:2+2:1" into a spec; n and k are ASCII digits."""
        levels = []
        for token in text.replace("+", ",").split(","):
            try:  # unpacking refuses a token that is not one n:k pair
                n, k = (read_int(part, "a level size") for part in token.split(":"))
            except ValueError:  # chained: the context says which part failed
                raise ValueError(f"bad level token {token!r}, expected n:k in ASCII digits")
            levels.append((n, k))
        return cls(field, tuple(levels))

    def label(self) -> str:
        return "+".join(f"{n}:{k}" for n, k in self.levels)


def level_codes(spec: HierarchySpec, gamma=None) -> tuple[LinearCode, ...]:
    """The [n_l, k_l] MDS code of every level, level 0 first."""
    return tuple(mds_code(spec.field, nl, kl, gamma=gamma) for nl, kl in spec.levels)


def _embed_level(adj: Adjacency, code: LinearCode) -> Adjacency:
    """adj with code's bipartite block written into its last code.n rows and columns."""
    start = adj.n - code.n
    g = np.array(adj.gamma.entries)
    if code.field != adj.field or start < 0 or np.any(g[start:, start:]):
        raise ValueError(
            f"a {code.n}-qudit block over GF({code.field.p}) does not fit in the "
            "remaining zero corner"
        )
    g[start:, start:] = _bipartite_block(code.field, code.a_matrix)
    return Adjacency(MatrixGF(adj.field, g))


def nested_adjacencies(codes) -> list[Adjacency]:
    """Adjacency of every hierarchy prefix: codes[0], then codes[:2], ...

    The first is the bipartite adjacency of codes[0]; each later level
    writes its own bipartite block into the last n_l rows and columns,
    which must be zero up to that point.
    """
    return list(accumulate(codes[1:], _embed_level, initial=bipartite_adjacency(codes[0])))


def hierarchy_adjacency(spec: HierarchySpec, gamma=None) -> Adjacency:
    """Adjacency of the hierarchy state: bipartite blocks nested bottom-right."""
    return nested_adjacencies(level_codes(spec, gamma=gamma))[-1]


def export_dot(adj: Adjacency) -> str:
    """Undirected weighted DOT graph; vertices 1..n, edge label = weight."""
    lines = ["graph g {"]
    for v in range(1, adj.n + 1):
        lines.append(f"  {v};")
    for i, j, w in adj.edges():
        lines.append(f"  {i} -- {j} [label={w}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
