"""Graph-state generators and the exact uniformity verifier.

A product of graph-state generators S_1^{w_1} ... S_n^{w_n} has X-exponent
vector w and Z-exponent vector Gamma w, so qudit i carries the identity
iff w_i = 0 and (Gamma w)_i = 0. The minimum support weight over nonzero
w gives the exact uniformity index without touching any q^n-dimensional
vector. The sweep walks w in order of |supp(w)| and stops at the first
level t with a weight at most t found, since the weight of w is never
below |supp(w)|; for a state that is exactly k-uniform that is level
k + 1. The witness is the lexicographically first minimizer over
all q^n - 1 vectors: every minimizer has support at most the minimum, so
it lies in a level the sweep walked.
"""

from __future__ import annotations

import numpy as np

from ._kernels import min_support_sweep
from .codes import LinearCode
from .errors import guarded_power
from .graph import Adjacency, general_adjacency
from .matrix import MatrixGF

SWEEP_GUARD = 1 << 26  # max q**n, the size of the space the sweep may walk


def graph_generators(adj: Adjacency) -> np.ndarray:
    """Tableau [I | Gamma] of the generators X_i prod_j Z_j^{Gamma[i, j]}.

    Row i holds the X exponents then the Z exponents of generator i. The
    rows commute and are independent for every valid adjacency.
    """
    return np.concatenate([np.eye(adj.n, dtype=np.int64), adj.gamma.entries], axis=1)


def support_weight(w, adj: Adjacency) -> int:
    """|supp(w) union supp(Gamma w mod q)| for one exponent vector."""
    q = adj.field.p
    w = np.mod(np.asarray(w, dtype=np.int64), q)
    if w.shape != (adj.n,):
        raise ValueError(f"w must have length {adj.n}")
    z = (adj.gamma.entries @ w) % q
    return int(np.count_nonzero((w != 0) | (z != 0)))


def minimum_support(adj: Adjacency) -> tuple[int, np.ndarray]:
    """Minimum support weight over all nonzero w, with a witness vector.

    The sweep enumerates w by support size t = 1, 2, ... and stops after
    the first level t at which the best weight is at most t. Every w that
    attains the minimum has support at most the minimum, so all of them
    have been enumerated by then. The witness is the lexicographically
    first of them (base-q index order), the same w an enumeration of all
    q^n - 1 vectors returns, so reruns agree exactly.
    """
    q = adj.field.p
    guarded_power(q, adj.n, SWEEP_GUARD, "sweep guard")
    weight, idx = min_support_sweep(adj.gamma.entries, q)
    powers = q ** np.arange(adj.n - 1, -1, -1, dtype=np.int64)
    witness = (idx // powers) % q
    return weight, witness


def uniformity_index(adj: Adjacency) -> int:
    """Exact uniformity k: minimum support weight minus one.

    The graph state is k-uniform and not (k+1)-uniform, because some
    nonzero generator product acts as the identity on n - (k+1) qudits
    while none acts as the identity on more.
    """
    weight, _ = minimum_support(adj)
    return weight - 1


def verify_general_uniformity(code: LinearCode, b: MatrixGF) -> bool:
    """True iff the generalized adjacency for (code, B) is at least k-uniform."""
    adj = general_adjacency(code, b)
    return uniformity_index(adj) >= code.k
