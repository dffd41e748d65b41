"""Hot kernel for the stabilizer support sweep.

The sweep enumerates every nonzero exponent vector w in Z_q^n and finds
the minimum of |supp(w) union supp(Gamma w)|, which is the whole cost of
uniformity verification. It runs as a chunked vectorized numpy
enumeration; ties break to the smallest index.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BACKEND = "numpy"  # the only backend; perfbench reports it


def min_support_sweep(gamma: np.ndarray, q: int, chunk: int = 1 << 14) -> tuple[int, int]:
    """Chunked numpy sweep over all nonzero w; returns (support, index)."""
    g = np.ascontiguousarray(gamma, dtype=np.int64)
    n = g.shape[0]
    total = q**n
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best = n + 1
    best_idx = -1
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        w = (idx[:, None] // powers[None, :]) % q
        z = (w @ g) % q  # gamma is symmetric, so w @ g == (g @ w^T)^T
        weights = np.count_nonzero((w != 0) | (z != 0), axis=1)
        m = int(weights.argmin())
        if int(weights[m]) < best:
            best = int(weights[m])
            best_idx = int(idx[m])
    return best, best_idx
