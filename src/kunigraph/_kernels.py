"""Hot kernel for the stabilizer support sweep.

The sweep finds the minimum of |supp(w) union supp(Gamma w)| over the
nonzero exponent vectors w in Z_q^n, which is the whole cost of
uniformity verification, and the smallest base-q index attaining it.

The weight of w is at least |supp(w)|. So the kernel enumerates w level
by level, t = |supp(w)| = 1, 2, ..., and stops after level t once the
best weight found is at most t: no vector of larger support can beat it.
Every w attaining the minimum has support at most that minimum, so every
attainer has been seen when the sweep stops, and the smallest index among
them is the same witness an enumeration of all q^n - 1 vectors returns.
For a k-uniform graph state the sweep ends at level k + 1.

For every c in 1..q-1, c w has the support of w and Gamma (c w) = c Gamma w,
so c w has the weight of w, and of these q - 1 multiples the one whose
leading nonzero entry is 1 has the smallest base-q index. So the kernel
visits only that one, one vector per scalar class, and still returns the
same (weight, index): Sum_t C(n, t) (q-1)^(t-1) vectors over the levels
it walks, instead of Sum_t C(n, t) (q-1)^t.

A level runs in batches of whole supports, max(1, SWEEP_CHUNK //
(q-1)^(t-1)) at a time. A support's first entry is 1, and its other t - 1
entries take all their values at once, as a tensor sum of precomputed
multiples c * Gamma[i] mod q. A pure state of n qudits is at most
floor(n/2)-uniform, so the sweep stops by level floor(n/2) + 1, and under
the guard q^n <= 2^26 one support holds at most (q-1)^floor(n/2) <= 8,190
patterns (GF(8191), n = 2), fewer than SWEEP_CHUNK.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np

DEFAULT_BACKEND = "numpy"  # the only backend; perfbench reports it
SWEEP_CHUNK = 1 << 14  # about this many exponent vectors per numpy batch


def min_support_sweep(gamma: np.ndarray, q: int) -> tuple[int, int]:
    """Minimum support over all nonzero w, in support order; returns (support, index).

    The index is the smallest base-q index (w_1 most significant) among
    the vectors attaining the minimum.
    """
    g = np.ascontiguousarray(gamma, dtype=np.int64)
    n = g.shape[0]
    # unsigned, so a + b - q wraps above a + b exactly when a + b < q; it also
    # holds a weight, which is at most n
    small = np.min_scalar_type(max(2 * q, n))
    q_small = small.type(q)
    values = np.arange(1, q, dtype=np.int64)
    # row_mult[:, i, c - 1] = c * Gamma[i] mod q: the part of Gamma w due to w_i = c,
    # laid out qudit first; place_mult[i, c - 1] = c * q^(n-1-i): its part of the
    # base-q index of w
    row_mult = (g.T[:, :, None] * values % q).astype(small)
    place_mult = q ** np.arange(n - 1, -1, -1, dtype=np.int64)[:, None] * values

    def add_mod(a, b):
        s = a + b
        return np.minimum(s, s - q_small, out=s)

    best, best_idx = n + 1, -1
    for t in range(1, n + 1):
        supports = combinations(range(n), t)
        per_batch = max(1, SWEEP_CHUNK // (q - 1) ** (t - 1))
        while True:
            flat = np.fromiter(chain.from_iterable(islice(supports, per_batch)), dtype=np.int64)
            if flat.size == 0:
                break
            s = flat.reshape(-1, t)
            b = s.shape[0]
            # Gamma w laid out as (qudit, support, pattern), so a weight is a
            # sum over the leading axis
            mult = row_mult[:, s]  # (n, b, t, q-1)
            pmult = place_mult[s]  # (b, t, q-1)
            # the first column is the support's first entry: value 1 only
            z, idx = mult[:, :, 0, :1], pmult[:, 0, :1]
            for j in range(1, t):
                z = add_mod(z[:, :, :, None], mult[:, :, j, None, :]).reshape(n, b, -1)
                idx = (idx[:, :, None] + pmult[:, j, None]).reshape(b, -1)
            # a qudit in supp(w) counts whatever Gamma w holds there; z belongs to
            # this batch (at most a view of its gathered mult), so row_mult is intact
            z[s.T, np.arange(b)] = 1
            weights = (z != 0).sum(axis=0, dtype=small)  # (b, patterns)
            m = int(weights.min())
            if m <= best:
                cand = int(idx[weights == m].min())
                if m < best or cand < best_idx:
                    best, best_idx = m, cand
        if best <= t:
            break
    return best, best_idx
