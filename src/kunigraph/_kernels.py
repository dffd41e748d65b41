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
so c w has the weight of w. Each of these q - 1 multiples has its own
leading nonzero entry, and the one whose leading entry is 1 has the
smallest base-q index of them all. So the kernel visits only vectors with
leading nonzero entry 1, one per scalar class, and still returns the
same (weight, index): Sum_t C(n, t) (q-1)^(t-1) vectors over the levels
it walks, instead of Sum_t C(n, t) (q-1)^t.

A level is a batch of (support, value pattern) pairs, with patterns in
{1..q-1}^t whose first entry is 1, processed as numpy arrays of about
SWEEP_CHUNK vectors. The last r support positions of a batch take their
patterns at once, as a tensor sum of precomputed multiples c * Gamma[i]
mod q; when r = t that tail holds the first position, and its first
entry is fixed to 1. Past SWEEP_CHUNK patterns per support, the first
t - r positions run through their (q-1)^(t-r-1) head patterns one at a
time, and the tail takes all (q-1)^r of its own.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np

DEFAULT_BACKEND = "numpy"  # the only backend; perfbench reports it
SWEEP_CHUNK = 1 << 14  # about this many exponent vectors per numpy batch


def _leading_one_patterns(q: int, width: int) -> np.ndarray:
    """Every vector in {1..q-1}^width with first entry 1, as rows in lexicographic order."""
    places = (q - 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    idx = np.arange((q - 1) ** (width - 1), dtype=np.int64)
    return (idx[:, None] // places) % (q - 1) + 1


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
        # tail patterns per support: (q-1)^(r-1) when the tail spans the support, since
        # its first entry is then fixed to 1, and (q-1)^r past the head otherwise
        r = t
        while r > 1 and (q - 1) ** (r - (r == t)) > SWEEP_CHUNK:
            r -= 1
        h = t - r
        heads = _leading_one_patterns(q, h) if h else None
        supports = combinations(range(n), t)
        per_batch = max(1, SWEEP_CHUNK // (q - 1) ** (r - (h == 0)))
        while True:
            flat = np.fromiter(chain.from_iterable(islice(supports, per_batch)), dtype=np.int64)
            if flat.size == 0:
                break
            s = flat.reshape(-1, t)
            b = s.shape[0]
            # Gamma w laid out as (qudit, support, pattern), so a weight is a
            # sum over the leading axis
            mult = row_mult[:, s[:, h:]]  # (n, b, r, q-1)
            pmult = place_mult[s[:, h:]]  # (b, r, q-1)
            # without a head, the first tail column is the support's first entry: value 1 only
            lead = q - 1 if h else 1
            z_tail, idx_tail = mult[:, :, 0, :lead], pmult[:, 0, :lead]
            for j in range(1, r):
                z_tail = add_mod(z_tail[:, :, :, None], mult[:, :, j, None, :]).reshape(n, b, -1)
                idx_tail = (idx_tail[:, :, None] + pmult[:, j, None]).reshape(b, -1)
            if h:
                head_rows = g[s[:, :h]]  # (b, h, n)

                def with_head(head):
                    z_head = (head_rows * head[:, None]).sum(axis=1) % q  # (b, n)
                    idx_head = place_mult[s[:, :h], head - 1].sum(axis=1)
                    return add_mod(z_tail, z_head.T.astype(small)[:, :, None]), idx_head[:, None]

                blocks = map(with_head, heads)
            else:
                blocks = ((z_tail, 0),)
            batch = np.arange(b)
            for z, idx_head in blocks:
                # a qudit in supp(w) counts whatever Gamma w holds there; z belongs to
                # this batch (at most a view of its gathered mult), so row_mult is intact
                z[s.T, batch] = 1
                weights = (z != 0).sum(axis=0, dtype=small)  # (b, tail patterns)
                m = int(weights.min())
                if m <= best:
                    cand = int((idx_tail + idx_head)[weights == m].min())
                    if m < best or cand < best_idx:
                        best, best_idx = m, cand
        if best <= t:
            break
    return best, best_idx
