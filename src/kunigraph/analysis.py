"""SLOCC-discrimination battery.

Schmidt ranks of reductions are invariant under stochastic local
operations, so two states whose rank spectra differ at any subset lie in
different SLOCC classes. For AME pairs (where every rank agrees) the
computational-basis support counts of the two construction forms are
reported instead; that separation is conclusive for this construction
family but is not an independent numerical proof for arbitrary states,
and the verdict says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .dense import StateVector, rank_of_reduction, support_count, uniformity_by_oracle


@dataclass(frozen=True)
class SloccReport:
    """Outcome of one discrimination test between two states."""

    test: str
    states: tuple[str, str]
    subsets_checked: int
    distinguishing_subsets: tuple[tuple[int, ...], ...]
    ranks: dict = dc_field(default_factory=dict)
    supports: tuple[int, int] | None = None
    verdict: str = "not distinguished"
    note: str = ""

    def to_json(self) -> dict:
        payload = {
            "test": self.test,
            "states": list(self.states),
            "subsets_checked": self.subsets_checked,
            "distinguishing_subsets": [list(s) for s in self.distinguishing_subsets],
            "verdict": self.verdict,
        }
        if self.ranks:
            payload["ranks"] = {
                ",".join(map(str, s)): list(pair) for s, pair in sorted(self.ranks.items())
            }
        if self.supports is not None:
            payload["supports"] = list(self.supports)
        if self.note:
            payload["note"] = self.note
        return payload


def _complement(n: int, subset: tuple[int, ...]) -> tuple[int, ...]:
    """S^c, sorted. rho_S and rho_{S^c} of a pure state share their nonzero
    spectrum, so the callers rank one subset of each complementary pair."""
    return tuple(sorted(set(range(1, n + 1)).difference(subset)))


def rank_spectrum(state: StateVector) -> dict[tuple[int, ...], int]:
    """rank(rho_S) for every subset S with |S| <= floor(n/2), lexicographic.

    A subset whose complement is already mapped (|S| = n/2) takes its rank.
    """
    ranks = {}
    for size in range(1, state.n // 2 + 1):
        for subset in combinations(range(1, state.n + 1), size):
            rank = ranks.get(_complement(state.n, subset))
            ranks[subset] = rank_of_reduction(state, subset) if rank is None else rank
    return ranks


def rank_spectrum_check(
    base: StateVector,
    hier: StateVector,
    labels: tuple[str, str] = ("base", "hierarchy"),
) -> SloccReport:
    """Rank comparison on every subset of size at most floor(n/2)."""
    if (hier.n, hier.q) != (base.n, base.q):
        raise ValueError("states live on different registers")
    spec_a = rank_spectrum(base)
    spec_b = rank_spectrum(hier)
    diffs = sorted(s for s in spec_a if spec_a[s] != spec_b[s])
    return SloccReport(
        test="rank_spectrum",
        states=labels,
        subsets_checked=len(spec_a),
        distinguishing_subsets=tuple(diffs),
        verdict="distinguished" if diffs else "not distinguished",
    )


def rank_split_check(
    base: StateVector,
    hier: StateVector,
    n_star: int,
    k: int,
    k_star: int,
    labels: tuple[str, str] = ("base", "hierarchy"),
) -> SloccReport:
    """Rank comparison on split subsets S_1 u S_2.

    S_1 draws k qudits from the first n - n_star positions and S_2 draws
    k_star from the last n_star. The base state's rank is capped at q^k
    everywhere, while the level-1 state reaches q^{k + k_star} on these
    subsets, so any strict rank difference separates the SLOCC classes.
    When the family holds a subset's complement, the pair is ranked once.
    """
    n, q = base.n, base.q
    if (hier.n, hier.q) != (n, q):
        raise ValueError("states live on different registers")
    if k + k_star > n // 2:
        raise ValueError(f"need k + k_star <= n/2, got {k} + {k_star} > {n // 2}")
    if not 2 <= n_star <= n:
        raise ValueError("n_star out of range")
    checked = 0
    ranks: dict[tuple[int, ...], tuple[int, int]] = {}
    distinguishing: list[tuple[int, ...]] = []
    for s1 in combinations(range(1, n - n_star + 1), k):
        for s2 in combinations(range(n - n_star + 1, n + 1), k_star):
            subset = s1 + s2
            rb, rh = ranks.get(_complement(n, subset)) or (
                rank_of_reduction(base, subset),
                rank_of_reduction(hier, subset),
            )
            ranks[subset] = (rb, rh)
            checked += 1
            if rb != rh:
                distinguishing.append(subset)
    verdict = "distinguished" if distinguishing else "not distinguished"
    note = (
        f"rank is a SLOCC invariant; base rank <= {q**k} and hierarchy rank "
        f"{q ** (k + k_star)} differ on the listed subsets"
        if distinguishing
        else "no rank difference found on the split subsets"
    )
    return SloccReport(
        test="rank_split_subsets",
        states=labels,
        subsets_checked=checked,
        distinguishing_subsets=tuple(distinguishing),
        ranks=ranks,
        verdict=verdict,
        note=note,
    )


def ame_support_check(
    base: StateVector,
    hier: StateVector,
    labels: tuple[str, str] = ("base", "hierarchy"),
) -> SloccReport:
    """Support-count comparison for an AME pair on an odd register.

    Both inputs must verify as AME; every reduction rank then agrees, so
    ranks cannot separate them. The computational-basis supports (q^k for
    the plain code state, q^{k+1} for the level-1 state) are reported as
    the checkable signature of the separation, which holds for this
    construction family specifically.
    """
    n, q = base.n, base.q
    if (hier.n, hier.q) != (n, q):
        raise ValueError("states live on different registers")
    if n % 2 == 0:
        raise ValueError("this test applies to odd qudit counts only")
    target = n // 2
    for name, state in zip(labels, (base, hier)):
        got = uniformity_by_oracle(state)
        if got != target:
            raise ValueError(f"state {name!r} is {got}-uniform, not AME (k={target})")
    sb = support_count(base)
    sh = support_count(hier)
    distinguished = sb != sh
    verdict = "distinguished" if distinguished else "not distinguished by this test"
    note = (
        "support counts differ; for plain-code vs level-1 AME pairs this "
        "separation is conclusive, though support alone is not a general "
        "SLOCC invariant"
        if distinguished
        else "equal support counts; test is inconclusive"
    )
    return SloccReport(
        test="ame_support_counts",
        states=labels,
        subsets_checked=0,
        distinguishing_subsets=(),
        supports=(sb, sh),
        verdict=verdict,
        note=note,
    )
