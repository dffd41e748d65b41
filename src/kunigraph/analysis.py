"""SLOCC-discrimination battery.

Schmidt ranks of reductions are invariant under stochastic local
operations, so two states whose rank spectra differ at any subset lie in
different SLOCC classes. One rank table serves every rank test: it ranks
each subset of a family on all states at once, and ranks a complementary
pair of subsets once. For AME pairs (where every rank agrees) the
computational-basis support counts of the two construction forms are
reported instead; that separation is conclusive for this construction
family but is not an independent numerical proof for arbitrary states,
and the verdict says so.

Each check returns the JSON report that ``kunigraph slocc`` prints.
"""

from __future__ import annotations

from itertools import combinations

from .dense import StateVector, reduction_ranks, support_count, uniformity_by_oracle


def _register(states) -> int:
    """The qudit count all states share; states on different registers are refused."""
    if len({(state.n, state.q) for state in states}) > 1:
        raise ValueError("states live on different registers")
    return states[0].n


def _rank_table(states, subsets) -> dict[tuple[int, ...], tuple[int, ...]]:
    """rank(rho_S) of every state, for each subset S in the order given.

    One reduction_ranks call per state, which ranks a complementary pair once.
    """
    _register(states)
    subsets = list(subsets)
    return dict(zip(subsets, zip(*(reduction_ranks(state, subsets) for state in states))))


def _half_subsets(n: int):
    """Every subset of at most floor(n/2) qudits, by size, then lexicographic."""
    for size in range(1, n // 2 + 1):
        yield from combinations(range(1, n + 1), size)


def _pair_report(test: str, labels, table) -> dict:
    """The report fields every two-state rank test shares."""
    diffs = sorted(s for s, (rank_a, rank_b) in table.items() if rank_a != rank_b)
    return {
        "test": test,
        "states": list(labels),
        "subsets_checked": len(table),
        "distinguishing_subsets": [list(s) for s in diffs],
        "verdict": "distinguished" if diffs else "not distinguished",
    }


def rank_spectrum(state: StateVector) -> dict[tuple[int, ...], int]:
    """rank(rho_S) for every subset S with |S| <= floor(n/2), by size, then lexicographic."""
    return {s: rank for s, (rank,) in _rank_table((state,), _half_subsets(state.n)).items()}


def rank_spectrum_check(
    base: StateVector,
    hier: StateVector,
    labels: tuple[str, str] = ("base", "hierarchy"),
) -> dict:
    """Rank comparison on every subset of size at most floor(n/2)."""
    table = _rank_table((base, hier), _half_subsets(base.n))
    return _pair_report("rank_spectrum", labels, table)


def rank_split_check(
    base: StateVector,
    hier: StateVector,
    n_star: int,
    k: int,
    k_star: int,
    labels: tuple[str, str] = ("base", "hierarchy"),
) -> dict:
    """Rank comparison on split subsets S_1 u S_2.

    S_1 draws k qudits from the first n - n_star positions and S_2 draws
    k_star from the last n_star. The base state's rank is capped at q^k
    everywhere, while the level-1 state reaches q^{k + k_star} on these
    subsets, so any strict rank difference separates the SLOCC classes.
    The report lists both ranks of every split subset.
    """
    n, q = base.n, base.q
    if k + k_star > n // 2:
        raise ValueError(f"need k + k_star <= n/2, got {k} + {k_star} > {n // 2}")
    if n_star < 2 or k > n - n_star or k_star > n_star:
        raise ValueError(
            f"no split subsets: need 2 <= n_star, k <= n - n_star and k_star <= n_star, "
            f"got n = {n}, n_star = {n_star}, k = {k}, k_star = {k_star}"
        )
    subsets = (
        s1 + s2
        for s1 in combinations(range(1, n - n_star + 1), k)
        for s2 in combinations(range(n - n_star + 1, n + 1), k_star)
    )
    table = _rank_table((base, hier), subsets)
    report = _pair_report("rank_split_subsets", labels, table)
    report["ranks"] = {",".join(map(str, s)): list(ranks) for s, ranks in table.items()}
    report["note"] = (
        f"rank is a SLOCC invariant; base rank <= {q**k} and hierarchy rank "
        f"{q ** (k + k_star)} differ on the listed subsets"
        if report["distinguishing_subsets"]
        else "no rank difference found on the split subsets"
    )
    return report


def ame_support_check(
    base: StateVector,
    hier: StateVector,
    labels: tuple[str, str] = ("base", "hierarchy"),
) -> dict:
    """Support-count comparison for an AME pair on an odd register.

    Both inputs must verify as AME; every reduction rank then agrees, so
    ranks cannot separate them. The computational-basis supports (q^k for
    the plain code state, q^{k+1} for the level-1 state) are reported as
    the checkable signature of the separation, which holds for this
    construction family specifically.
    """
    n = _register((base, hier))
    if n % 2 == 0:
        raise ValueError("this test applies to odd qudit counts only")
    for name, state in zip(labels, (base, hier)):
        got = uniformity_by_oracle(state)
        if got != n // 2:
            raise ValueError(f"state {name!r} is {got}-uniform, not AME (k={n // 2})")
    supports = [support_count(base), support_count(hier)]
    distinguished = supports[0] != supports[1]
    return {
        "test": "ame_support_counts",
        "states": list(labels),
        "subsets_checked": 0,
        "distinguishing_subsets": [],
        "supports": supports,
        "verdict": "distinguished" if distinguished else "not distinguished by this test",
        "note": (
            "support counts differ; for plain-code vs level-1 AME pairs this "
            "separation is conclusive, though support alone is not a general "
            "SLOCC invariant"
            if distinguished
            else "equal support counts; test is inconclusive"
        ),
    }
