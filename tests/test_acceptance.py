"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else looser: exact integer matches
for array/code structure, 1e-8 for maximal-mixedness deviation, overlap
and SVD thresholds, 1e-9 for stabilizer eigenchecks. Timed criteria
time the call itself; nothing is compiled, so nothing is warmed first.
"""

import time
from itertools import combinations, product

import numpy as np

from kunigraph import cli
from kunigraph.analysis import rank_split_check
from kunigraph.codes import mds_code, singleton_array
from kunigraph.dense import (
    code_to_graph_fourier_positions,
    eigencheck,
    graph_state,
    rank_of_reduction,
    reduced_density,
    support_count,
    to_graph_form,
    uniformity_by_oracle,
)
from kunigraph.field import PrimeField
from kunigraph.graph import (
    Adjacency,
    HierarchySpec,
    bipartite_adjacency,
    hierarchy_adjacency,
    random_b_matrix,
)
from kunigraph.matrix import MatrixGF
from kunigraph.stabilizer import graph_generators, uniformity_index, verify_general_uniformity


def _report(num: int, text: str) -> None:
    print(f"criterion {num}: PASS ({text})")


def test_criterion_1_singleton_array_reproduction(f5):
    start = time.perf_counter()
    arr = singleton_array(f5, 3)
    elapsed = time.perf_counter() - start
    assert arr == [[1, 1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 4], [1, 4], [1]]
    assert arr[1][1:4] == [2, 3, 4]  # a_1, a_2, a_3
    assert elapsed < 1e-3
    _report(1, f"exact array match in {elapsed * 1e6:.0f} us")


def test_criterion_2_62_state_is_exactly_2_uniform_by_both_methods(f5, code62, adj60, phi60):
    start = time.perf_counter()
    k_stab = uniformity_index(adj60)  # sweeps all 5^6 - 1 exponent vectors
    assert k_stab == 2
    worst = 0.0
    subsets = [s for size in (1, 2) for s in combinations(range(1, 7), size)]
    assert len(subsets) == 6 + 15
    for subset in subsets:
        rho = reduced_density(phi60, subset)
        dim = 5 ** len(subset)
        worst = max(worst, float(np.max(np.abs(rho - np.eye(dim) / dim))))
    assert worst < 1e-8
    k_dense = uniformity_by_oracle(phi60)
    assert k_dense == 2 == k_stab
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"k=2 both methods, max deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_fifty_random_blocks_stay_2_uniform(f5, code62):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(50):
        b = random_b_matrix(f5, 4, rng)
        if not verify_general_uniformity(code62, b):
            failures.append(trial)
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 60.0
    _report(3, f"50 seeded blocks, zero failures, {elapsed:.2f} s")


def test_criterion_4_hierarchy_states_match_graph_states(phi62, phi63, adj62, adj63):
    g62 = graph_state(adj62)
    conv62 = to_graph_form(phi62, code_to_graph_fourier_positions(6, 2, 2, 1))
    overlap62 = conv62.overlap(g62)
    assert overlap62 >= 1 - 1e-8

    g63 = graph_state(adj63)
    conv63 = to_graph_form(phi63, code_to_graph_fourier_positions(6, 2, 3, 1))
    overlap63 = conv63.overlap(g63)
    assert overlap63 >= 1 - 1e-8

    assert uniformity_by_oracle(phi62) == 2
    assert uniformity_by_oracle(phi63) == 2
    _report(4, f"overlaps {overlap62:.12f} and {overlap63:.12f}, both 2-uniform")


def test_criterion_5_split_subset_ranks_distinguish_the_pair(phi60, phi62):
    r_base = rank_of_reduction(phi60, [1, 2, 5])
    r_hier = rank_of_reduction(phi62, [1, 2, 5])
    assert r_base <= 25
    assert r_hier == 125
    report = rank_split_check(phi60, phi62, 2, 2, 1, labels=("6:2", "6:2+2:1"))
    assert report.verdict == "distinguished"
    assert (1, 2, 5) in report.distinguishing_subsets
    _report(5, f"ranks {r_base} vs {r_hier} at subset (1,2,5), pair distinguished")


def test_criterion_6_odd_register_ame_pair_and_supports(f5, code52, phi50, phi52):
    assert uniformity_index(bipartite_adjacency(code52)) == 2
    assert uniformity_index(hierarchy_adjacency(HierarchySpec(f5, ((5, 2), (2, 1))))) == 2
    assert uniformity_by_oracle(phi50) == 2
    assert uniformity_by_oracle(phi52) == 2
    s_base, s_hier = support_count(phi50), support_count(phi52)
    assert (s_base, s_hier) == (25, 125)
    _report(6, f"both AME(5,5) by both methods, supports {s_base} and {s_hier}")


def test_criterion_7_row_combination_zero_bound_over_all_rectangles():
    checked = 0
    for p, gamma in ((5, 3), (7, 3)):
        f = PrimeField(p)
        arr = singleton_array(f, gamma)
        for r0 in range(p):
            for k in range(1, min(3, p - r0) + 1):
                for c0 in range(p):
                    for m in range(1, p + 1):
                        if (r0 + k - 1) + (c0 + m - 1) > p - 1:
                            break
                        a = MatrixGF(f, [arr[r0 + i][c0 : c0 + m] for i in range(k)])
                        assert a.all_square_submatrices_nonsingular(), (p, r0, c0, k, m)
                        for coeffs in product(range(p), repeat=k):
                            t = sum(1 for c in coeffs if c)
                            if t == 0:
                                continue
                            combo = (np.array(coeffs) @ a.entries) % p
                            zeros = int(np.count_nonzero(combo == 0))
                            assert zeros <= t - 1, (p, r0, c0, k, m, coeffs)
                        checked += 1
    _report(7, f"{checked} rectangles, zero counterexamples")


def test_criterion_8_every_generator_fixes_its_graph_state(f5):
    rng = np.random.default_rng(77)
    corpus = [
        Adjacency(MatrixGF.zeros(f5, 3, 3)),
        bipartite_adjacency(mds_code(f5, 2, 1)),
        bipartite_adjacency(mds_code(f5, 5, 2)),
        bipartite_adjacency(mds_code(f5, 6, 2)),
        hierarchy_adjacency(HierarchySpec(f5, ((5, 2), (2, 1)))),
        hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (2, 1)))),
        hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (3, 1)))),
        hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (4, 2)))),
    ]
    from kunigraph.graph import general_adjacency

    corpus.append(general_adjacency(mds_code(f5, 6, 2), random_b_matrix(f5, 4, rng)))
    checked = 0
    for adj in corpus:
        g = graph_state(adj)
        for row in graph_generators(adj):
            assert eigencheck(g, row[: adj.n], row[adj.n :]), adj
            checked += 1
    _report(8, f"{checked} generator eigenchecks within 1e-9")


def test_criterion_9_cli_corpus_is_byte_deterministic(tmp_path, capsys):
    corpus = [
        ["build", "--p", "5", "--n", "6", "--k", "2", "--with-state"],
        ["build", "--p", "5", "--levels", "6:2,2:1", "--with-state", "--sparse-state"],
        ["build", "--p", "5", "--n", "6", "--k", "2", "--b-mode", "random", "--seed", "3"],
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all",
         "--random-b", "10", "--seed", "5"],
        ["verify", "--p", "5", "--levels", "6:2,3:1", "--method", "stabilizer"],
        ["hierarchy", "--p", "5", "--levels", "6:2,2:1"],
        ["slocc", "--p", "5", "--pair", "6:2", "6:2+2:1"],
        ["slocc", "--p", "5", "--pair", "5:2", "5:2+2:1"],
    ]

    def run_all(outdir):
        chunks = []
        for i, argv in enumerate(corpus):
            extra = ["--out", str(outdir / f"cmd{i}")] if argv[0] in ("build", "hierarchy") else []
            status = cli.main(argv + extra)
            assert status == 0, argv
            chunks.append(capsys.readouterr().out)
        files = {}
        for path in sorted(outdir.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(outdir))] = path.read_bytes()
        return chunks, files

    out_a, files_a = run_all(tmp_path / "a")
    out_b, files_b = run_all(tmp_path / "b")
    # stdout must match except for the echoed --out path
    for sa, sb, argv in zip(out_a, out_b, corpus):
        sa = sa.replace(str(tmp_path / "a"), "OUT")
        sb = sb.replace(str(tmp_path / "b"), "OUT")
        assert sa == sb, argv
    assert files_a.keys() == files_b.keys()
    for name in files_a:
        assert files_a[name] == files_b[name], name
    _report(9, f"{len(corpus)} commands, stdout and {len(files_a)} files byte-identical")
