import argparse
import json

import numpy as np
import pytest

from kunigraph import (
    Adjacency,
    LinearCode,
    PrimeField,
    StateVector,
    graph_state,
    hierarchy_state_from_codes,
    mds_code,
    state_from_code,
)
from kunigraph import cli, codes
from kunigraph.matrix import MatrixGF


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    return status, json.loads(out) if out else None


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_writes_the_62_artifacts(tmp_path, capsys):
    status, doc = run_json(
        capsys, "build", "--p", "5", "--n", "6", "--k", "2", "--out", str(tmp_path)
    )
    assert status == 0
    assert doc["result"]["code"]["A"] == [[1, 1, 1, 1], [1, 2, 3, 4]]
    assert doc["tool"] == "kunigraph" and doc["version"]
    assert doc["config"]["subcommand"] == "build"
    code = json.loads((tmp_path / "code.json").read_text())
    assert (code["n"], code["k"], code["p"]) == (6, 2, 5)
    adjacency = json.loads((tmp_path / "adjacency.json").read_text())
    assert adjacency["gamma"][0] == [0, 0, 4, 4, 4, 4]
    dot = (tmp_path / "graph.dot").read_text()
    assert "1 -- 3 [label=4];" in dot


def test_build_hierarchy_levels(tmp_path, capsys):
    status, doc = run_json(
        capsys, "build", "--p", "5", "--levels", "6:2,2:1", "--out", str(tmp_path)
    )
    assert status == 0
    gamma = doc["result"]["adjacency"]["gamma"]
    assert gamma[4][5] == 4 and gamma[5][4] == 4
    assert doc["result"]["edge_count"] == 9


def test_build_with_state(tmp_path, capsys):
    status, doc = run_json(
        capsys,
        "build", "--p", "5", "--n", "6", "--k", "2",
        "--out", str(tmp_path), "--with-state", "--sparse-state",
    )
    assert status == 0
    assert doc["result"]["state_form"] == "code_superposition"
    state = json.loads((tmp_path / "state.json").read_text())
    assert state["sparse"] is True
    assert len(state["amplitudes"]) == 25


# each construction form with the state a library call builds from the same inputs
STATE_FORMS = {
    "code_superposition": (
        ["--n", "6", "--k", "2"],
        lambda result: state_from_code(LinearCode.from_json(result["code"])),
    ),
    "hierarchy_operator": (
        ["--levels", "6:2,2:1"],
        lambda result: hierarchy_state_from_codes(
            mds_code(PrimeField(5), 6, 2), mds_code(PrimeField(5), 2, 1)
        ),
    ),
    "graph": (
        ["--n", "6", "--k", "2", "--b-mode", "random", "--seed", "3"],
        lambda result: graph_state(Adjacency.from_json(result["adjacency"])),
    ),
}


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("form", STATE_FORMS)
def test_state_file_holds_the_payload_of_a_fresh_state(tmp_path, capsys, form, sparse):
    flags, fresh_state = STATE_FORMS[form]
    argv = ["build", "--p", "5", *flags, "--with-state", "--out", str(tmp_path)]
    status, doc = run_json(capsys, *argv, *(["--sparse-state"] if sparse else []))
    assert status == 0
    assert doc["result"]["state_form"] == form
    fresh = fresh_state(doc["result"])
    data = (tmp_path / "state.json").read_bytes()
    assert data == (json.dumps(fresh.to_json(sparse=sparse), sort_keys=True) + "\n").encode()
    payload = json.loads(data)
    assert payload == fresh.to_json(sparse=sparse)
    assert np.array_equal(StateVector.from_json(payload).amplitudes, fresh.amplitudes)


def test_build_rejects_composite_modulus(capsys):
    status, _ = run_cli(capsys, "build", "--p", "4", "--n", "6", "--k", "2")
    assert status == 2


def test_build_requires_construction_flags(capsys):
    status, _ = run_cli(capsys, "build", "--p", "5")
    assert status == 2


def test_build_refuses_state_without_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    status, out = run_cli(capsys, "build", "--p", "5", "--n", "6", "--k", "2", "--with-state")
    assert status == 2
    assert out == "" and not any(tmp_path.iterdir())


def test_build_refuses_sparse_state_without_state(tmp_path, capsys):
    status, out = run_cli(
        capsys, "build", "--p", "5", "--n", "6", "--k", "2",
        "--out", str(tmp_path / "a"), "--sparse-state",
    )
    assert status == 2
    assert out == "" and not (tmp_path / "a").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_methods_agree_on_62(capsys):
    status, doc = run_json(
        capsys, "verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all"
    )
    assert status == 0
    res = doc["result"]
    assert res["k_structural"] == res["k_stabilizer"] == res["k_dense"] == 2
    assert res["agree"] is True
    assert res["structural_min_distance"] == 5
    assert res["structural_dual_min_distance"] == 3
    witness = res["witness_w_for_k_plus_1"]
    assert len(witness) == 6 and any(witness)


def test_verify_stabilizer_only(capsys):
    status, doc = run_json(
        capsys, "verify", "--p", "5", "--levels", "6:2,3:1", "--method", "stabilizer"
    )
    assert status == 0
    assert doc["result"]["k_stabilizer"] == 2
    assert "k_dense" not in doc["result"]


def test_verify_random_b_property_run(capsys):
    status, doc = run_json(
        capsys,
        "verify", "--p", "5", "--n", "6", "--k", "2",
        "--method", "stabilizer", "--random-b", "10", "--seed", "42",
    )
    assert status == 0
    assert doc["result"]["random_b"]["trials"] == 10
    assert doc["result"]["random_b"]["failures"] == []


def test_verify_seeded_random_block_instance(capsys):
    status, doc = run_json(
        capsys,
        "verify", "--p", "5", "--n", "6", "--k", "2",
        "--b-mode", "random", "--seed", "11", "--method", "stabilizer",
    )
    assert status == 0
    assert doc["result"]["k_stabilizer"] >= 2


def test_verify_refuses_negative_random_b(capsys):
    status, out = run_cli(
        capsys, "verify", "--p", "5", "--n", "6", "--k", "2", "--random-b", "-5"
    )
    assert status == 2
    assert out == ""


def test_verify_refuses_multi_level_random_b_before_verifying(capsys, monkeypatch):
    def unexpected(adj):
        raise AssertionError("the sweep ran before the refusal")

    monkeypatch.setattr(cli, "minimum_support", unexpected)
    status, out = run_cli(
        capsys, "verify", "--p", "5", "--levels", "6:2,2:1", "--method", "stabilizer",
        "--random-b", "2",
    )
    assert status == 2
    assert out == ""


def test_verify_guard_exit_code(capsys):
    status, _ = run_cli(
        capsys, "verify", "--p", "101", "--n", "102", "--k", "2", "--method", "stabilizer"
    )
    assert status == 3


def test_verify_negative_exit_when_methods_disagree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "uniformity_by_oracle", lambda state: 1)
    status, doc = run_json(
        capsys, "verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all"
    )
    assert status == 1
    assert doc["result"]["agree"] is False


@pytest.mark.parametrize(
    "spec",
    [
        ("--levels", "6:2,4:2"),  # AME: B raises k from 2 to 3
        ("--levels", "6:1,5:2"),  # B raises k from 1 to 2
        ("--n", "6", "--k", "2", "--b-mode", "random", "--seed", "8"),  # from 2 to 3
    ],
)
def test_verify_agrees_when_b_raises_k_above_the_structural_bound(capsys, spec):
    status, doc = run_json(capsys, "verify", "--p", "5", *spec, "--method", "all")
    res = doc["result"]
    assert res["k_stabilizer"] == res["k_dense"] == res["k_structural"] + 1
    assert res["agree"] is True and status == 0


def test_verify_negative_when_exact_routes_fall_below_the_structural_bound(
    capsys, monkeypatch
):
    # both exact routes say k = 1 on 6:2+2:1, whose outer code gives k >= 2
    monkeypatch.setattr(cli, "minimum_support", lambda adj: (2, np.zeros(adj.n, int)))
    monkeypatch.setattr(cli, "uniformity_by_oracle", lambda state: 1)
    status, doc = run_json(
        capsys, "verify", "--p", "5", "--levels", "6:2,2:1", "--method", "all"
    )
    res = doc["result"]
    assert (res["k_structural"], res["k_stabilizer"], res["k_dense"]) == (2, 1, 1)
    assert res["agree"] is False and status == 1


def test_verify_single_zero_b_level_needs_the_exact_structural_k(capsys, monkeypatch):
    # above d-dual - 1 is no bound here: one zero-B level is exactly k-uniform
    monkeypatch.setattr(cli, "minimum_support", lambda adj: (4, np.zeros(adj.n, int)))
    monkeypatch.setattr(cli, "uniformity_by_oracle", lambda state: 3)
    status, doc = run_json(
        capsys, "verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all"
    )
    res = doc["result"]
    assert (res["k_structural"], res["k_stabilizer"], res["k_dense"]) == (2, 3, 3)
    assert res["agree"] is False and status == 1


@pytest.mark.parametrize("p, levels, calls", [(11, "8:4", 2), (13, "11:5", 2), (17, "7:3", 2)])
def test_structural_verify_row_reduces_only_for_information_sets(
    capsys, monkeypatch, p, levels, calls
):
    # the dual comes from A itself; only min_distance's sets reduce, and a set of
    # lower rank only when it could end the search, so 11:5's and 7:3's rank-1 sets
    # are never formed
    counted = []
    reduce = codes.row_reduce
    monkeypatch.setattr(codes, "row_reduce", lambda *a: counted.append(1) or reduce(*a))
    status, _ = run_json(
        capsys, "verify", "--p", str(p), "--levels", levels, "--method", "structural"
    )
    assert status == 0
    assert len(counted) == calls


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------

def test_hierarchy_reports_every_prefix(tmp_path, capsys):
    status, doc = run_json(
        capsys, "hierarchy", "--p", "5", "--levels", "6:2,2:1", "--out", str(tmp_path)
    )
    assert status == 0
    rows = doc["result"]["levels_checked"]
    assert [r["k_stabilizer"] for r in rows] == [2, 2]
    assert [r["edge_count"] for r in rows] == [8, 9]
    assert doc["result"]["edge_counts_strictly_increase"] is True
    assert (tmp_path / "adjacency_6-2.json").exists()
    assert (tmp_path / "adjacency_6-2_2-1.json").exists()
    assert (tmp_path / "graph_6-2_2-1.dot").exists()


@pytest.mark.parametrize("flag", [["--b-mode", "random"], ["--seed", "3"]])
def test_hierarchy_refuses_random_block_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hierarchy", "--p", "5", "--levels", "4:2,2:1", *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# slocc
# ---------------------------------------------------------------------------

def test_slocc_distinguishes_base_from_level1(capsys):
    status, doc = run_json(
        capsys, "slocc", "--p", "5", "--pair", "6:2", "6:2+2:1"
    )
    assert status == 0
    assert doc["result"]["verdict"] == "distinguished"
    report = doc["result"]["reports"][0]
    assert report["test"] == "rank_split_subsets"
    assert report["ranks"]["1,2,5"] == [25, 125]


def test_slocc_identical_pair(capsys):
    status, doc = run_json(capsys, "slocc", "--p", "5", "--pair", "6:2", "6:2")
    assert status == 0
    assert doc["result"]["verdict"] == "not distinguished"


def test_slocc_ame_pair_reports_supports(capsys):
    status, doc = run_json(capsys, "slocc", "--p", "5", "--pair", "5:2", "5:2+2:1")
    assert status == 0
    support_reports = [r for r in doc["result"]["reports"] if r["test"] == "ame_support_counts"]
    assert support_reports and support_reports[0]["supports"] == [25, 125]
    assert doc["result"]["verdict"] == "distinguished"


def test_slocc_runs_the_dense_oracle_once_per_state(capsys, monkeypatch):
    from kunigraph import analysis, dense

    calls = []

    def counted(state):
        calls.append(state)
        return dense.uniformity_by_oracle(state)

    monkeypatch.setattr(cli, "uniformity_by_oracle", counted)
    monkeypatch.setattr(analysis, "uniformity_by_oracle", counted)
    status, doc = run_json(capsys, "slocc", "--p", "5", "--pair", "5:2", "5:2+2:1")
    assert status == 0
    assert len(calls) == 2
    assert doc["result"]["reports"][-1]["supports"] == [25, 125]


def test_slocc_ranks_each_complementary_pair_once(capsys, monkeypatch):
    # the 12 split subsets of 6 qudits form 6 complementary pairs per state
    from kunigraph import dense

    calls = []
    rank = dense._ranks_in_one_pass

    def counted(support, values, q, n, sides):
        calls.extend(sides)
        return rank(support, values, q, n, sides)

    monkeypatch.setattr(dense, "_ranks_in_one_pass", counted)
    status, doc = run_json(capsys, "slocc", "--p", "5", "--pair", "6:2", "6:2+2:1")
    assert status == 0
    assert len(calls) == 12
    assert len(doc["result"]["reports"][0]["ranks"]) == 12


def test_slocc_odd_register_pair_that_is_not_ame(capsys):
    # 5:1 is 1-uniform, not AME on 5 qudits: the support check refuses the
    # pair, so the split ranks are the only report
    status, doc = run_json(capsys, "slocc", "--p", "5", "--pair", "5:1", "5:1+2:1")
    assert status == 0
    [report] = doc["result"]["reports"]
    assert report["test"] == "rank_split_subsets"
    assert report["subsets_checked"] == 6  # C(3,1) * C(2,1)
    assert doc["result"]["verdict"] == "distinguished"


@pytest.mark.parametrize("pair, expected", [(("5:1", "5:1+2:1"), 0), (("5:2", "5:2+2:1"), 2)])
def test_slocc_runs_the_support_check_only_on_pairs_the_ranks_leave_open(
    capsys, monkeypatch, pair, expected
):
    # ranks that distinguish the pair leave a state of less than full rank,
    # which is not AME, so the support check could only refuse it
    from kunigraph import analysis, dense

    calls = []

    def counted(state):
        calls.append(state)
        return dense.uniformity_by_oracle(state)

    monkeypatch.setattr(analysis, "uniformity_by_oracle", counted)
    status, doc = run_json(capsys, "slocc", "--p", "5", "--pair", *pair)
    assert status == 0
    assert len(calls) == expected
    tests = [report["test"] for report in doc["result"]["reports"]]
    assert ("ame_support_counts" in tests) == bool(expected)


def test_slocc_rejects_states_on_different_registers(capsys):
    status, out = run_cli(capsys, "slocc", "--p", "5", "--pair", "4:2", "6:2")
    assert status == 2
    assert out == ""


def test_slocc_rejects_deep_hierarchies(capsys):
    status, _ = run_cli(capsys, "slocc", "--p", "7", "--pair", "8:2", "8:2+4:1+2:1")
    assert status == 2


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_dot_round_trip(tmp_path, capsys):
    status, _ = run_json(
        capsys, "build", "--p", "5", "--n", "6", "--k", "2", "--out", str(tmp_path)
    )
    assert status == 0
    status, out = run_cli(capsys, "export", "--adjacency", str(tmp_path / "adjacency.json"))
    assert status == 0
    assert out.startswith("graph g {")
    assert "1 -- 3 [label=4];" in out


def test_export_missing_file(capsys):
    status, _ = run_cli(capsys, "export", "--adjacency", "/nonexistent/adj.json")
    assert status == 2


def test_export_refuses_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5, encoding="utf-8")
    status, out = run_cli(capsys, "export", "--adjacency", str(path))
    assert status == 2
    assert out == ""


@pytest.mark.parametrize("gamma", ["7", "-3", "5"])
def test_gamma_outside_the_field_is_invalid_input(capsys, gamma):
    # 7 and -3 are 2 mod 5, a primitive element; they are refused, not reduced
    status, out = run_cli(capsys, "verify", "--p", "5", "--n", "6", "--k", "2", "--gamma", gamma)
    assert status == 2
    assert out == ""


@pytest.mark.parametrize("p, levels", [("11", "1_0:5"), ("5", "\u0666:\u0662")])
def test_levels_outside_ascii_digits_are_invalid_input(capsys, p, levels):
    # int() reads these as 10:5 and 6:2
    status, out = run_cli(capsys, "verify", "--p", p, "--levels", levels)
    assert status == 2
    assert out == ""


def test_build_at_a_large_prime_cuts_only_its_rectangle(capsys):
    # the full GF(8191) Singleton triangle would hold about 3.4e7 entries
    status, doc = run_json(capsys, "build", "--p", "8191", "--n", "4", "--k", "2")
    assert status == 0
    assert doc["result"]["code"]["A"][0] == [1, 1]


def test_sweep_at_the_largest_prime_the_guard_admits_for_two_qudits(capsys):
    # 8191^2 <= 2^26 < 8209^2: level 2 holds one support of 8,190 value patterns,
    # the most any support can hold under the sweep guard
    status, doc = run_json(
        capsys, "verify", "--p", "8191", "--n", "2", "--k", "1", "--method", "stabilizer"
    )
    assert status == 0
    assert doc["result"]["k_stabilizer"] == 1
    assert doc["result"]["witness_w_for_k_plus_1"] == [0, 1]
    status, out = run_cli(
        capsys, "verify", "--p", "8209", "--n", "2", "--k", "1", "--method", "stabilizer"
    )
    assert status == 3
    assert out == ""


@pytest.mark.parametrize(
    "payload",
    [
        {"p": 5, "n": 2, "gamma": [[0, 7], [7, 0]]},  # entry outside [0, p)
        {"p": 5, "n": 2, "gamma": [[0, 1.5], [1.5, 0]]},  # non-integer entry
        {"p": 5, "n": 2, "gamma": [[0, -1], [-1, 0]]},  # negative entry
        {"p": 5, "n": 2, "gamma": [[0, True], [True, 0]]},  # boolean entry
        {"p": "5", "n": 2, "gamma": [[0, 1], [1, 0]]},  # string modulus
        {"p": True, "n": 2, "gamma": [[0, 1], [1, 0]]},  # boolean modulus
        {"p": 5, "gamma": [[0, 1], [1, 0]]},  # missing n
        {"p": 5, "n": 2, "gamma": [0, 1]},  # not a list of rows
        [[0, 1], [1, 0]],  # not an object
    ],
)
def test_export_refuses_inexact_adjacency_json(tmp_path, capsys, payload):
    path = tmp_path / "adj.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    status, out = run_cli(capsys, "export", "--adjacency", str(path))
    assert status == 2
    assert out == ""


# ---------------------------------------------------------------------------
# MDS tests per command
# ---------------------------------------------------------------------------

# construction proves each level's code MDS by theorem and tests no minor:
# one MDS test for the structural route, one per general_adjacency call (each
# random B)
MDS_TESTS_PER_COMMAND = [
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "stabilizer"], 0,
        id="verify-stabilizer",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "structural"], 1,
        id="verify-structural",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all"], 1,
        id="verify-all",
    ),
    pytest.param(
        ["verify", "--p", "5", "--levels", "6:2,3:1", "--method", "dense"], 0,
        id="verify-dense-two-levels",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "stabilizer",
         "--random-b", "3"], 3,
        id="verify-random-b-trials",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "stabilizer",
         "--b-mode", "random"], 1,
        id="verify-b-mode-random",
    ),
    pytest.param(["hierarchy", "--p", "7", "--levels", "7:3,4:2,2:1"], 0, id="hierarchy"),
    pytest.param(["build", "--p", "5", "--n", "6", "--k", "2"], 0, id="build"),
    pytest.param(
        ["build", "--p", "5", "--levels", "6:2,2:1", "--with-state", "--out", "st"], 0,
        id="build-two-level-state",
    ),
    pytest.param(
        ["build", "--p", "5", "--levels", "6:3,3:1,2:1", "--with-state", "--out", "deep"], 0,
        id="build-three-level-state",
    ),
    pytest.param(["slocc", "--p", "5", "--pair", "6:2", "6:2+2:1"], 0, id="slocc"),
]


@pytest.mark.parametrize("argv, expected", MDS_TESTS_PER_COMMAND)
def test_each_command_runs_one_mds_test_per_code_it_builds(
    tmp_path, monkeypatch, capsys, argv, expected
):
    monkeypatch.chdir(tmp_path)
    calls = []
    check = MatrixGF.all_square_submatrices_nonsingular

    def counted(self):
        calls.append(self.shape)
        return check(self)

    monkeypatch.setattr(MatrixGF, "all_square_submatrices_nonsingular", counted)
    status, _ = run_cli(capsys, *argv)
    assert status == 0
    assert len(calls) == expected, calls


# each A block is tested once, however many of the calls above read its verdict
MDS_VERDICTS_PER_COMMAND = [
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "structural"], 1,
        id="verify-structural",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all"], 1,
        id="verify-all",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "stabilizer",
         "--random-b", "3"], 1,
        id="verify-random-b-trials",
    ),
    pytest.param(["hierarchy", "--p", "7", "--levels", "7:3,4:2,2:1"], 0, id="hierarchy"),
    pytest.param(["slocc", "--p", "5", "--pair", "6:2", "6:2+2:1"], 0, id="slocc"),
]


@pytest.mark.parametrize("argv, expected", MDS_VERDICTS_PER_COMMAND)
def test_each_command_computes_one_mds_verdict_per_code_it_builds(
    tmp_path, monkeypatch, capsys, argv, expected
):
    monkeypatch.chdir(tmp_path)
    verdicts = []
    compute = MatrixGF._minors_nonsingular

    def counted(self):
        verdicts.append(self.shape)
        return compute(self)

    monkeypatch.setattr(MatrixGF, "_minors_nonsingular", counted)
    status, _ = run_cli(capsys, *argv)
    assert status == 0
    assert len(verdicts) == expected, verdicts


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def echo(subcommand, **flags):
    """The config a command echoes: its own flags over the table's defaults."""
    return {"subcommand": subcommand, **cli.ECHO, **flags}


def test_consecutive_commands_echo_only_their_own_flags(tmp_path, capsys):
    # main reuses one parser, so no flag of one call may reach the next
    out = str(tmp_path / "b")
    status, doc = run_json(
        capsys, "build", "--p", "5", "--n", "6", "--k", "2", "--out", out,
        "--with-state", "--sparse-state", "--b-mode", "random", "--seed", "3",
    )
    assert status == 0
    assert doc["config"] == echo(
        "build", p=5, levels="6:2", b_mode="random", seed=3, out=out,
        with_state=True, sparse_state=True,
    )
    status, doc = run_json(capsys, "verify", "--p", "7", "--n", "5", "--k", "2",
                           "--method", "structural")
    assert status == 0
    assert doc["config"] == echo("verify", p=7, levels="5:2", method="structural")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "cutrank"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    status, doc = run_json(capsys, "slocc", "--p", "5", "--pair", "5:2", "5:2+2:1")
    assert status == 0
    assert doc["config"] == echo("slocc", p=5, pair=["5:2", "5:2+2:1"])


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("subcommand", ["build", "verify", "hierarchy", "slocc", "export"])
def test_every_flag_is_in_the_echo_table(subcommand):
    # --n and --k echo through levels; a new flag needs an ECHO entry
    dests = {action.dest for action in _subparsers()[subcommand]._actions}
    assert dests - {"n", "k", "help", "run"} <= set(cli.ECHO)


ONE_COMMAND_EACH = {
    "build": ["build", "--p", "5", "--n", "4", "--k", "2"],
    "verify": ["verify", "--p", "5", "--n", "4", "--k", "2", "--method", "stabilizer"],
    "hierarchy": ["hierarchy", "--p", "5", "--levels", "4:2,2:1"],
    "slocc": ["slocc", "--p", "5", "--pair", "4:2", "4:2"],
    "export": ["export", "--adjacency", "adj.json", "--format", "json", "--out", "copy.json"],
}


def test_one_command_of_each_subcommand_is_listed():
    assert set(ONE_COMMAND_EACH) == set(_subparsers())


@pytest.mark.parametrize("subcommand", ONE_COMMAND_EACH)
def test_each_subcommand_echoes_every_table_key(tmp_path, monkeypatch, capsys, subcommand):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "build", "--p", "5", "--n", "4", "--k", "2", "--out", ".")
    (tmp_path / "adjacency.json").rename(tmp_path / "adj.json")
    status, doc = run_json(capsys, *ONE_COMMAND_EACH[subcommand])
    assert status == 0
    assert set(doc["config"]) == {"subcommand"} | set(cli.ECHO)
    assert doc["config"]["subcommand"] == subcommand


def test_empty_levels_echo_the_n_k_shorthand(capsys):
    status, doc = run_json(
        capsys, "verify", "--p", "5", "--levels", "", "--n", "6", "--k", "2",
        "--method", "stabilizer",
    )
    assert status == 0
    assert doc["config"]["levels"] == "6:2"


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    argv = ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all",
            "--random-b", "5", "--seed", "9"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    build = ["build", "--p", "5", "--levels", "6:2,2:1", "--with-state"]
    run_cli(capsys, *build, "--out", str(dir_a))
    run_cli(capsys, *build, "--out", str(dir_b))
    for name in ("code.json", "adjacency.json", "graph.dot", "state.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
