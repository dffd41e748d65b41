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
from kunigraph import cli
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
    payload = json.loads((tmp_path / "state.json").read_text(encoding="utf-8"))
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
# one construction per level
# ---------------------------------------------------------------------------

# one MDS test per level built, one for the structural route, one per
# general_adjacency call (each random B)
MDS_TESTS_PER_COMMAND = [
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "stabilizer"], 1,
        id="verify-stabilizer",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "structural"], 2,
        id="verify-structural",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all"], 2,
        id="verify-all",
    ),
    pytest.param(
        ["verify", "--p", "5", "--levels", "6:2,3:1", "--method", "dense"], 2,
        id="verify-dense-two-levels",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "stabilizer",
         "--random-b", "3"], 4,
        id="verify-random-b-trials",
    ),
    pytest.param(
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "stabilizer",
         "--b-mode", "random"], 2,
        id="verify-b-mode-random",
    ),
    pytest.param(["hierarchy", "--p", "7", "--levels", "7:3,4:2,2:1"], 3, id="hierarchy"),
    pytest.param(["build", "--p", "5", "--n", "6", "--k", "2"], 1, id="build"),
    pytest.param(
        ["build", "--p", "5", "--levels", "6:2,2:1", "--with-state", "--out", "st"], 2,
        id="build-two-level-state",
    ),
    pytest.param(
        ["build", "--p", "5", "--levels", "6:3,3:1,2:1", "--with-state", "--out", "deep"], 3,
        id="build-three-level-state",
    ),
    # the outer level 6:2 that both states share is built once
    pytest.param(["slocc", "--p", "5", "--pair", "6:2", "6:2+2:1"], 2, id="slocc"),
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


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

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
