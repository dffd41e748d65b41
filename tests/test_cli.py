import json

import pytest

from kunigraph import cli


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


def test_build_rejects_composite_modulus(capsys):
    status, _ = run_cli(capsys, "build", "--p", "4", "--n", "6", "--k", "2")
    assert status == 2


def test_build_requires_construction_flags(capsys):
    status, _ = run_cli(capsys, "build", "--p", "5")
    assert status == 2


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
