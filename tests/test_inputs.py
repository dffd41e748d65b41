"""Every input is an integer read exactly, and every malformed one exits 2.

The fuzz tests run kunigraph in process on random argv, random adjacency
files and random JSON payloads. Each run must exit 0, 1, 2 or 3 (argparse's
SystemExit(2) counts as exit 2) and raise nothing else; on exits 2 and 3 it
must leave stdout empty and every --out tree as it found it. Each library
reader must return or raise ValueError.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kunigraph import (
    HierarchySpec,
    LinearCode,
    MatrixGF,
    PrimeField,
    StateVector,
    apply_fourier,
    apply_x,
    apply_z,
    bipartite_adjacency,
    cli,
    hierarchy_adjacency,
    mds_code,
    reduced_density,
    state_from_code,
)
from kunigraph.dense import reduction_ranks
from kunigraph.errors import integer_array, is_int, read_int

# ---------------------------------------------------------------------------
# the rule itself
# ---------------------------------------------------------------------------

# int() reads each of these as an integer
LOOSE = ["٥", "0_6", "+2", "-3", "５", "²", "5.0", "", " ", "0x5"]
# characters of random text; "\udcff" is how Python passes a non-UTF-8 argv byte
ALPHABET = "0123456789 \t_+-.:,xe٥５²\x00\udcff"


@pytest.mark.parametrize(
    "text, value", [("5", 5), (" 5", 5), ("6 ", 6), ("\t07\n", 7), ("0", 0)]
)
def test_read_int_takes_ascii_digits_with_whitespace_around_them(text, value):
    assert read_int(text, "x") == value


@pytest.mark.parametrize("text", LOOSE + ["5 5", "9" * 5000])
def test_read_int_refuses_everything_else(text):
    with pytest.raises(ValueError):
        read_int(text, "x")


def test_is_int_is_a_python_int_that_is_not_a_bool():
    assert is_int(5) and is_int(-5) and is_int(10**30)
    for value in (True, False, 5.0, "5", None, np.int64(5), [5]):
        assert not is_int(value)


@pytest.mark.parametrize(
    "values", [[np.array(True), 2], [[np.array(False)], [2]], [np.array(3), 2], ((1, np.array(2)),)]
)
def test_integer_array_refuses_entries_that_are_not_int_scalars(f5, values):
    # numpy promotes each of these to an integer array
    with pytest.raises(ValueError, match="must be integers"):
        integer_array(values, "x")
    with pytest.raises(ValueError, match="must be integers"):
        MatrixGF(f5, [list(values)])


def test_integer_array_keeps_ints_and_numpy_integers():
    assert integer_array([np.int8(3), 2, np.uint8(4)], "x").tolist() == [3, 2, 4]
    assert integer_array(((1, 2), [np.int32(3), 4]), "x").tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda sv: PrimeField(5.0), id="field-float"),
        pytest.param(lambda sv: PrimeField(True), id="field-bool"),
        pytest.param(lambda sv: StateVector(2.0, 1, [1, 0]), id="state-float-q"),
        pytest.param(lambda sv: StateVector(2, 1.0, [1, 0]), id="state-float-n"),
        pytest.param(lambda sv: StateVector(True, 1, [1, 0]), id="state-bool-q"),
        pytest.param(lambda sv: apply_x(sv, True), id="x-bool-qudit"),
        pytest.param(lambda sv: apply_x(sv, 1.5), id="x-float-qudit"),
        pytest.param(lambda sv: apply_z(sv, np.int64(1)), id="z-numpy-qudit"),
        pytest.param(lambda sv: apply_fourier(sv, "1"), id="fourier-str-qudit"),
        pytest.param(lambda sv: apply_x(sv, 1, 1.5), id="x-float-power"),
        pytest.param(lambda sv: apply_z(sv, 1, True), id="z-bool-power"),
        pytest.param(lambda sv: reduced_density(sv, 1), id="density-scalar-subset"),
        pytest.param(lambda sv: reduced_density(sv, [[1], [2]]), id="density-nested-subset"),
        pytest.param(lambda sv: reduced_density(sv, [True]), id="density-bool-subset"),
        pytest.param(lambda sv: reduction_ranks(sv, [2]), id="ranks-scalar-subset"),
    ],
)
def test_library_integer_refusals_are_value_errors(call):
    # none may store a float or a bool, act on qudit 1 or raise TypeError
    with pytest.raises(ValueError):
        call(StateVector(2, 2, [1, 0, 0, 0]))


# ---------------------------------------------------------------------------
# argv: loose spellings exit 2, whitespace passes
# ---------------------------------------------------------------------------

VERIFY = ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "structural"]


def run(argv):
    """(exit code, stdout) of one in-process run; argparse's SystemExit is an exit code."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "٥", "--n", "6", "--k", "2"],
        ["verify", "--p", "5", "--n", "0_6", "--k", "2"],
        ["verify", "--p", "5", "--n", "6", "--k", "+2"],
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--seed", "1_0"],
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--random-b", "٣"],
        ["verify", "--p", "5", "--n", "6", "--k", "2", "--gamma", "+2"],
        ["build", "--p", "5", "--levels", "6:2", "--gamma", "٢"],
        ["hierarchy", "--p", "5", "--levels", "٦:2"],
        ["slocc", "--p", "٥", "--pair", "5:2", "5:2+2:1"],
        ["slocc", "--p", "5", "--gamma", "0_2", "--pair", "5:2", "5:2+2:1"],
    ],
)
def test_loose_integer_spellings_are_invalid_input(argv):
    assert run(argv) == (2, "")


def test_whitespace_around_an_integer_flag_is_accepted():
    plain = run(VERIFY + ["--seed", "7", "--gamma", "3"])
    assert plain[0] == 0
    spaced = ["verify", "--p", " 5", "--n", "6 ", "--k", "\t2", "--method", "structural"]
    assert run(spaced + ["--seed", " 7 ", "--gamma", "3\n"]) == plain


# ---------------------------------------------------------------------------
# fuzz: argv
# ---------------------------------------------------------------------------

# Each flag takes a valid value nine times in ten, so that runs reach every
# stage of a command, not only the parser. p = 65537 is past every sweep and
# state guard from n = 2 on (exit 3); otherwise p stays at most 5, so a state
# has at most 5^6 amplitudes. Each --random-b trial is a full sweep, and the
# cap of 2^26 vectors over all trials still lets 4,294 of them run at 5^6, so
# no valid --random-b value is a large number; 10^30 - 1, one of the malformed
# values, is refused by that cap.
# Random text for other flags may spell any small integer.
VALID = {
    "--p": ["2", "3", "5", "5", "5", " 5 ", "65537"],
    "--n": ["2", "3", "4", "5", "6", "6"],
    "--k": ["1", "2", "2", "3"],
    "--levels": ["6:2", "5:2", "4:1", "6:2,2:1", "6:2+3:1", "6:1+5:2", "6:1,5:1,4:1"],
    "--gamma": ["2", "3", "1"],
    "--seed": ["0", "7", "11", "9" * 30],
    "--random-b": ["0", "1", "2"],
    "--b-mode": ["zero", "random"],
    "--method": ["structural", "stabilizer", "dense", "all"],
    "--pair": [["5:2", "5:2+2:1"], ["6:2", "6:2+2:1"], ["5:1", "5:1+2:1"], ["6:2", "6:2+3:1"],
               ["6:2", "6:2"], ["4:2", "6:2"], ["8:2", "8:2+4:1+2:1"]],
}
MALFORMED = LOOSE + ["9" * 30, "9" * 5000, "6:-2", "٦:2", "1_0:5", "6:", ":", "6:2,", "6:2:1", "x"]
REQUIRED = {"build": ["--p"], "verify": ["--p"], "hierarchy": ["--p"], "slocc": ["--p", "--pair"]}
OPTIONAL = {
    "build": ["--gamma", "--b-mode", "--seed", "--out", "--with-state", "--sparse-state"],
    "verify": ["--gamma", "--b-mode", "--seed", "--method", "--random-b"],
    "hierarchy": ["--gamma", "--out"],
    "slocc": ["--gamma"],
}


@st.composite
def argvs(draw, out_dir):
    subcommand = draw(st.sampled_from(sorted(REQUIRED)))
    flags = list(REQUIRED[subcommand])
    if subcommand != "slocc":
        flags += draw(st.sampled_from([["--n", "--k"], ["--levels"]] * 2 + [["--n"]]))
    flags += draw(st.lists(st.sampled_from(OPTIONAL[subcommand]), max_size=4, unique=True))
    argv = [subcommand]
    for flag in flags:
        argv.append(flag)
        if flag == "--out":
            argv.append(str(out_dir / draw(st.sampled_from(["a", "b/c"]))))
        elif flag in VALID:
            valid = st.sampled_from(VALID[flag])
            malformed = st.one_of(st.sampled_from(MALFORMED), st.text(ALPHABET, max_size=3))
            if flag in ("--p", "--random-b"):  # random digits could spell a large p or count
                malformed = st.sampled_from(MALFORMED)
            value = draw(st.integers(0, 9).flatmap(lambda i: malformed if i == 9 else valid))
            argv.extend(value if isinstance(value, list) else [value])
    if draw(st.integers(0, 3)) == 3:
        # no "-" in a stray token: an abbreviated --out could write into the working directory
        stray = st.text(ALPHABET.replace("-", ""), max_size=4)
        argv.insert(draw(st.integers(1, len(argv))), draw(stray))
    return argv


def tree(root):
    """root and every path under it that exists: a file with its bytes, a directory with None."""
    root = Path(root)
    return {path: path.read_bytes() if path.is_file() else None
            for path in [root, *root.rglob("*")] if path.exists()}


def check_exit(argv):
    outs = [value for flag, value in zip(argv, argv[1:]) if flag == "--out"]
    before = [tree(path) for path in outs]
    status, out = run(argv)
    assert status in (0, 1, 2, 3), (argv, status)
    if status in (2, 3):  # nothing printed and nothing written
        assert out == "", argv
        assert [tree(path) for path in outs] == before, argv


@given(data=st.data())
@settings(max_examples=100)
def test_random_argv_exits_0_to_3(tmp_path_factory, data):
    check_exit(data.draw(argvs(tmp_path_factory.getbasetemp())))


# ---------------------------------------------------------------------------
# fuzz: export --adjacency files and library readers
# ---------------------------------------------------------------------------

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([10**30, -(10**30), 2**63, 2**64]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(ALPHABET, max_size=3),
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["p", "n", "k", "q", "A", "gamma", "x"]), inner, max_size=3),
    ),
    max_leaves=12,
)


def _spots(tree, found):
    """Every (container, key) of a JSON tree, parents before children."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in list(items):
        found.append((tree, key))
        _spots(child, found)
    return found


def payloads(valid):
    """Three valid or mutated payloads to one random JSON tree."""
    return st.integers(0, 3).flatmap(lambda i: TREES if i == 3 else mutated(valid))


@st.composite
def mutated(draw, payloads):
    """A valid payload (half the time) or one with one or two nodes replaced,
    deleted or given a sibling (a ragged row, or an entry too many)."""
    payload = copy.deepcopy(draw(st.sampled_from(payloads)))
    for _ in range(max(0, draw(st.integers(0, 3)) - 1)):
        spots = _spots(payload, [])
        if not spots:
            break
        container, key = draw(st.sampled_from(spots))
        action = draw(st.sampled_from(["replace", "delete", "extend"]))
        if action == "delete":
            del container[key]
        elif action == "extend" and isinstance(container, list):
            container.append(draw(TREES))
        else:
            container[key] = draw(st.one_of(SCALARS, TREES))
    return payload


F3, F5 = PrimeField(3), PrimeField(5)
ADJACENCIES = [
    bipartite_adjacency(mds_code(F5, 6, 2)).to_json(),
    bipartite_adjacency(mds_code(F3, 2, 1)).to_json(),
    hierarchy_adjacency(HierarchySpec(F5, ((6, 2), (2, 1)))).to_json(),
]
CODES = [mds_code(F5, 6, 2).to_json(), mds_code(F3, 3, 1).to_json(), mds_code(F5, 1, 1).to_json()]
STATES = [
    state.to_json(sparse=sparse)
    for state in (state_from_code(mds_code(F3, 2, 1)), state_from_code(mds_code(F5, 4, 2)))
    for sparse in (False, True)
]
DEEP = "[" * 10**5 + "]" * 10**5


@given(payload=payloads(ADJACENCIES),
       damage=st.sampled_from(["none"] * 3 + ["truncate", "not utf-8", "deep"]),
       cut=st.floats(0, 1), fmt=st.sampled_from(["dot", "json"]))
@settings(max_examples=100)
def test_random_adjacency_files_exit_0_to_3(tmp_path_factory, payload, damage, cut, fmt):
    raw = (DEEP if damage == "deep" else json.dumps(payload)).encode()
    at = int(cut * len(raw))
    if damage == "truncate":
        raw = raw[:at]
    elif damage == "not utf-8":
        raw = raw[:at] + b"\xff\xfe\x80" + raw[at:]
    path = tmp_path_factory.getbasetemp() / "adjacency.json"
    path.write_bytes(raw)
    check_exit(["export", "--adjacency", str(path), "--format", fmt])


@given(payload=payloads(CODES))
@settings(max_examples=100)
def test_random_code_payloads_return_or_raise_value_error(payload):
    try:
        LinearCode.from_json(payload)
    except ValueError:
        pass


@given(payload=payloads(STATES))
@settings(max_examples=150)
def test_random_state_payloads_return_or_raise_value_error(payload):
    try:
        StateVector.from_json(payload)
    except ValueError:
        pass
