"""Golden CLI corpus: exit codes, stdout and written files pinned by sha256.

Each command runs in a fresh working directory with relative --out paths,
so the echoed paths do not depend on where the checkout lives. state.json
is left out: its floats may differ in the last digit across platforms (a
different BLAS or libm may round a normalization or a root of unity the
other way), and a hash cannot tell a last-digit difference from a wrong
state. tests/test_cli.py checks state.json by value instead, against the
payload of a freshly built state.

Regenerate the golden file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from kunigraph import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

# the criterion-9 corpus (build and hierarchy write into cmd<i>), then a few
# deeper constructions, export to stdout and to a file, and two refusals
CORPUS = [
    ["build", "--p", "5", "--n", "6", "--k", "2", "--with-state", "--out", "cmd0"],
    ["build", "--p", "5", "--levels", "6:2,2:1", "--with-state", "--sparse-state",
     "--out", "cmd1"],
    ["build", "--p", "5", "--n", "6", "--k", "2", "--b-mode", "random", "--seed", "3",
     "--out", "cmd2"],
    ["verify", "--p", "5", "--n", "6", "--k", "2", "--method", "all",
     "--random-b", "10", "--seed", "5"],
    ["verify", "--p", "5", "--levels", "6:2,3:1", "--method", "stabilizer"],
    ["hierarchy", "--p", "5", "--levels", "6:2,2:1", "--out", "cmd5"],
    ["slocc", "--p", "5", "--pair", "6:2", "6:2+2:1"],
    ["slocc", "--p", "5", "--pair", "5:2", "5:2+2:1"],
    ["build", "--p", "5", "--levels", "6:3,3:1,2:1", "--with-state", "--out", "deep"],
    ["build", "--p", "7", "--levels", "7:3,4:2,2:1", "--gamma", "5", "--out", "deep7"],
    ["build", "--p", "5", "--n", "6", "--k", "2", "--b-mode", "random", "--seed", "4",
     "--with-state", "--out", "rand"],
    ["verify", "--p", "7", "--n", "7", "--k", "3", "--method", "structural"],
    ["verify", "--p", "5", "--n", "6", "--k", "2", "--b-mode", "random", "--seed", "11",
     "--method", "all"],
    ["hierarchy", "--p", "7", "--levels", "7:3,4:2,2:1", "--out", "hier7"],
    ["slocc", "--p", "7", "--gamma", "3", "--pair", "5:2", "5:2+2:1"],
    ["export", "--adjacency", "cmd0/adjacency.json"],
    ["export", "--adjacency", "deep/adjacency.json", "--format", "json"],
    ["export", "--adjacency", "cmd1/adjacency.json", "--format", "dot", "--out", "x/g.dot"],
    ["export", "--adjacency", "cmd2/adjacency.json", "--format", "json", "--out", "x/a.json"],
    ["build", "--p", "4", "--n", "6", "--k", "2"],
    ["verify", "--p", "101", "--n", "102", "--k", "2", "--method", "stabilizer"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(workdir: Path) -> list[dict]:
    """Run the corpus inside workdir; one entry per command."""
    seen: set[Path] = set()
    entries = []
    for argv in CORPUS:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(list(argv))
        files = {}
        for path in sorted(workdir.rglob("*")):
            if path.is_file() and path not in seen:
                seen.add(path)
                if path.name != "state.json":
                    files[path.relative_to(workdir).as_posix()] = _sha(path.read_bytes())
        entries.append(
            {
                "argv": argv,
                "exit": status,
                "stdout": _sha(out.getvalue().encode()),
                "files": files,
            }
        )
    return entries


def test_cli_outputs_match_the_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record(tmp_path)
    assert [e["argv"] for e in golden] == CORPUS
    for want, have in zip(golden, got):
        assert have == want, want["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            entries = record(Path(tmp).resolve())
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(entries)} entries to {GOLDEN}\n")
