"""Seeded command corpora for the four benchmark workloads, with their checks.

Every workload is a fixed list of shapes (field, register size, command);
the seed picks only the contents: the primitive element passed as
``--gamma``, the CLI ``--seed`` of random B blocks, and the entries of
random graphs. Costs therefore do not depend on the seed, so runs with
different seeds measure the same amount of work.

Each command is checked outside its timer. The expected uniformity index
comes from theory for MDS, random-B and hierarchy instances (an [n, k]
MDS code, and every hierarchy prefix built on it, gives a k-uniform
state) and from the cut-rank criterion for random graphs: a graph state
of prime dimension p is k-uniform iff rank_p Gamma[S, S^c] = |S| for
every |S| <= k. The cut-rank is computed here, not by the library.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter

import numpy as np

from kunigraph import (
    Adjacency,
    HierarchySpec,
    LinearCode,
    MatrixGF,
    PrimeField,
    StateVector,
    graph_state,
    hierarchy_adjacency,
    state_from_code,
    support_weight,
    uniformity_index,
)

OVERLAP_TOL = 1e-8
WARMUP_ARGV = ["verify", "--p", "2", "--n", "2", "--k", "1", "--method", "all"]


@dataclass
class Outcome:
    seconds: float
    status: int | None = None
    stdout: str = ""
    value: object = None


@dataclass
class Command:
    """One timed step: a CLI invocation (argv) or a library call (kind)."""

    kind: str
    argv: list[str] | None = None
    expect: dict = field(default_factory=dict)
    out: str | None = None  # file or directory the step writes, relative to the work dir

    def label(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        return f"{self.kind} {self.expect.get('label', '')}".strip()


def run_command(cmd: Command, cli, workdir: Path) -> Outcome:
    """Run one step; only the call into kunigraph is inside the timer."""
    if cmd.argv is not None:
        argv = [a.replace("{work}", str(workdir)) for a in cmd.argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            status = cli.main(argv)
            seconds = perf_counter() - t0
        return Outcome(seconds, status, out.getvalue())
    if cmd.kind == "sweep":
        adj = cmd.expect["adjacency"]
        t0 = perf_counter()
        k = uniformity_index(adj)
        return Outcome(perf_counter() - t0, value=k)
    if cmd.kind == "reload":
        path = workdir / cmd.expect["path"]
        t0 = perf_counter()
        state = StateVector.from_json(json.loads(path.read_text(encoding="utf-8")))
        return Outcome(perf_counter() - t0, value=state)
    raise ValueError(f"unknown command kind {cmd.kind!r}")


# ---------------------------------------------------------------------------
# checks, run outside the timers
# ---------------------------------------------------------------------------


def check(cmd: Command, outcome: Outcome, workdir: Path, fresh: dict) -> list[str]:
    """Problems with one output, empty when it is right.

    ``fresh`` maps a build's command index to the reference state its later
    reload step is compared with.
    """
    if outcome.status not in (None, 0):
        return [f"exit code {outcome.status}, expected 0"]
    if cmd.kind == "sweep":
        k = cmd.expect["k"]
        return [] if outcome.value == k else [f"k = {outcome.value}, cut-rank gives {k}"]
    if cmd.kind == "reload":
        overlap = fresh[cmd.expect["source"]].overlap(outcome.value)
        return [] if overlap >= 1.0 - OVERLAP_TOL else [f"reloaded state overlap {overlap}"]
    if cmd.kind == "export" and "--out" not in cmd.argv:
        return _check_dot(cmd, outcome.stdout, workdir)
    try:
        result = json.loads(outcome.stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"unparseable stdout: {exc}"]
    return _CHECKS[cmd.kind](cmd, result, workdir, fresh)


def _witness_problems(cmd: Command, result: dict) -> list[str]:
    w = result.get("witness_w_for_k_plus_1")
    if w is None:
        return []
    weight = support_weight(w, cmd.expect["adjacency"]())
    k = cmd.expect["k"]
    return [] if weight == k + 1 else [f"witness weight {weight}, expected {k + 1}"]


def _check_verify(cmd, result, workdir, fresh) -> list[str]:
    k = cmd.expect["k"]
    problems = []
    if result.get("agree") is not True:
        problems.append("routes disagree")
    for key in cmd.expect["routes"]:
        if result.get(key) != k:
            problems.append(f"{key} = {result.get(key)}, theory gives {k}")
    problems += _witness_problems(cmd, result)
    trials = cmd.expect.get("random_b")
    if trials:
        rb = result.get("random_b", {})
        if rb.get("trials") != trials or rb.get("failures") != []:
            problems.append(f"random-B trials not all {k}-uniform: {rb}")
    return problems


def _check_hierarchy(cmd, result, workdir, fresh) -> list[str]:
    k, want = cmd.expect["k"], cmd.expect["ks"]
    ks = [row["k_stabilizer"] for row in result.get("levels_checked", [])]
    problems = []
    if ks != want:
        problems.append(f"prefix k values {ks}, cut-rank gives {want}")
    if min(ks, default=-1) < k:
        problems.append(f"prefix k values {ks}, theory gives at least {k}")
    if result.get("edge_counts_strictly_increase") is not True:
        problems.append("edge counts do not increase with depth")
    return problems


def _check_slocc(cmd, result, workdir, fresh) -> list[str]:
    verdict = result.get("verdict")
    return [] if verdict == "distinguished" else [f"slocc verdict {verdict!r}"]


def _check_build(cmd, result, workdir, fresh) -> list[str]:
    out = workdir / cmd.out
    problems = []
    if result.get("written") != cmd.expect["written"]:
        problems.append(f"written {result.get('written')}, expected {cmd.expect['written']}")
    for name, key in (("code.json", "code"), ("adjacency.json", "adjacency")):
        path = out / name
        if not path.is_file() or json.loads(path.read_text()) != result.get(key):
            problems.append(f"{name} differs from the printed {key}")
    k = cmd.expect["k"]
    if result.get("code", {}).get("k") != k:
        problems.append(f"code dimension {result.get('code', {}).get('k')}, expected {k}")
    if "state.json" in cmd.expect["written"] and cmd.expect["index"] not in fresh:
        # the fresh reference for the later reload step, built from the printed code
        # or adjacency by the library's own constructors
        if result.get("state_form") == "graph":
            state = graph_state(Adjacency.from_json(result["adjacency"]))
        else:
            state = state_from_code(LinearCode.from_json(result["code"]))
        fresh[cmd.expect["index"]] = state
    return problems


def _check_export_json(cmd, result, workdir, fresh) -> list[str]:
    written = json.loads((workdir / cmd.out).read_text())
    source = json.loads((workdir / cmd.expect["adjacency"]).read_text())
    return [] if written == source else ["exported JSON differs from the source adjacency"]


def _check_dot(cmd, text: str, workdir: Path) -> list[str]:
    gamma = np.array(json.loads((workdir / cmd.expect["adjacency"]).read_text())["gamma"])
    edges = int(np.count_nonzero(np.triu(gamma, k=1)))
    lines = text.splitlines()
    got = sum(1 for line in lines if " -- " in line)
    if not lines or lines[0] != "graph g {" or got != edges:
        return [f"DOT has {got} edges, adjacency has {edges}"]
    return []


_CHECKS = {
    "verify": _check_verify,
    "hierarchy": _check_hierarchy,
    "slocc": _check_slocc,
    "build": _check_build,
    "export": _check_export_json,
}


# ---------------------------------------------------------------------------
# independent cut-rank oracle for random graphs
# ---------------------------------------------------------------------------


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    a = [list(r) for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col] % p), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        for i in range(rank + 1, len(a)):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def cutrank_uniformity(gamma: np.ndarray, p: int) -> int:
    """Largest k with full cut-rank on every subset of size <= k."""
    n = gamma.shape[0]
    g = gamma.tolist()
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            rest = [j for j in range(n) if j not in subset]
            if _rank_mod_p([[g[i][j] for j in rest] for i in subset], p) < size:
                return size - 1
    return n // 2


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def _outer_k(levels: str) -> int:
    """k of the outer code of "n:k" or "n:k,n*:k*,..."."""
    return int(levels.split(",")[0].split(":")[1])


class _Builder:
    """Collects commands for one workload, drawing contents from one rng."""

    def __init__(self, seed: int, workload: str):
        self.rng = np.random.default_rng([seed, sum(map(ord, workload))])
        self.commands: list[Command] = []
        self._fields: dict[int, PrimeField] = {}

    def field(self, p: int) -> PrimeField:
        return self._fields.setdefault(p, PrimeField(p))

    def gamma(self, p: int) -> int:
        f = self.field(p)
        prims = [g for g in range(1, p) if f.is_primitive(g)]
        return int(self.rng.choice(prims))

    def _spec_args(self, p: int, levels: str, gamma: int) -> list[str]:
        if "," in levels:
            shape = ["--levels", levels]
        else:
            n, k = levels.split(":")
            shape = ["--n", n, "--k", k]
        return ["--p", str(p), *shape, "--gamma", str(gamma)]

    def _adjacency(self, p: int, levels: str, gamma: int):
        spec = HierarchySpec.parse(self.field(p), levels)
        return lambda: hierarchy_adjacency(spec, gamma=gamma)

    def verify(self, p: int, levels: str, method: str, random_b: int = 0) -> None:
        g = self.gamma(p)
        argv = ["verify", *self._spec_args(p, levels, g), "--method", method]
        if random_b:
            argv += ["--random-b", str(random_b), "--seed", str(int(self.rng.integers(1 << 30)))]
        routes = {
            "structural": ["k_structural"],
            "stabilizer": ["k_stabilizer"],
            "dense": ["k_dense"],
            "all": ["k_structural", "k_stabilizer", "k_dense"],
        }[method]
        k = _outer_k(levels)
        self.commands.append(
            Command(
                "verify",
                argv,
                {
                    "k": k,
                    "routes": routes,
                    "random_b": random_b,
                    "adjacency": self._adjacency(p, levels, g),
                },
            )
        )

    def hierarchy(self, p: int, levels: str) -> None:
        g = self.gamma(p)
        argv = ["hierarchy", *self._spec_args(p, levels, g)]
        k = _outer_k(levels)
        # theory bounds every prefix below by k; a deeper prefix can be more
        # uniform (GF(5) 6:2+4:2 is AME), so the exact values come from cut-rank
        parts = levels.split(",")
        ks = [
            cutrank_uniformity(self._adjacency(p, ",".join(parts[:d]), g)().gamma.entries, p)
            for d in range(1, len(parts) + 1)
        ]
        self.commands.append(Command("hierarchy", argv, {"k": k, "ks": ks}))

    def slocc(self, p: int, base: str, hier: str) -> None:
        argv = ["slocc", "--p", str(p), "--gamma", str(self.gamma(p)), "--pair", base, hier]
        self.commands.append(Command("slocc", argv))

    def random_graph(self, p: int, n: int) -> None:
        upper = np.triu(self.rng.integers(0, p, size=(n, n)), k=1)
        gamma = upper + upper.T
        adj = Adjacency(MatrixGF(self.field(p), gamma))
        k = cutrank_uniformity(gamma, p)
        self.commands.append(
            Command("sweep", expect={"adjacency": adj, "k": k, "label": f"GF({p}) n={n}"})
        )

    def build(self, p: int, levels: str, state: str = "", b_random: bool = False) -> int:
        """Add a build into its own directory; returns the command index."""
        index = len(self.commands)
        out = f"c{index}"
        argv = ["build", *self._spec_args(p, levels, self.gamma(p)), "--out", f"{{work}}/{out}"]
        if b_random:
            argv += ["--b-mode", "random", "--seed", str(int(self.rng.integers(1 << 30)))]
        written = ["code.json", "adjacency.json", "graph.dot"]
        if state:
            argv.append("--with-state")
            if state == "sparse":
                argv.append("--sparse-state")
            written.append("state.json")
        k = _outer_k(levels)
        self.commands.append(
            Command("build", argv, {"k": k, "written": written, "index": index}, out=out)
        )
        if state:
            self.commands.append(
                Command(
                    "reload",
                    expect={"path": f"{out}/state.json", "source": index, "label": out},
                )
            )
        return index

    def export(self, source: int) -> None:
        """Export the adjacency written by an earlier build, as DOT and as JSON."""
        adjacency = f"c{source}/adjacency.json"
        path = ["--adjacency", f"{{work}}/{adjacency}"]
        expect = {"adjacency": adjacency}
        self.commands.append(Command("export", ["export", *path, "--format", "dot"], expect))
        out = f"e{len(self.commands)}.json"
        self.commands.append(
            Command(
                "export",
                ["export", *path, "--format", "json", "--out", f"{{work}}/{out}"],
                expect,
                out=out,
            )
        )


def _screen(b: _Builder, tiny: bool) -> None:
    if tiny:
        b.verify(3, "4:2", "stabilizer")
        b.verify(5, "4:2", "stabilizer", random_b=2)
        b.hierarchy(5, "4:2,2:1")
        b.random_graph(3, 5)
        return
    # the four sweep instances of the former numba-vs-numpy sweep benchmark
    for _ in range(4):
        b.verify(5, "6:2", "stabilizer")
        b.verify(5, "6:2,2:1", "stabilizer")
    b.verify(7, "7:3", "stabilizer")
    b.verify(7, "7:3", "stabilizer")
    b.verify(7, "8:2", "stabilizer")
    # random B blocks: every B re-runs general_adjacency's MDS test and one sweep
    b.verify(7, "7:3", "stabilizer", random_b=3)
    for _ in range(3):
        b.verify(5, "6:2", "stabilizer", random_b=10)
    b.hierarchy(7, "7:3,4:2,2:1")
    for _ in range(3):
        b.hierarchy(5, "6:2,4:2,2:1")
    for _ in range(2):
        b.hierarchy(11, "5:2,3:1")
    # random graphs: mostly negative, low-k cases
    for p, n in ((2, 14), (3, 9), (5, 7), (7, 6), (13, 5)):
        for _ in range(4):
            b.random_graph(p, n)


def _oracle(b: _Builder, tiny: bool) -> None:
    if tiny:
        b.verify(3, "4:2", "all")
        b.verify(5, "4:1", "all")
        b.slocc(5, "5:2", "5:2+2:1")
        return
    b.verify(7, "7:3", "all")
    for _ in range(2):
        b.verify(7, "6:3", "all")
        b.verify(13, "5:2", "all")
    for _ in range(3):
        b.verify(11, "5:2", "all")
    for _ in range(4):
        b.verify(5, "6:2", "all")
        b.verify(5, "6:2,2:1", "all")
        b.verify(5, "6:3", "all")
        b.verify(7, "5:2", "all")
        b.verify(5, "4:2", "all")
        b.verify(3, "4:2", "all")
        b.slocc(5, "5:2", "5:2+2:1")
        b.slocc(5, "6:2", "6:2+2:1")
    b.slocc(7, "6:2", "6:2+3:1")


def _structural(b: _Builder, tiny: bool) -> None:
    if tiny:
        b.verify(11, "8:4", "structural")
        b.verify(17, "7:3", "structural")
        return
    # every instance is past the 2^26 sweep guard and inside the 2^24 codeword
    # guard for both the code and its dual
    b.verify(11, "12:6", "structural")
    b.verify(13, "11:5", "structural")
    b.verify(17, "10:5", "structural")
    for _ in range(6):
        for p in (11, 13, 17):
            b.verify(p, "8:4", "structural")
    for _ in range(4):
        b.verify(11, "9:4", "structural")
        b.verify(17, "7:3", "structural")
    for _ in range(3):
        b.verify(13, "9:4", "structural")
        b.verify(11, "10:5", "structural")
    b.verify(13, "10:5", "structural")
    b.verify(17, "8:3", "structural")


def _artifacts(b: _Builder, tiny: bool) -> None:
    if tiny:
        b.build(3, "4:2", state="dense")
        b.build(5, "4:2", state="sparse", b_random=True)
        b.export(b.build(5, "4:2,2:1"))
        return
    # one large dense state (1.2e5 amplitudes); larger ones would make a pass
    # so long that a run holds too few passes for steady medians
    b.build(7, "6:3", state="dense")
    # a graph state has full support, so its sparse encoding is the larger one
    for p, levels in ((5, "6:2"), (5, "6:2"), (7, "5:2"), (7, "5:2")):
        b.build(p, levels, state="sparse", b_random=True)
    # Mid-size state round trips set the percentiles. The counts put cmd_p50_s
    # amid the dense reloads and 8:4 level builds (about 10 ms), and cmd_tail_s
    # amid the dense GF(5) builds; a percentile on the edge between two clusters
    # of times would jump between them from run to run.
    for _ in range(8):
        b.build(5, "6:2", state="dense")
    for _ in range(4):
        b.build(7, "7:3", state="sparse")
    for p, levels in ((7, "8:4,4:2,2:1"), (7, "8:4,4:2,2:1"), (11, "6:3,3:1")):
        b.build(p, levels)
    for _ in range(3):
        b.build(5, "6:2,4:2,2:1")
    b.export(b.build(7, "8:4,4:2,2:1"))
    b.export(b.build(11, "6:3,3:1"))
    b.export(b.build(11, "6:3,3:1"))


def _probe(b: _Builder) -> None:
    """One tiny instance of every subcommand, so that every layer does some timed work."""
    b.verify(3, "4:2", "all")
    b.slocc(5, "5:2", "5:2+2:1")
    b.hierarchy(5, "4:2,2:1")
    b.export(b.build(3, "4:2", state="dense"))


WORKLOADS = {
    "screen": _screen,
    "oracle": _oracle,
    "structural": _structural,
    "artifacts": _artifacts,
}


def corpus(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    b = _Builder(seed, workload)
    WORKLOADS[workload](b, tiny)
    if not tiny:
        _probe(b)
    return b.commands
