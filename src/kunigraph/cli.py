"""Command-line entry point.

Subcommands build | verify | hierarchy | slocc | export wire the library
into reproducible workflows: every command echoes its parsed config plus
the tool version, emits JSON with sorted keys, and derives all randomness
from one explicit seed, so identical invocations give byte-identical
output.

Exit codes: 0 success, 1 verification negative, 2 invalid input,
3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ame_support_check, rank_spectrum_check, rank_split_check
from .codes import dual_code, min_distance
from .dense import (
    StateVector,
    graph_state,
    hierarchy_state_from_codes,
    state_from_code,
    uniformity_by_oracle,
)
from .errors import ResourceLimitError, guarded_power, read_int
from .graph import (
    Adjacency,
    HierarchySpec,
    export_dot,
    general_adjacency,
    level_codes,
    nested_adjacencies,
    random_b_matrix,
)
from .field import PrimeField
from .stabilizer import SWEEP_GUARD, minimum_support, verify_general_uniformity

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_GUARD = 3

# Every parameter a command echoes, with the value echoed by a command that
# has no such flag; levels given as --n/--k echo as "n:k".
ECHO = {
    "p": None,
    "levels": None,
    "gamma": None,
    "b_mode": "zero",
    "seed": 7,
    "method": None,
    "random_b": 0,
    "out": None,
    "with_state": False,
    "sparse_state": False,
    "fmt": None,
    "pair": None,
    "adjacency": None,
}
# flags main reads with errors.read_int; given ones arrive as text, defaults as ints
INTEGER_FLAGS = ("p", "n", "k", "gamma", "seed", "random_b")


def _dumps(doc) -> str:
    """The JSON of stdout and of every written file but state.json."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _resolve_spec(args) -> HierarchySpec:
    field = PrimeField(args.p)
    if args.levels:
        return HierarchySpec.parse(field, args.levels)
    if args.n is None or args.k is None:
        raise ValueError("either --levels or both --n and --k are required")
    return HierarchySpec(field, ((args.n, args.k),))


def _adjacency_for(codes, b_mode: str, seed: int) -> Adjacency:
    """The levels' nested blocks, or level 0 with a seeded random B block."""
    if b_mode == "zero":
        return nested_adjacencies(codes)[-1]
    if len(codes) != 1:
        raise ValueError("--b-mode random applies to single-level builds only")
    code = codes[0]
    rng = np.random.default_rng(seed)
    return general_adjacency(code, random_b_matrix(code.field, code.n - code.k, rng))


def _state_for(codes, adj: Adjacency | None = None) -> tuple[StateVector, str]:
    """Dense state plus a label for the construction form used.

    codes are the levels the state nests, or () when adj carries a random
    B block; one or two levels are built from the codes, anything else
    from adj.
    """
    if len(codes) == 1:
        return state_from_code(codes[0]), "code_superposition"
    if len(codes) == 2:
        return hierarchy_state_from_codes(*codes), "hierarchy_operator"
    return graph_state(adj), "graph"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_build(args) -> tuple[dict, int]:
    if args.with_state and not args.out:
        raise ValueError("--with-state writes state.json and needs --out")
    if args.sparse_state and not args.with_state:
        raise ValueError("--sparse-state applies only with --with-state")
    spec = _resolve_spec(args)
    codes = level_codes(spec, gamma=args.gamma)
    code = codes[0]
    adj = _adjacency_for(codes, args.b_mode, args.seed)
    result: dict = {
        "levels": list(list(lv) for lv in spec.levels),
        "code": code.to_json(),
        "adjacency": adj.to_json(),
        "edge_count": adj.edge_count(),
    }
    written = []
    if args.out:
        out = Path(args.out)
        _write(out / "code.json", _dumps(code.to_json()))
        _write(out / "adjacency.json", _dumps(adj.to_json()))
        _write(out / "graph.dot", export_dot(adj))
        written = ["code.json", "adjacency.json", "graph.dot"]
        if args.with_state:
            state, form = _state_for(codes if args.b_mode == "zero" else (), adj)
            _write(out / "state.json", state.json_text(args.sparse_state))
            written.append("state.json")
            result["state_form"] = form
        result["written"] = written
    return result, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    spec = _resolve_spec(args)
    if args.random_b:
        if len(spec.levels) != 1:
            raise ValueError("--random-b applies to single-level builds only")
        # the sweep guard caps each trial's q^n space, so the N trials share one guard
        guard = f"sweep guard {SWEEP_GUARD} / {args.random_b} trials ="
        guarded_power(spec.field.p, spec.levels[0][0], SWEEP_GUARD // args.random_b, guard)
    codes = level_codes(spec, gamma=args.gamma)
    code = codes[0]
    adj = _adjacency_for(codes, args.b_mode, args.seed)
    methods = ("structural", "stabilizer", "dense") if args.method == "all" else (args.method,)
    result: dict = {"n": adj.n, "p": spec.field.p}
    ks = {}
    if "structural" in methods:
        mds_ok = code.a_matrix.all_square_submatrices_nonsingular()
        result["structural_mds_ok"] = mds_ok
        result["structural_min_distance"] = min_distance(code)
        dual_d = min_distance(dual_code(code))
        result["structural_dual_min_distance"] = dual_d
        ks["k_structural"] = dual_d - 1 if mds_ok else None
    if "stabilizer" in methods:
        weight, witness = minimum_support(adj)
        ks["k_stabilizer"] = weight - 1
        result["witness_w_for_k_plus_1"] = witness.tolist()
    if "dense" in methods:
        ks["k_dense"] = uniformity_by_oracle(graph_state(adj))
    result.update(ks)
    # d⊥ - 1 is exact only for one zero-B level; a B block may raise k above it
    bound = ks.pop("k_structural", 0) if len(codes) > 1 or args.b_mode != "zero" else 0
    exact = set(ks.values())
    agree = None not in {*exact, bound} and len(exact) <= 1 and min(exact, default=bound) >= bound
    result["agree"] = agree
    status = EXIT_OK if agree else EXIT_NEGATIVE

    if args.random_b:
        rng = np.random.default_rng(args.seed)
        failures = []
        for trial in range(args.random_b):
            b = random_b_matrix(code.field, code.n - code.k, rng)
            if not verify_general_uniformity(code, b):
                failures.append(trial)
        result["random_b"] = {
            "trials": args.random_b,
            "seed": args.seed,
            "failures": failures,
        }
        if failures:
            status = EXIT_NEGATIVE
    return result, status


def cmd_hierarchy(args) -> tuple[dict, int]:
    spec = _resolve_spec(args)
    rows = []
    prev_edges = -1
    monotone = True
    prefixes = nested_adjacencies(level_codes(spec, gamma=args.gamma))
    for depth, adj in enumerate(prefixes, start=1):
        levels = spec.levels[:depth]
        weight, _ = minimum_support(adj)
        edges = adj.edge_count()
        if edges <= prev_edges:
            monotone = False
        prev_edges = edges
        rows.append(
            {
                "levels": [list(lv) for lv in levels],
                "edge_count": edges,
                "k_stabilizer": weight - 1,
            }
        )
        if args.out:
            out = Path(args.out)
            tag = "_".join(f"{n}-{k}" for n, k in levels)
            _write(out / f"adjacency_{tag}.json", _dumps(adj.to_json()))
            _write(out / f"graph_{tag}.dot", export_dot(adj))
    return {"levels_checked": rows, "edge_counts_strictly_increase": monotone}, EXIT_OK


def cmd_slocc(args) -> tuple[dict, int]:
    field = PrimeField(args.p)
    base_spec = HierarchySpec.parse(field, args.pair[0])
    hier_spec = HierarchySpec.parse(field, args.pair[1])
    if len(base_spec.levels) > 2 or len(hier_spec.levels) > 2:
        raise ValueError("slocc comparisons support at most two levels per state")
    base_state, base_form = _state_for(level_codes(base_spec, gamma=args.gamma))
    hier_state, hier_form = _state_for(level_codes(hier_spec, gamma=args.gamma))
    labels = (base_spec.label(), hier_spec.label())
    n = base_state.n
    reports = []
    is_level1_pair = (
        len(base_spec.levels) == 1
        and len(hier_spec.levels) == 2
        and hier_spec.levels[0] == base_spec.levels[0]
    )
    if is_level1_pair:
        (n0, k0), (ns, ks) = hier_spec.levels
        if k0 + ks <= n0 // 2:
            reports.append(rank_split_check(base_state, hier_state, ns, k0, ks, labels=labels))
    if not reports:
        reports.append(rank_spectrum_check(base_state, hier_state, labels=labels))
    # ranks that distinguish the pair leave a state of less than full rank, not AME
    if n % 2 == 1 and reports[0]["verdict"] != "distinguished":
        try:
            reports.append(ame_support_check(base_state, hier_state, labels=labels))
        except ValueError:  # a state that is not AME: no support report
            pass
    result = {
        "states": list(labels),
        "forms": [base_form, hier_form],
        "reports": reports,
        "verdict": reports[-1]["verdict"],
    }
    return result, EXIT_OK


def cmd_export(args) -> tuple[dict, int]:
    try:
        payload = json.loads(Path(args.adjacency).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{args.adjacency} nests JSON too deeply to read") from None
    adj = Adjacency.from_json(payload)
    text = export_dot(adj) if args.fmt == "dot" else _dumps(adj.to_json())
    if args.out:
        _write(Path(args.out), text)
        return {"written": args.out, "edge_count": adj.edge_count()}, EXIT_OK
    sys.stdout.write(text)
    return {"edge_count": adj.edge_count()}, EXIT_OK


def _add_construction_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", required=True, help="prime local dimension")
    sub.add_argument("--n", help="qudit count (single-level shorthand)")
    sub.add_argument("--k", help="code dimension (single-level shorthand)")
    sub.add_argument("--levels", type=str, help='hierarchy levels, e.g. "6:2,2:1"')
    sub.add_argument("--gamma", help="primitive element for the Singleton array")


def _add_random_block_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--b-mode",
        choices=("zero", "random"),
        default=ECHO["b_mode"],
        help="lower-right block: zero (hierarchy levels) or seeded random",
    )
    sub.add_argument("--seed", default=ECHO["seed"], help="seed for randomized parts")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parse_args leaves it unchanged, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="kunigraph",
        description="Construct and verify k-uniform and AME qudit graph states.",
    )
    parser.add_argument("--version", action="version", version=f"kunigraph {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_build = subs.add_parser("build", help="emit code/adjacency/DOT/state artifacts")
    _add_construction_flags(p_build)
    _add_random_block_flags(p_build)
    p_build.add_argument("--out", type=str, help="directory for artifact files")
    p_build.add_argument("--with-state", action="store_true", help="also write state.json")
    p_build.add_argument("--sparse-state", action="store_true", help="sparse state encoding")
    p_build.set_defaults(run=cmd_build)

    p_verify = subs.add_parser("verify", help="check uniformity by independent methods")
    _add_construction_flags(p_verify)
    _add_random_block_flags(p_verify)
    p_verify.add_argument(
        "--method",
        choices=("structural", "stabilizer", "dense", "all"),
        default="all",
    )
    p_verify.add_argument(
        "--random-b",
        default=ECHO["random_b"],
        metavar="N",
        help="also sweep N seeded random B blocks and require k >= code k",
    )
    p_verify.set_defaults(run=cmd_verify)

    p_hier = subs.add_parser("hierarchy", help="build and check every hierarchy prefix")
    _add_construction_flags(p_hier)
    p_hier.add_argument("--out", type=str, help="directory for per-level artifacts")
    p_hier.set_defaults(run=cmd_hierarchy)

    p_slocc = subs.add_parser("slocc", help="rank/support discrimination of two states")
    p_slocc.add_argument("--p", required=True)
    p_slocc.add_argument("--gamma")
    p_slocc.add_argument(
        "--pair",
        nargs=2,
        required=True,
        metavar=("BASE", "HIER"),
        help='two level specs, e.g. --pair 6:2 "6:2+2:1"',
    )
    p_slocc.set_defaults(run=cmd_slocc)

    p_export = subs.add_parser("export", help="re-emit a stored adjacency as DOT or JSON")
    p_export.add_argument("--adjacency", type=str, required=True, help="adjacency JSON file")
    p_export.add_argument("--format", dest="fmt", choices=("dot", "json"), default="dot")
    p_export.add_argument("--out", type=str)
    p_export.set_defaults(run=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for key in INTEGER_FLAGS:
            if isinstance(text := getattr(args, key, None), str):
                setattr(args, key, read_int(text, "--" + key.replace("_", "-")))
        result, status = args.run(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.subcommand != "export" or args.out:
        config = {"subcommand": args.subcommand}
        config.update((key, getattr(args, key, default)) for key, default in ECHO.items())
        n, k = getattr(args, "n", None), getattr(args, "k", None)
        if not config["levels"] and n is not None and k is not None:
            config["levels"] = f"{n}:{k}"
        doc = {"tool": "kunigraph", "version": __version__, "config": config, "result": result}
        sys.stdout.write(_dumps(doc))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
