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
from dataclasses import asdict, dataclass
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
from .errors import ResourceLimitError
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
from .stabilizer import minimum_support, verify_general_uniformity

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_GUARD = 3

DEFAULT_SEED = 7


@dataclass(frozen=True)
class RunConfig:
    """Echo of every parameter that shaped a run."""

    subcommand: str
    p: int | None = None
    levels: str | None = None
    gamma: int | None = None
    b_mode: str = "zero"
    seed: int = DEFAULT_SEED
    method: str | None = None
    random_b: int = 0
    out: str | None = None
    with_state: bool = False
    sparse_state: bool = False
    fmt: str | None = None
    pair: tuple[str, str] | None = None
    adjacency: str | None = None

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["pair"] = list(self.pair) if self.pair else None
        return payload


def _envelope(config: RunConfig, result: dict) -> str:
    doc = {
        "tool": "kunigraph",
        "version": __version__,
        "config": config.to_json(),
        "result": result,
    }
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
        _write(out / "code.json", json.dumps(code.to_json(), indent=2, sort_keys=True) + "\n")
        _write(
            out / "adjacency.json", json.dumps(adj.to_json(), indent=2, sort_keys=True) + "\n"
        )
        _write(out / "graph.dot", export_dot(adj))
        written = ["code.json", "adjacency.json", "graph.dot"]
        if args.with_state:
            state, form = _state_for(codes if args.b_mode == "zero" else (), adj)
            # one line, so json.dumps runs CPython's C encoder: with an indent it
            # falls back to the pure-Python one, per amplitude
            payload = state.to_json(sparse=args.sparse_state)
            _write(out / "state.json", json.dumps(payload, sort_keys=True) + "\n")
            written.append("state.json")
            result["state_form"] = form
        result["written"] = written
    return result, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    if args.random_b < 0:
        raise ValueError(f"--random-b needs a trial count >= 0, got {args.random_b}")
    spec = _resolve_spec(args)
    if args.random_b and len(spec.levels) != 1:
        raise ValueError("--random-b applies to single-level builds only")
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
    reported = [v for v in ks.values() if v is not None]
    agree = len(set(reported)) <= 1 and all(v is not None for v in ks.values())
    result["agree"] = agree
    status = EXIT_OK if agree and reported else EXIT_NEGATIVE

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
            _write(
                out / f"adjacency_{tag}.json",
                json.dumps(adj.to_json(), indent=2, sort_keys=True) + "\n",
            )
            _write(out / f"graph_{tag}.dot", export_dot(adj))
    return {"levels_checked": rows, "edge_counts_strictly_increase": monotone}, EXIT_OK


def cmd_slocc(args) -> tuple[dict, int]:
    field = PrimeField(args.p)
    base_spec = HierarchySpec.parse(field, args.pair[0])
    hier_spec = HierarchySpec.parse(field, args.pair[1])
    if len(base_spec.levels) > 2 or len(hier_spec.levels) > 2:
        raise ValueError("slocc comparisons support at most two levels per state")
    base_codes = level_codes(base_spec, gamma=args.gamma)
    base_state, base_form = _state_for(base_codes)
    hier_state, hier_form = _state_for(level_codes(hier_spec, gamma=args.gamma, built=base_codes))
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
            reports.append(
                rank_split_check(base_state, hier_state, ns, k0, ks, labels=labels).to_json()
            )
    if not reports:
        reports.append(rank_spectrum_check(base_state, hier_state, labels=labels).to_json())
    if n % 2 == 1:
        try:
            reports.append(ame_support_check(base_state, hier_state, labels=labels).to_json())
        except ValueError:  # a state that is not AME: no support report
            pass
    verdicts = [r["verdict"] for r in reports]
    overall = "distinguished" if any(v == "distinguished" for v in verdicts) else verdicts[-1]
    result = {
        "states": list(labels),
        "forms": [base_form, hier_form],
        "reports": reports,
        "verdict": overall,
    }
    return result, EXIT_OK


def cmd_export(args) -> tuple[dict, int]:
    payload = json.loads(Path(args.adjacency).read_text(encoding="utf-8"))
    adj = Adjacency.from_json(payload)
    if args.format == "dot":
        text = export_dot(adj)
    else:
        text = json.dumps(adj.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(Path(args.out), text)
        return {"written": args.out, "edge_count": adj.edge_count()}, EXIT_OK
    sys.stdout.write(text)
    return {"edge_count": adj.edge_count()}, EXIT_OK


def _add_construction_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime local dimension")
    sub.add_argument("--n", type=int, help="qudit count (single-level shorthand)")
    sub.add_argument("--k", type=int, help="code dimension (single-level shorthand)")
    sub.add_argument("--levels", type=str, help='hierarchy levels, e.g. "6:2,2:1"')
    sub.add_argument("--gamma", type=int, help="primitive element for the Singleton array")


def _add_random_block_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--b-mode",
        choices=("zero", "random"),
        default="zero",
        help="lower-right block: zero (hierarchy levels) or seeded random",
    )
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized parts")


def build_parser() -> argparse.ArgumentParser:
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
        type=int,
        default=0,
        metavar="N",
        help="also sweep N seeded random B blocks and require k >= code k",
    )

    p_hier = subs.add_parser("hierarchy", help="build and check every hierarchy prefix")
    _add_construction_flags(p_hier)
    p_hier.add_argument("--out", type=str, help="directory for per-level artifacts")

    p_slocc = subs.add_parser("slocc", help="rank/support discrimination of two states")
    p_slocc.add_argument("--p", type=int, required=True)
    p_slocc.add_argument("--gamma", type=int)
    p_slocc.add_argument(
        "--pair",
        nargs=2,
        required=True,
        metavar=("BASE", "HIER"),
        help='two level specs, e.g. --pair 6:2 "6:2+2:1"',
    )

    p_export = subs.add_parser("export", help="re-emit a stored adjacency as DOT or JSON")
    p_export.add_argument("--adjacency", type=str, required=True, help="adjacency JSON file")
    p_export.add_argument("--format", choices=("dot", "json"), default="dot")
    p_export.add_argument("--out", type=str)

    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        p=getattr(args, "p", None),
        levels=getattr(args, "levels", None)
        or (
            f"{args.n}:{args.k}"
            if getattr(args, "n", None) is not None and getattr(args, "k", None) is not None
            else None
        ),
        gamma=getattr(args, "gamma", None),
        b_mode=getattr(args, "b_mode", "zero"),
        seed=getattr(args, "seed", DEFAULT_SEED),
        method=getattr(args, "method", None),
        random_b=getattr(args, "random_b", 0),
        out=getattr(args, "out", None),
        with_state=getattr(args, "with_state", False),
        sparse_state=getattr(args, "sparse_state", False),
        fmt=getattr(args, "format", None),
        pair=tuple(args.pair) if getattr(args, "pair", None) else None,
        adjacency=getattr(args, "adjacency", None),
    )


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "hierarchy": cmd_hierarchy,
    "slocc": cmd_slocc,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from(args)
    try:
        result, status = _COMMANDS[args.subcommand](args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.subcommand != "export" or args.out:
        sys.stdout.write(_envelope(config, result))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
