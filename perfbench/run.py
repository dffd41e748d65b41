#!/usr/bin/env python3
"""Layered benchmark of kunigraph: four CLI workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # tiny corpora, checks names and units

It drives ``kunigraph.cli.main(argv)`` in-process from ``src/``, captures
stdout and checks every output outside its timer. The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the environment block and the
figures that are not metrics (fail ratio, sample counts, passes).
See README.md beside this file for the workloads and predicted layer split.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from kunigraph import cli; raise SystemExit(cli.main({argv!r}))"
)


def load_kunigraph():
    """Import kunigraph from this checkout's src/, never from anywhere else."""
    if not (SRC / "kunigraph" / "cli.py").is_file():
        raise ImportError(f"no kunigraph sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kunigraph.cli

    if Path(kunigraph.cli.__file__).resolve().parent != SRC / "kunigraph":
        raise ImportError(f"kunigraph was imported from {kunigraph.cli.__file__}")
    return kunigraph.cli


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    from kunigraph import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "sweep_backend": _kernels.DEFAULT_BACKEND,
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure_setup(repeats: int) -> tuple[list[float], int]:
    """Fresh interpreters importing kunigraph.cli and running the warm-up command."""
    from workloads import WARMUP_ARGV

    code = SETUP_SNIPPET.format(src=str(SRC), argv=WARMUP_ARGV)
    times, failed = [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # a blocking wait: wait(timeout=...) polls with sleeps of up to 50 ms
        guard = threading.Timer(120, proc.kill)
        guard.start()
        try:
            returncode = proc.wait()
        finally:
            guard.cancel()
        times.append(time.perf_counter() - t0)
        failed += returncode != 0
    return times, failed


class Run:
    """Passes over one workload's command list, with the checks between commands."""

    def __init__(self, cli, commands, workdir: Path, tracer=None):
        self.cli = cli
        self.commands = commands
        self.workdir = workdir
        self.tracer = tracer
        self.first_stdout: dict[int, str] = {}
        self.fresh: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self) -> dict:
        """Run every command once, in an empty work directory.

        Returns per-command seconds and I/O byte counts.
        """
        from workloads import check, run_command

        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        if self.tracer is not None:
            self.tracer.reset()
        seconds, stdout_bytes, file_bytes = [], 0, 0
        for i, cmd in enumerate(self.commands):
            self.attempted += 1
            # every command starts from a collected heap, as in a fresh CLI process;
            # otherwise a collection of the benchmark's own objects lands in
            # whichever command happens to trigger it
            gc.collect()
            if self.tracer is not None:
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                outcome = run_command(cmd, self.cli, self.workdir)
            except (Exception, SystemExit) as exc:  # a crash is a failed command
                seconds.append(time.perf_counter() - t0)
                self.fail(f"{cmd.label()}: raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if self.tracer is not None:
                    self.tracer.active = False
            seconds.append(outcome.seconds)
            stdout_bytes += len(outcome.stdout.encode())
            if cmd.out:
                out = self.workdir / cmd.out
                files = [out] if out.is_file() else out.rglob("*")
                file_bytes += sum(f.stat().st_size for f in files if f.is_file())
            problems = check(cmd, outcome, self.workdir, self.fresh)
            if outcome.status is not None:
                if self.first_stdout.setdefault(i, outcome.stdout) != outcome.stdout:
                    problems.append("stdout differs from an earlier run of the same argv")
            if problems:
                self.fail(f"{cmd.label()}: {'; '.join(problems)}")
        record = {"seconds": seconds, "stdout_bytes": stdout_bytes, "file_bytes": file_bytes}
        if self.tracer is not None:
            record["trace"] = self.tracer.snapshot()
        return record

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def passes(self, seconds: float) -> list[dict]:
        """At least one pass; another only while it is expected to end within `seconds`."""
        records = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            records.append(self.one_pass())
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                return records


def tail(values: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND samples above it (the maximum if too few)."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1]
    return ordered[-1 - TAIL_BEYOND]


def per_command_medians(records: list[dict]) -> list[float]:
    """Each command's median time over the passes; their sum is wall_s."""
    return [statistics.median(times) for times in zip(*(r["seconds"] for r in records))]


def run_workload(workload, seed, seconds, trace, tiny=False, edit=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail block).

    ``edit`` may change the generated command list before it runs; the smoke
    test uses it to plant a wrong expectation.
    """
    cli = load_kunigraph()
    from layers import COMPUTED, Tracer
    from workloads import WARMUP_ARGV, Command, corpus, run_command

    commands = corpus(workload, seed, tiny=tiny)
    if edit is not None:
        edit(commands)
    detail = {"workload": workload, "environment": environment(seed)}
    attempted = failed = 0
    metrics = {}
    if not trace:
        setup_times, setup_failed = measure_setup(1 if tiny else SETUP_REPEATS)
        attempted, failed = len(setup_times), setup_failed
        metrics["setup_s"] = statistics.median(setup_times)
    run_command(Command("verify", list(WARMUP_ARGV)), cli, ROOT)  # warm caches in-process

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    tracer = Tracer()
    try:
        # a traced run spends half its time untraced, for the overhead baseline
        plain = Run(cli, commands, workdir / "w")
        records = plain.passes(seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        medians = per_command_medians(records)
        runs = [plain]
        if trace:
            tracer.install()
            traced = Run(cli, commands, workdir / "w", tracer=tracer)
            traced.first_stdout, traced.fresh = plain.first_stdout, plain.fresh
            runs.append(traced)
            layer_records = traced.passes(seconds / 2)
            tracer.uninstall()
            metrics = _layer_metrics(layer_records, sum(medians))
            if len({json.dumps(r["trace"]["work"], sort_keys=True) for r in layer_records}) != 1:
                traced.fail("work counts differ between traced passes")
            detail["computed"] = [m for m in COMPUTED if m in metrics]
            detail["traced_passes"] = len(layer_records)
        else:
            metrics.update(
                wall_s=sum(medians),
                cmd_p50_s=statistics.median(medians),
                cmd_tail_s=tail(medians),
                peak_rss_mb=peak_rss_mb,
            )
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    attempted += sum(r.attempted for r in runs)
    failed += sum(r.failed for r in runs)
    samples = len(medians)
    detail.update(
        fail_ratio=failed / attempted,
        passes=len(records),
        cmd_samples=samples,
        cmd_tail_percentile=100 * (1 - TAIL_BEYOND / samples) if samples > TAIL_BEYOND else 100,
        problems=[p for r in runs for p in r.problems],
    )
    units = _units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, detail


def _layer_metrics(records: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics: counts from one traced pass, times as medians over passes."""
    from layers import LAYERS

    first = records[0]
    metrics = {}

    def median_of(get):
        return statistics.median(get(r) for r in records)

    for name in _metric_names("per_layer"):
        if name == "trace.overhead_s":
            value = sum(per_command_medians(records)) - untraced_wall
        elif name == "bench.self_s":
            value = median_of(lambda r: sum(r["seconds"]) - sum(r["trace"]["self_s"].values()))
        elif name.endswith(".self_s"):
            layer = next(l for l in LAYERS if l.lstrip("_") == name[: -len(".self_s")])
            value = median_of(lambda r: r["trace"]["self_s"].get(layer, 0.0))
        elif name.startswith("cli.") and name.endswith(".s"):
            sub = name[4:-2]
            value = median_of(lambda r: r["trace"]["subcommand_s"].get(sub, 0.0))
        elif name == "cli.stdout_bytes":
            value = first["stdout_bytes"]
        elif name == "cli.file_bytes":
            value = first["file_bytes"]
        elif name == "field.calls":
            value = first["trace"]["calls"].get("field", 0)
        else:
            value = first["trace"]["work"].get(name, 0)
        metrics[name] = value
    return metrics


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_names(section: str) -> list[str]:
    return [m["name"] for m in _benchmark_spec()[section]]


def _units() -> dict:
    spec = _benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Each workload in its own process; one table of metrics, units and fail ratios."""
    spec = _benchmark_spec()
    rows = {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        rows[w["name"]] = (json.loads(lines[-1]), json.loads(lines[-2]))
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}
    print(f"{'metric':<26} {'unit':<7}" + "".join(f"{w:>14}" for w in rows))
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:>14.6g}" for r, _ in rows.values())
        print(f"{name:<26} {units[name]:<7}{cells}")
    print(f"{'fail_ratio':<26} {'ratio':<7}" + "".join(
        f"{d['fail_ratio']:>14.6g}" for _, d in rows.values()))
    print(f"{'cmd_samples':<26} {'count':<7}" + "".join(
        f"{d['cmd_samples']:>14}" for _, d in rows.values()))
    return 0 if all(r["correct"] for r, _ in rows.values()) else 1


def smoke() -> list[str]:
    """Tiny corpora: every metric present with its unit; a planted wrong k is caught."""
    spec = _benchmark_spec()
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, detail = run_workload(w["name"], 1, 0.0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics {got} != {want}")
            if not result["correct"] or detail["fail_ratio"] != 0:
                problems.append(f"{w['name']} trace={trace}: {detail['problems']}")

    def wrong_k(commands):
        next(c for c in commands if "k" in c.expect).expect["k"] += 1

    result, detail = run_workload("screen", 1, 0.0, 0, tiny=True, edit=wrong_k)
    if result["correct"] or not detail["fail_ratio"] > 0:
        problems.append("a wrong expected k was not counted as a failure")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora; check names and units")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        load_kunigraph()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        print("\n".join(problems) or "smoke ok")
        return 1 if problems else 0
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
