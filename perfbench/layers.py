"""Per-layer tracing of kunigraph, installed from outside the package.

``Tracer.install`` replaces every public function and every public method
(plus ``__init__``) of the library's modules with a wrapper that keeps a
span stack, so each layer's self time is its spans' duration minus the
part covered by child spans. The wrappers also count work. Counts marked
computed in ``COMPUTED`` are derived from the call's arguments (register
size, field, subset, matrix shape), never from timings, so they repeat
exactly. ``uninstall`` puts the original objects back.

A layer is a module of ``src/kunigraph``. Private helpers are not wrapped,
so their time falls to the public caller, which lives in the same module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

LAYERS = ("field", "matrix", "codes", "graph", "stabilizer", "_kernels", "dense", "analysis", "cli")

# work counts derived from call arguments rather than observed
COMPUTED = (
    "stabilizer.vectors",
    "kernels.ops",
    "kernels.bytes",
    "dense.amplitudes",
    "dense.gram_macs",
    "matrix.mds_test.minors",
    "codes.codewords",
)


def _sweep(work, args, parent):
    adj = args[0]
    work["stabilizer.sweeps"] += 1
    work["stabilizer.vectors"] += adj.field.p**adj.n - 1


def _kernel(work, args, parent):
    gamma, q = args[0], args[1]
    n = gamma.shape[0]
    vectors = q**n - 1
    work["kernels.ops"] += vectors * n * n  # one multiply-add per entry of Gamma w
    work["kernels.bytes"] += vectors * n * 16  # int64 rows of w and of Gamma w


def _state(work, args, parent):
    q, n = args[1], args[2]
    work["dense.states"] += 1
    work["dense.amplitudes"] += q**n


def _reduction(work, args, parent):
    state, subset = args[0], args[1]
    size = len(set(subset))
    d_s, d_rest = state.q**size, state.q ** (state.n - size)
    work["dense.reductions"] += 1
    work["dense.gram_macs"] += d_s * d_s * d_rest


def _svd(work, args, parent):
    work["dense.svds"] += 1
    if parent == "analysis":
        work["analysis.subsets"] += 1


def _mds_test(work, args, parent):
    m = args[0]
    work["matrix.mds_test.calls"] += 1
    work["matrix.mds_test.minors"] += sum(
        comb(m.rows, t) * comb(m.cols, t) for t in range(1, min(m.rows, m.cols) + 1)
    )


def _codewords(name):
    def hook(work, args, parent):
        code = args[0]
        if name:
            work[name] += 1
        work["codes.codewords"] += code.field.p**code.k

    return hook


def _count(name):
    def hook(work, args, parent):
        work[name] += 1

    return hook


HOOKS = {
    "stabilizer.minimum_support": _sweep,
    "_kernels.min_support_sweep": _kernel,
    "dense.StateVector.__init__": _state,
    "dense.reduced_density": _reduction,
    "dense.rank_of_reduction": _svd,
    "matrix.MatrixGF.rank": _count("matrix.rank.calls"),
    "matrix.MatrixGF.det": _count("matrix.det.calls"),
    "matrix.MatrixGF.all_square_submatrices_nonsingular": _mds_test,
    "codes.min_distance": _codewords("codes.min_distance.calls"),
    "codes.enumerate_codewords": _codewords(None),
    "graph.Adjacency.__init__": _count("graph.builds"),
}


class Tracer:
    """Span stack, per-layer self time, call counts and work counts."""

    def __init__(self):
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [layer, seconds covered by child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.subcommand_s: dict[str, float] = defaultdict(float)

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "work": dict(self.work),
            "subcommand_s": dict(self.subcommand_s),
        }

    def _wrap(self, layer: str, qualname: str, fn):
        hook = HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if hook is not None:
                hook(tracer.work, args, stack[-1][0] if stack else None)
            tracer.calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if qualname == "cli.main" and args and args[0]:
                    tracer.subcommand_s[args[0][0]] += dt

        return traced

    def install(self) -> None:
        """Wrap the public callables of every layer module, wherever they are bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kunigraph"]
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kunigraph.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replace:
                    self._patch(module, name, replace[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(layer, qualname, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(layer, qualname, member)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self.active = False
