"""Outside-in tracing of the package's layers.

``Tracer.install()`` replaces every public function of the seven package
modules, every name that re-imports one (``surveillance.pvalue_bounds``,
``cli.epidemic_test``, the package namespace), the public methods of the
distribution classes and the constructors of ``CountPanel`` and
``ModelPair`` with wrappers that record a span per call.  ``restore()``
puts every original back.  The package itself is not modified.

Spans live in flat in-memory arrays (name, start, end, parent, op id and
a work size such as cells or draws) and are written out once at the end.
All spans come from one thread's call stack, so siblings never overlap
and a span's self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "extreme_sentinel"
LAYERS = ("cli", "surveillance", "umptest", "pit", "distributions", "verify", "monotone")
METHODS = frozenset(
    {"cdf", "sf", "cdf_left", "sf_left", "mass", "skorokhod_quantile", "sample",
     "uniform_open", "spawn", "excluding"}
)
CONSTRUCTORS = frozenset({"CountPanel", "ModelPair"})
BRACKETS = ("distributions.cdf", "distributions.cdf_left", "distributions.sf", "distributions.sf_left")
OP = "bench.op"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _out_size(args, kwargs, out):
    return int(np.size(out))


# Work done by one call, read from its arguments or result.
SIZES = {
    "cli.ingest": lambda a, k, out: len(out.cells),
    "surveillance.CountPanel": lambda a, k, out: len(_arg(a, k, 1, "cells")),
    "surveillance.epidemic_test": lambda a, k, out: out.n,
    "surveillance.peel_test": lambda a, k, out: _arg(a, k, 0, "panel").n,
    "umptest.pvalue_bounds": lambda a, k, out: out.n,
    "umptest.phi_expected": lambda a, k, out: out.n,
    "distributions.skorokhod_quantile": _out_size,
    "distributions.uniform_open": _out_size,
    "pit.randomized_pit": _out_size,
    "verify.simulate_size_and_power": lambda a, k, out: (
        len(_arg(a, k, 0, "config").panel_template) * out.n_trials
    ),
}


class Tracer:
    """Span recorder for one traced phase of a benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._root = self.wrap(lambda fn, k: fn(k), OP)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._name_id(name)
        size_of = SIZES.get(name)
        names, starts, ends, parents, ops, sizes = (
            self.name, self.start, self.end, self.parent, self.op, self.size
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            sizes.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(args, kwargs, out)
            return out

        return traced

    def run_op(self, fn, k: int):
        """Run op ``k`` as ``fn(k)`` under a root span."""
        self.op_id = k
        return self._root(fn, k)

    def install(self) -> None:
        """Wrap the package's public functions and methods in place."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        wrapped: dict[int, tuple[object, object]] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in [importlib.import_module(PACKAGE), *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__", False):
                continue
            if attr == "__init__" and cls.__name__ in CONSTRUCTORS:
                name = f"{layer}.{cls.__name__}"
            elif attr in METHODS and layer == "distributions":
                name = f"{layer}.{attr}"  # summed over the model classes
            elif attr in METHODS:
                name = f"{layer}.{cls.__name__}.{attr}"
            else:
                continue
            self._patch(cls, attr, self.wrap(fn, name))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Analysis

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its children cover."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


class SpanTable:
    """Per-layer metrics over the spans of ``ops`` traced ops."""

    def __init__(self, names, spans: dict[str, np.ndarray], ops: int):
        self.names = list(names)
        self.ops = max(int(ops), 1)
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.size = spans["size"]
        self.dur = spans["end"] - spans["start"]
        self.self_t = self_times(spans["start"], spans["end"], self.parent)
        # parent's name id; -1 for roots
        self.parent_name = np.where(
            self.parent >= 0, self.name[np.maximum(self.parent, 0)], -1
        )

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def parent_in(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.parent_name, ids)

    def under(self, *names: str) -> np.ndarray:
        """Spans with an ancestor among ``names``."""
        flag = self.parent_in(*names)
        while True:
            nxt = flag | (flag[np.maximum(self.parent, 0)] & (self.parent >= 0))
            if np.array_equal(nxt, flag):
                return flag
            flag = nxt

    def calls(self, name: str) -> float:
        return float(np.count_nonzero(self.mask(name))) / self.ops

    def self_ms(self, name: str) -> float:
        return float(self.self_t[self.mask(name)].sum()) * 1e3 / self.ops

    def ms(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum()) * 1e3 / self.ops

    def per_unit(self, name: str, scale: float) -> float:
        """Inclusive time of ``name`` per unit of its work size."""
        m = self.mask(name)
        units = self.size[m].sum()
        return float(self.dur[m].sum()) * scale / units if units else 0.0

    def layer_self_ms(self) -> float:
        """Summed self time of all package spans, per op."""
        return float(self.self_t[~self.mask(OP)].sum()) * 1e3 / self.ops


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_panel_us_per_cell(t: SpanTable) -> float:
    outer = t.mask("surveillance.CountPanel.excluding") | (
        t.mask("surveillance.CountPanel") & ~t.parent_in("surveillance.CountPanel.excluding")
    )
    cells = t.size[t.mask("surveillance.CountPanel")].sum()
    return _ratio(float(t.dur[outer].sum()) * 1e6, cells)


def _rescore_ratio(t: SpanTable) -> float:
    scored = t.size[t.mask("umptest.pvalue_bounds") & t.under("surveillance.peel_test")].sum()
    return _ratio(scored, t.size[t.mask("surveillance.peel_test")].sum())


def _bracket_calls_per_cell(t: SpanTable) -> float:
    umptest = [n for n in t.names if n.startswith("umptest.")]
    calls = np.count_nonzero(
        t.mask(*BRACKETS) & t.parent_in(*umptest) & t.under("surveillance.epidemic_test")
    )
    return _ratio(calls, t.size[t.mask("surveillance.epidemic_test")].sum())


def _cdf_calls_per_quantile(t: SpanTable) -> float:
    calls = np.count_nonzero(
        t.mask("distributions.cdf") & t.parent_in("distributions.skorokhod_quantile")
    )
    return _ratio(calls, np.count_nonzero(t.mask("distributions.skorokhod_quantile")))


DERIVED = {
    "cli.ingest.us_per_row": lambda t: t.per_unit("cli.ingest", 1e6),
    "surveillance.CountPanel.us_per_cell": _count_panel_us_per_cell,
    "surveillance.peel.rescore_ratio": _rescore_ratio,
    "umptest.pvalue_bounds.us_per_cell": lambda t: t.per_unit("umptest.pvalue_bounds", 1e6),
    "umptest.phi_expected.us_per_cell": lambda t: t.per_unit("umptest.phi_expected", 1e6),
    "distributions.bracket_calls_per_cell": _bracket_calls_per_cell,
    "distributions.skorokhod_quantile.ns_per_draw": (
        lambda t: t.per_unit("distributions.skorokhod_quantile", 1e9)
    ),
    "distributions.cdf_calls_per_quantile": _cdf_calls_per_quantile,
    "distributions.uniform_open.draws": (
        lambda t: float(t.size[t.mask("distributions.uniform_open")].sum()) / t.ops
    ),
    "pit.randomized_pit.ns_per_value": lambda t: t.per_unit("pit.randomized_pit", 1e9),
    "verify.simulate.ns_per_cell_trial": (
        lambda t: t.per_unit("verify.simulate_size_and_power", 1e9)
    ),
    "trace.op_ms": lambda t: t.ms(OP),
    "trace.layer_self_ms": lambda t: t.layer_self_ms(),
}


def layer_metric(table: SpanTable, metric: str) -> float:
    """Value of one per-layer metric named in BENCHMARK.json."""
    if metric in DERIVED:
        return DERIVED[metric](table)
    base, _, kind = metric.rpartition(".")
    if kind == "calls":
        return table.calls(base)
    if kind == "self_ms":
        return table.self_ms(base)
    if kind == "ms":
        return table.ms(base)
    raise KeyError(f"no rule computes per-layer metric {metric!r}")
