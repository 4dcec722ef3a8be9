"""Outside-in tracing: wrap the program's public functions by module attribute.

Every call of a wrapped function is a span. Spans are not kept one by one:
each layer accumulates its call count, its total span time and its self time,
which is the span time minus the time of the wrapped calls made inside it
(the program is single-threaded, so child spans never overlap). A few layers
also record a count taken from the returned value (HiGHS iterations, built
constraint bytes, exported file bytes).

A function imported with ``from .x import f`` is bound in several module
namespaces; ``install`` replaces every binding of the original object inside
the ``mdpvcg`` package, so calls made from any module are seen. ``uninstall``
puts the originals back, so traced and untraced operations can alternate in
one process.

A layer whose function no longer exists is reported as absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

PACKAGE = "mdpvcg"


def _linprog_nit(counters, result):
    counters["polytope.linprog.nit"] += int(getattr(result, "nit", 0) or 0)


def _maximize_status(counters, result):
    if getattr(result, "status", None) == "infeasible":
        counters["polytope.infeasible"] += 1


def _array_bytes(obj) -> int:
    """Bytes held by the dense or sparse arrays among an object's attributes."""
    total = 0
    for value in vars(obj).values() if hasattr(obj, "__dict__") else ():
        if hasattr(value, "nnz"):  # scipy.sparse: count its stored buffers
            for part in ("data", "indices", "indptr", "row", "col", "offsets"):
                total += getattr(getattr(value, part, None), "nbytes", 0)
        else:
            total += getattr(value, "nbytes", 0) if hasattr(value, "dtype") else 0
    return total


def _build_bytes(counters, result):
    key = "polytope.build_bytes_max"
    counters[key] = max(counters[key], _array_bytes(result))


def _export_bytes(counters, result):
    counters["harness.export.bytes"] += sum(Path(p).stat().st_size for p in result or ())


# (layer, module, attribute, hook on the returned value). "Class.method"
# attributes are patched on the class. A layer listed twice is fed by both.
LAYERS = (
    ("mdp.step", "mdpvcg.mdp", "step", None),
    ("online.act", "mdpvcg.online", "OnlineVcgLearner.act", None),
    ("online.observe", "mdpvcg.online", "OnlineVcgLearner.observe", None),
    ("online.end_episode", "mdpvcg.online", "OnlineVcgLearner.end_episode", None),
    ("bidders.report", "mdpvcg.bidders", "report", None),
    ("bidders.report", "mdpvcg.bidders", "make_reporter", "factory"),
    ("polytope.maximize", "mdpvcg.polytope", "maximize", _maximize_status),
    ("polytope.build_constraints", "mdpvcg.polytope", "build_constraints", _build_bytes),
    ("polytope.linprog", "mdpvcg.polytope", "linprog", _linprog_nit),
    ("offline.offline_mechanism", "mdpvcg.offline", "offline_mechanism", None),
    ("occupancy.occupancy_from", "mdpvcg.occupancy", "occupancy_from", None),
    ("harness.simulate_run", "mdpvcg.harness", "simulate_run", None),
    ("harness.compute_benchmark", "mdpvcg.harness", "compute_benchmark", None),
    ("harness.export", "mdpvcg.harness", "export", _export_bytes),
    ("cli.main", "mdpvcg.cli", "main", None),
)

COUNTERS = ("polytope.linprog.nit", "polytope.infeasible",
            "polytope.build_bytes_max", "harness.export.bytes")


class LayerStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Wrappers for every layer in ``LAYERS``; patched in only while installed."""

    def __init__(self):
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patches = []  # (owner, key, original, wrapper)
        present = set()
        for layer, module_name, attr, hook in LAYERS:
            self.stats.setdefault(layer, LayerStats())
            owner, key, original = self._resolve(module_name, attr)
            if original is None:
                continue
            present.add(layer)
            if hook == "factory":
                wrapper = self._factory(layer, original)
            else:
                wrapper = self._span(layer, original, hook)
            self._patches.append((owner, key, original, wrapper))
        self.absent = sorted(set(self.stats) - present)

    @staticmethod
    def _resolve(module_name, attr):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, attr, None
        *path, key = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, key, None
        original = owner.__dict__.get(key) if isinstance(owner, type) else getattr(owner, key, None)
        return owner, key, original

    def _span(self, layer, fn, hook=None):
        stats = self.stats[layer]
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += span
                stats.calls += 1
                stats.total += span
                stats.self_time += span - child
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def _factory(self, layer, factory):
        """Wrap a function that returns a callable: the callable is the span."""
        span = self._span

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return span(layer, factory(*args, **kwargs))

        return wrapper

    def _swap(self, installing: bool):
        for owner, key, original, wrapper in self._patches:
            old, new = (original, wrapper) if installing else (wrapper, original)
            if isinstance(owner, type):
                setattr(owner, key, new)
                continue
            for name, module in list(sys.modules.items()):
                if name == PACKAGE or name.startswith(PACKAGE + "."):
                    for attr, value in list(vars(module).items()):
                        if value is old:
                            setattr(module, attr, new)

    def install(self):
        self._swap(True)

    def uninstall(self):
        self._swap(False)
