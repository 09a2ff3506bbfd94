"""Per-module tracing of so3g2 from outside the package.

The tracer wraps every public module-level function of the traced
modules and patches each binding of it: the defining module, every
module that imported it by name, and module-level tables that hold it
(such as verify.ALL_SUITES).  Calls made inside the library then go
through the wrappers too, so nested calls are timed.  Only calls made
while an operation is open are recorded; checks and input generation
run untraced.

Spans are aggregated as they close (per function: calls, inclusive
time, self time), because the acceptance workload opens millions of
them.  Self time is a span's duration minus the durations of the spans
it caused.  Methods of the data classes (KForm arithmetic and the like)
are not wrapped and count as self time of their caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

# module name (under so3g2) -> layer name used in metric names; a
# metric name must start with a letter, so so3g2._exact reports as "exact"
LAYERS = {
    "_exact": "exact",
    "exterior": "exterior",
    "binaryform": "binaryform",
    "stableform": "stableform",
    "variety": "variety",
    "curvature": "curvature",
    "flow": "flow",
    "g2": "g2",
    "cli": "cli",
    "verify": "verify",
}


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _point_kind(args) -> str:
    m = args[0]
    return ".exact" if _is_exact(m.x.coeffs + m.y.coeffs) else ".float"


def _operator_kind(args) -> str:
    d = args[0]
    return ".exact" if _is_exact(v for im in d.images for v in im.coeffs.values()) else ".float"


# functions whose cost differs by scalar kind are keyed by it
VARIANTS = {
    "variety.structure_constants": _point_kind,
    "exterior.d_squared_residual": _operator_kind,
}


def _function_key(layer: str, name: str) -> str:
    if layer == "cli" and name.startswith("cmd_"):
        return "cli." + name[4:].replace("_", "-")
    return f"{layer}.{name}"


def public_functions():
    """(key, function) for every traced function."""
    out = []
    for modname, layer in LAYERS.items():
        mod = sys.modules[f"so3g2.{modname}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((_function_key(layer, name), obj))
    return out


class Tracer:
    """Install with ``with tracer:``; time operations with ``tracer.op()``."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [calls, inclusive s, self s]
        self.ops = 0
        self.op_seconds = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, key):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        variant = VARIANTS.get(key)

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            k = key + variant(args) if variant else key
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st = stats.get(k)
                if st is None:
                    st = stats[k] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                stack[-1][0] += dur

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(fn, key) for key, fn in public_functions()}
        for modname, mod in list(sys.modules.items()):
            if modname != "so3g2" and not modname.startswith("so3g2."):
                continue
            bindings = [(vars(mod), attr) for attr in vars(mod)]
            bindings += [(table, key) for attr, table in vars(mod).items()
                         if not attr.startswith("__") and isinstance(table, dict)
                         for key in table]
            for table, key in bindings:
                w = wrappers.get(id(table[key]))
                if w is not None:
                    self._patches.append((table, key, table[key]))
                    table[key] = w

    def remove(self):
        while self._patches:
            table, key, val = self._patches.pop()
            table[key] = val

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    @contextmanager
    def op(self):
        """One operation of the workload: the root span of its calls."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.ops += 1
            self.op_seconds += dur
            st = self.stats.setdefault("op", [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]

    # -- summaries ---------------------------------------------------------

    def calls(self, key: str) -> int:
        """Calls of a function, summed over its scalar-kind variants."""
        return sum(st[0] for k, st in self.stats.items()
                   if k == key or k.startswith(key + "."))

    def mean_us(self, key: str) -> float:
        """Mean inclusive microseconds per call, over its variants (0 when
        never called)."""
        rows = [st for k, st in self.stats.items()
                if k == key or k.startswith(key + ".")]
        n = sum(st[0] for st in rows)
        return 1e6 * sum(st[1] for st in rows) / n if n else 0.0

    def self_share(self, layer: str) -> float:
        """Share of all operation time spent in the layer's own code."""
        own = sum(st[2] for k, st in self.stats.items() if k.split(".")[0] == layer)
        return own / self.op_seconds if self.op_seconds else 0.0
