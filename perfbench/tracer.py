"""Outside-in tracer for the mphom layers.

The tracer wraps public functions and methods of the layer modules from
outside: no file under `src/` knows it exists.  A wrapped function is
rebound in every `mphom` module that holds it under some name, because
modules import helpers by name (`homspace` binds its own
`nullspace_of_columns`), so patching the defining module alone would miss
those calls.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  Two very hot methods, `ColumnSpan.insert` and
`CokernelCache.at`, are counted only: a span per call would cost more than
the work they do.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types
from collections import defaultdict

import numpy as np

PACKAGE = "mphom"

# (module, attribute) pairs that get a span per call.  A dotted attribute
# names a method on a class of that module.
SPANNED = (
    ("graded", "column_reduce"),
    ("graded", "nullspace_of_columns"),
    ("graded", "submatrix_at_most"),
    ("localalg", "local_cokernel"),
    ("localalg", "structure_map"),
    ("localalg", "restriction_system"),
    ("presentations", "kernel"),
    ("presentations", "free_resolution"),
    ("presentations", "truncate"),
    ("presentations", "matlis_transpose_shift"),
    ("presentations", "minimize"),
    ("homspace", "LinearSystem.__init__"),
    ("homspace", "LinearSystem.solve"),
    ("homspace", "homotopy_reduce"),
    ("homspace", "verify_hom"),
    ("homspace", "hom_direct"),
    ("homspace", "hom_restricted"),
    ("homspace", "hom_mixed"),
    ("homspace", "hom_exact"),
    ("homspace", "hom_module_presentation"),
    ("dualhom", "dual_context"),
    ("dualhom", "hom_restricted_dual"),
    ("dualhom", "hom_exact_dual"),
    ("gridoracle", "rref"),
    ("gridoracle", "realize_grid"),
    ("gridoracle", "hom_oracle"),
    ("gridoracle", "grid_axes"),
    ("generators", "random_module"),
)

COUNTED = (
    ("graded", "ColumnSpan.insert"),
    ("localalg", "CokernelCache.at"),
)

# Span names are reported with the build step of LinearSystem spelled out.
RENAMED = {"homspace.LinearSystem.__init__": "homspace.LinearSystem.build"}


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counts = defaultdict(int)
        self._undo = []
        self._cache_depth = 0

    # -- spans -----------------------------------------------------------

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def span(self, name, func):
        """Run func() inside a span called name."""
        idx = self.open(name)
        try:
            return func()
        finally:
            self.close(idx)

    def mark(self):
        """Index of the next span, for slicing out one pair's spans."""
        return len(self.names)

    def self_times(self, first=0):
        """Self seconds and call counts per span name from span `first` on.

        A span's self time is its duration minus the durations of its
        direct children (children nest strictly in one thread).
        """
        own = {}
        for i in range(first, len(self.names)):
            own[i] = self.ends[i] - self.starts[i]
        for i in range(first, len(self.names)):
            parent = self.parents[i]
            if parent in own:
                own[parent] -= self.ends[i] - self.starts[i]
        totals = defaultdict(float)
        calls = defaultdict(int)
        for i, seconds in own.items():
            totals[self.names[i]] += seconds
            calls[self.names[i]] += 1
        return totals, calls

    def children_of(self, parent_name, child_name, first=0):
        """How many spans called child_name have a parent called parent_name."""
        n = 0
        for i in range(first, len(self.names)):
            parent = self.parents[i]
            if (self.names[i] == child_name and parent >= 0
                    and self.names[parent] == parent_name):
                n += 1
        return n

    def write(self, path):
        """Write the spans as JSON: one [name, start, end, parent] per span."""
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            [self.names[i], round(self.starts[i] - origin, 7),
             round(self.ends[i] - origin, 7), self.parents[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, handle, separators=(",", ":"))

    # -- wrapping --------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    @staticmethod
    def _resolve(module, attr):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            return getattr(mod, cls_name), meth
        return mod, attr

    def _rebind(self, original, replacement):
        """Point every module-level name bound to original at replacement."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _spanned(self, name, original):
        tracer = self
        extra = self._extras(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extra is not None:
                extra(args, result)
            return result

        return wrapper

    def _extras(self, name):
        """Work counts taken at a layer boundary, outside the span."""
        counts = self.counts
        if name == "gridoracle.rref":
            def extra(args, result):
                counts["gridoracle.rref.cells"] += math.prod(
                    np.shape(args[0]))
            return extra
        if name == "gridoracle.realize_grid":
            def extra(args, result):
                counts["gridoracle.grid_points"] += len(result.dims)
            return extra
        if name == "presentations.kernel":
            def extra(args, result):
                counts["presentations.kernel.generator_degrees"] += len(
                    set(result.cols))
            return extra
        if name == "localalg.local_cokernel":
            def extra(args, result):
                if self._cache_depth:
                    counts["localalg.CokernelCache.misses"] += 1
            return extra
        return None

    def _counted(self, name, original):
        counts = self.counts
        key = name + ".calls"
        if name == "localalg.CokernelCache.at":
            tracer = self

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                tracer._cache_depth += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._cache_depth -= 1

            return wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def install(self):
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, attr in table:
                owner, member = self._resolve(module, attr)
                original = getattr(owner, member)
                name = f"{module}.{attr}"
                wrapper = make(RENAMED.get(name, name), original)
                if isinstance(owner, types.ModuleType):
                    self._rebind(original, wrapper)
                else:  # a class: patch the method on the class itself
                    setattr(owner, member, wrapper)
                    self._undo.append((owner, member, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
