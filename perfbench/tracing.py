"""Span tracer that wraps bubblering's layer functions from the outside.

Every traced function is replaced, in every bubblering module that binds
it, by a wrapper that records a span: name, operation id, parent span,
start, end and the time its child spans cover.  A span's self time is its
duration minus that child time.  Counts of work done (nodes sampled, kernel
pairs, matrix bytes) are taken from the function's result at the same
boundary.  Spans stay in memory and are written out once, when the run ends.

The wrappers are installed only around a traced operation and removed right
after it, so untraced operations run the unmodified library.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager


def _boundary_nodes(res):
    return res.n_nodes if hasattr(res, "n_nodes") else len(res.vertices)


# (module, function) -> (quantity, counter on the result, aggregation) or None
LAYERS = {
    ("cli", "main"): None,
    ("shapes", "boundary_nodes"): ("nodes", _boundary_nodes, "sum"),
    ("geometry", "geometry_report"): ("nodes_max", lambda r: r.resolution, "max"),
    ("geometry", "surface_set_length"): None,
    ("geometry", "width_height"): None,
    ("certify", "explicit_bound"): None,
    ("elliptic", "ellip_log_split"): ("elements", lambda r: r[0].size, "sum"),
    ("kernel", "kernel_split"): ("pairs", lambda r: r[1].size, "sum"),
    ("kernel", "gradient_split"): ("pairs", lambda r: r[0].size, "sum"),
    # bytes of the dense n x n float64 matrix, computed from its size
    ("solver", "single_layer_matrix"): ("bytes", lambda r: 8 * r.size, "sum"),
    ("solver", "normal_derivative_matrix"): ("bytes", lambda r: 8 * r.size, "sum"),
    ("solver", "solve_dirichlet"): None,
    ("solver", "dynamic_residual"): None,
    ("search", "residual_minimize"): None,
}

PACKAGE = "bubblering"

# span record fields
_ID, _PARENT, _NAME, _OP, _START, _END, _CHILD, _COUNT = range(8)


class Tracer:
    """Records spans of the functions in LAYERS during traced operations."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._op = None
        self._patches = []   # (module, attribute, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for (mod_name, fn_name), spec in LAYERS.items():
            name = f"{mod_name}.{fn_name}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            orig = getattr(mod, fn_name, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, spec[1] if spec else None)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig, wrapper))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), parent[_ID] if parent else None, name,
                    self._op, time.perf_counter(), None, 0.0, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += span[_END] - span[_START]
            if counter is not None:
                span[_COUNT] = counter(result)
            return result

        return traced

    @contextmanager
    def recording(self, op_id: int):
        """Install the wrappers for one operation and remove them after."""
        self._op = op_id
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, orig, _ in self._patches:
                setattr(mod, attr, orig)
            self._stack.clear()
            self._op = None

    def per_layer(self, n_ops: int) -> dict:
        """Per-operation means of calls, self and total time and the layer's
        count; `nodes_max` is the maximum over the run instead."""
        n = max(n_ops, 1)
        out = {}
        for (mod_name, fn_name), spec in LAYERS.items():
            name = f"{mod_name}.{fn_name}"
            spans = [s for s in self.spans if s[_NAME] == name]
            out[f"{name}.calls"] = len(spans) / n
            out[f"{name}.self_s"] = sum(s[_END] - s[_START] - s[_CHILD]
                                        for s in spans) / n
            out[f"{name}.total_s"] = sum(s[_END] - s[_START]
                                         for s in spans) / n
            if spec:
                quantity, _, how = spec
                counts = [s[_COUNT] for s in spans if s[_COUNT] is not None]
                out[f"{name}.{quantity}"] = (
                    float(max(counts, default=0)) if how == "max"
                    else sum(counts) / n)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[_ID], "parent": s[_PARENT], "name": s[_NAME],
                    "op": s[_OP], "start": s[_START], "end": s[_END],
                    "self_s": s[_END] - s[_START] - s[_CHILD],
                    "count": s[_COUNT],
                }) + "\n")
