"""Spans and counters around every call into a public curv4 function.

Each public function is replaced at every module attribute that binds it
(the defining module, each consumer module that imported it, and the
package), so calls between modules and calls inside one module are both
seen, and a counter can be read per binding: ``obstructions>bivectors.
induced_map`` counts only the calls the obstruction engine makes.

Spans (id, name, start, end, parent id, op id) stay in memory, up to MAX_SPANS,
and are written when the worker ends.  Self time per layer (the span's
duration minus the time its child spans cover) is accumulated as spans
close, so it is exact even past the span cap.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import inputs

MAX_SPANS = 200_000
SUBMODULES = ("bivectors", "operators", "kahler", "metrics", "obstructions", "cli")
# A table lookup run for every curvature component read; wrapping it would
# multiply the traced run's time several-fold and bury every other layer.
UNWRAPPED = {"bivectors.pair_slot"}

# Functions whose first call for a given metric builds the sympy lambdas;
# their first-call durations are kept apart from the warm ones.
FIRST_CALL_KEYED = {
    "metrics.curvature_at",
    "metrics.christoffel_oracle",
    "metrics.nabla_J_residuals",
    "metrics.unitary_product_check",
}


class SearchAudit:
    """Residual evaluations a frame search makes after one of them already
    met the conclusive bound, recomputed from the frames the obstruction
    engine passes to induced_map during the search.  Only searches in the
    op phase count."""

    def __init__(self, frame_search):
        self.signature = inspect.signature(frame_search)
        self.frames = None
        self.wasted = 0
        self.evaluations = 0

    def begin(self, counted):
        self.frames = [] if counted else None

    def record(self, frame):
        if self.frames is not None:
            self.frames.append(np.array(frame, dtype=float))

    def end(self, args, kwargs):
        frames, self.frames = self.frames, None
        if frames is None:
            return
        call = self.signature.bind(*args, **kwargs)
        call.apply_defaults()
        op = call.arguments["r_op"]
        # the search works on the operator scaled to unit norm (at least),
        # where "conclusive" is a residual of at most tol
        m = op.matrix / max(1.0, float(np.linalg.norm(op.matrix)))
        values = inputs.distinct_residuals(m, np.array(frames).reshape(-1, 4, 4))
        met = np.flatnonzero(values <= call.arguments["tol"])
        self.wasted += 0 if met.size == 0 else len(values) - int(met[0]) - 1
        self.evaluations += len(values)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.op = -1
        self.names = []
        self._name_ids = {}
        self.spans = array("q")  # span id, name id, start ns, end ns, parent id, op id
        self.dropped = 0
        self._next_span = 0
        self._stack = []  # [span id, child ns] of the open spans
        self.calls = Counter()  # (phase, binding or name) -> calls
        self.durations = defaultdict(lambda: array("q"))  # (phase, name) -> ns
        self.first_calls = defaultdict(list)  # name -> ns of first calls per key
        self._seen_keys = set()
        self.self_ns = Counter()  # (phase, layer) -> ns
        self.search = None  # SearchAudit, once frame_search is wrapped

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _close(self, name_id, name, layer, start, end, span_id, child_ns, first_key):
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        phase = self.phase
        self.self_ns[(phase, layer)] += duration - child_ns
        if len(self.spans) < 6 * MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.extend((span_id, name_id, start, end, parent, self.op))
        else:
            self.dropped += 1
        if first_key is not None and (name, first_key) not in self._seen_keys:
            self._seen_keys.add((name, first_key))
            self.first_calls[name].append(duration)
        else:
            self.durations[(phase, name)].append(duration)

    def wrap(self, fn, name, binding):
        tracer = self
        name_id = self._name_id(name)
        layer = name.split(".", 1)[0]
        keyed = name in FIRST_CALL_KEYED
        is_search = name == "obstructions.frame_search"
        is_evaluation = binding == "obstructions>bivectors.induced_map"
        if is_search and self.search is None:
            self.search = SearchAudit(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_span
            tracer._next_span += 1
            tracer.calls[(tracer.phase, binding)] += 1
            tracer.calls[(tracer.phase, name)] += 1
            if is_search:
                tracer.search.begin(tracer.phase == "op")
            elif is_evaluation:
                tracer.search.record(args[0])
            frame = [span_id, 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                first_key = args[0].key if keyed and args else None
                tracer._close(name_id, name, layer, start, end, span_id, frame[1], first_key)
            if is_search:
                tracer.search.end(args, kwargs)
            return result

        return traced

    @contextmanager
    def op_span(self, op_id, phase="op"):
        """The bench's own span around one operation; its self time is the
        time the operation spends outside curv4's public functions."""
        self.phase, self.op = phase, op_id
        name_id = self._name_id("bench.op")
        span_id = self._next_span
        self._next_span += 1
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._close(name_id, "bench.op", "bench", start, end, span_id, frame[1], None)

    def summary(self, ops, warm_phase="op"):
        """Counts per op for the op phase, warm medians (and medians over
        every phase), first-call build costs and self time per layer, as
        plain JSON data."""
        calls = {k: v for (phase, k), v in self.calls.items() if phase == "op"}
        medians = {
            name: statistics.median(values)
            for (phase, name), values in self.durations.items()
            if phase == warm_phase and values
        }
        builds = {
            name: [first - medians[name] for first in firsts]
            for name, firsts in self.first_calls.items()
            if name in medians
        }
        pooled = defaultdict(list)
        for (_, name), values in self.durations.items():
            pooled[name].extend(values)
        self_ns = {layer: v for (phase, layer), v in self.self_ns.items() if phase == "op"}
        return {
            "ops": ops,
            "calls": calls,
            "median_ns": medians,
            "all_median_ns": {name: statistics.median(v) for name, v in pooled.items() if v},
            "build_ns": builds,
            "self_ns": self_ns,
            "search_evals": [self.search.wasted, self.search.evaluations] if self.search else [0, 0],
            "spans": len(self.spans) // 6,
            "dropped_spans": self.dropped,
        }

    def write(self, path):
        """Spans as tab-separated lines: id, name, start ns, end ns, parent
        id (-1 for a root), op id (-1 during set-up)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            s = self.spans
            for k in range(0, len(s), 6):
                row = (s[k], self.names[s[k + 1]], s[k + 2], s[k + 3], s[k + 4], s[k + 5])
                handle.write("\t".join(map(str, row)) + "\n")


def install(tracer, package):
    """Replace every binding of every public curv4 function by a traced one."""
    modules = [sys.modules[f"{package.__name__}.{m}"] for m in SUBMODULES]
    public = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                public[id(obj)] = f"{mod.__name__.rsplit('.', 1)[1]}.{obj.__name__}"
    for mod in [package] + modules:
        consumer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            name = public.get(id(obj)) if isinstance(obj, types.FunctionType) else None
            if name is not None and name not in UNWRAPPED:
                setattr(mod, attr, tracer.wrap(obj, name, f"{consumer}>{name}"))
