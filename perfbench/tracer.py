"""Spans and counts recorded from outside the package.

The benchmark wraps public functions of ``lagrangian_lab`` at their layer
boundaries: every module-level name that refers to a wrapped function is
replaced, so calls from one package module into another are seen as well as
calls from the benchmark. Nothing in the package itself changes.

Each span is (name, start, end, parent); spans live in flat arrays so that
hundreds of thousands of them stay small. Counts are the number of spans per
name plus a few counters that wrappers add (``Tracer.add``).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

from workloads import potential

PACKAGE = "lagrangian_lab"

# (module, attribute) pairs wrapped in a traced run. Span names are
# "<module>.<attribute>"; the module name is the layer. Per-edge and
# per-coefficient helpers are left out: they run millions of times and a span
# would cost more than the work it measures.
TARGETS = (
    ("hypergraph", "Hypergraph.edge_set"),
    ("hypergraph", "validate"),
    ("cliques", "max_complete_subgraph"),
    ("cliques", "contains_complete"),
    ("objective", "eval_L"),
    ("objective", "gradient"),
    ("objective", "eval_exact"),
    ("optimizer", "maximize"),
    ("optimizer", "polish"),
    ("optimizer", "grid_oracle"),
    ("optimizer", "project_to_simplex"),
    ("optimizer", "kkt_residual"),
    ("compression", "left_compress_fixpoint"),
    ("compression", "compress_hypergraph"),
    ("compression", "is_left_compressed"),
    ("theorems", "verify"),
    ("theorems", "check_hypotheses"),
    ("theorems", "closed_form_exact"),
    ("generators", "gen_planted"),
    ("cli", "run"),
)


class Tracer:
    """In-memory span recorder; one instance per traced region."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.results: dict[str, list] = defaultdict(list)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value=1) -> None:
        self.counters[counter] += value

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so summing self time over all names gives the time of the
        root spans.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def spans(self, max_depth: int) -> list[tuple[str, float, float, int]]:
        """Spans down to ``max_depth`` (roots have depth 0), for writing out."""
        depth = array("l", [0]) * len(self.start)
        rows = []
        for i in range(len(self.start)):
            p = self.parent[i]
            depth[i] = 0 if p < 0 else depth[p] + 1
            if depth[i] <= max_depth:
                rows.append((self.names[self.name_id[i]], self.start[i], self.end[i], p))
        return rows


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _observe_results(tracer: Tracer, name: str, fn):
    """Keep solver results and compression steps for the per-layer ratios.

    These wrappers sit outside the span, so their own work counts as the
    caller's time and as tracing overhead, not as the layer's.
    """
    if name in ("optimizer.maximize", "optimizer.polish"):
        def observed(*args, **kwargs):
            res = fn(*args, **kwargs)
            tracer.results["solver"].append((bool(res.converged), float(res.kkt_residual)))
            return res
    elif name == "compression.compress_hypergraph":
        last = [None]

        # left_compress_fixpoint feeds a step's output into the next step only
        # when the step changed the graph, so an input that is the previous
        # output marks the previous step as effective. This avoids a second
        # O(|E|) comparison inside the measured region.
        def observed(h, *args, **kwargs):
            if h is last[0]:
                tracer.add("compression.effective_steps")
            res = fn(h, *args, **kwargs)
            last[0] = res
            return res
    elif name == "compression.left_compress_fixpoint":
        def observed(h, *args, **kwargs):
            res = fn(h, *args, **kwargs)
            tracer.add("compression.potential_drop", potential(h) - potential(res))
            return res
    else:
        return fn
    return functools.wraps(fn)(observed)


class Instrumented:
    """Context manager that installs span wrappers on the loaded package and
    restores the original objects on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, attr in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if module is None:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(fn_name) if owner_name else getattr(module, fn_name, None)
            if original is None:
                continue
            name = f"{mod_name}.{fn_name}"
            wrapped = _observe_results(self.tracer, name, _wrap(self.tracer, name, original))
            if owner_name:
                self._set(owner, fn_name, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        return self.tracer

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
