"""Span tracer for one benchmark pass.

Wraps every public function of every loaded ``cfgrank`` module, plus
``Cfg.undirected_adjacency``, and rebinds each module-level name that refers
to a wrapped function (``features`` and ``report`` import ``weak_components``
and ``induced_subgraph`` by name, so patching only the defining module would
drop those calls silently). Spans live in memory and are reduced to per-layer
numbers after the pass.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# percentiles tried for the tail, highest first; one is used only when at
# least ten samples lie beyond it
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
SWEEP_FUNCTIONS = ("metrics.betweenness", "metrics.closeness", "metrics.shortest_path_stats")
INGEST_PARSERS = ("ingest.parse_cfg_json", "ingest.parse_edge_list", "ingest.parse_canonical")


def _count_tree_nodes(node) -> int:
    if isinstance(node, dict) and "leaf" not in node:
        return 1 + _count_tree_nodes(node["left"]) + _count_tree_nodes(node["right"])
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1):
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, label=None, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: its work belongs to the span the main
                # thread is in while it waits on the pool
                parent = self._main_stack[-1] if self._main_stack else None
            span = [label(args, kwargs) if label else name, time.perf_counter(), None, parent]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(f"{name}.errors")
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if hook:
                hook(self, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap and rebind; raises if any module still holds an original."""
        import cfgrank.cli  # noqa: F401  (loads every module the CLI uses)
        from cfgrank import graph

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("cfgrank.") and mod is not None}
        wrapped = {}
        for modname, mod in modules.items():
            layer = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj,
                                             **_SPECIAL.get(f"{layer}.{attr}", {}))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        graph.Cfg.undirected_adjacency = self.wrap(
            "graph.undirected_adjacency", graph.Cfg.undirected_adjacency)
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    raise RuntimeError(f"{modname}.{attr} escaped the tracer")

    # -- reduction -----------------------------------------------------

    def layer_metrics(self, samples: int) -> dict[str, float]:
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        children: defaultdict = defaultdict(list)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                children[id(parent)].append((start, end))

        def self_time(span) -> float:
            _, start, end, _ = span
            covered, reach = 0.0, start
            for s, e in sorted(children.get(id(span), ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            return (end - start) - covered

        extract = sorted(end - start for name, start, end, _ in self.spans
                         if name == "features.extract_features")
        tail_pct, tail = _tail(extract)
        c = self.counts
        m = {f"{name}.{kind}": value for name in calls
             for kind, value in (("s", total[name]), ("calls", calls[name]))}
        m.update({
            "cli.self_s": sum(self_time(s) for s in self.spans if s[0].startswith("cli.")),
            "features.extract_features.self_s": sum(
                self_time(s) for s in self.spans if s[0] == "features.extract_features"),
            "features.extract_features.calls": calls["features.extract_features"],
            "features.extract_features.p50_ms": 1e3 * statistics.median(extract) if extract else 0.0,
            "features.extract_features.tail_ms": 1e3 * tail,
            "features.extract_features.tail_pct": tail_pct,
            "learn.train.s": sum(end - start for name, start, end, parent in self.spans
                                 if name == "learn.train" and parent is not None
                                 and parent[0].startswith("cli.")),
            "graph.undirected_adjacency.calls_per_graph":
                calls["graph.undirected_adjacency"] / samples,
            "metrics.sweeps_per_graph": sum(calls[f] for f in SWEEP_FUNCTIONS) / samples,
            "metrics.sources_swept": c["metrics.sources_swept"],
            "sbc.instructions": c["sbc.instructions"],
            "ingest.bytes_read": c["ingest.bytes_read"],
            "ingest.bytes_written": c["ingest.bytes_written"],
            "ingest.dropped_calls": c["ingest.dropped_calls"],
            "ingest.failed_files": sum(c[f"{f}.errors"] for f in INGEST_PARSERS)
                + c["sbc.decode.errors"] + c["ingest.document_to_cfg.errors"],
            "learn.rf_tree_nodes": c["learn.rf_tree_nodes"],
        })
        return m


def _tail(durations: list[float]) -> tuple[float, float]:
    n = len(durations)
    for pct in TAIL_PERCENTILES:
        # index of the percentile; samples strictly beyond it must be >= 10
        idx = min(n - 1, int(pct / 100.0 * n))
        if n - idx - 1 >= 10:
            return pct, durations[idx]
    return 100.0, durations[-1] if durations else 0.0


# per-function span names and work counters


def _sweep_hook(tracer, args, kwargs, result):
    tracer.count("metrics.sources_swept", args[0].node_count)


def _dropped_calls_hook(tracer, args, kwargs, result):
    """Calls in the document whose edge is missing from the Cfg ingest built."""
    doc = args[0]
    node = {b.address: i for i, b in enumerate(result.blocks)}
    edges = set(result.edges)
    tracer.count("ingest.dropped_calls",
                 sum(1 for fn in doc.functions for b in fn.blocks for callee in b.calls
                     if (node.get(b.addr), node.get(callee)) not in edges))


def _bytes_read_hook(tracer, args, kwargs, result):
    tracer.count("ingest.bytes_read", len(args[0]))


def _rf_nodes_hook(tracer, args, kwargs, result):
    if result.kind == "rf":
        tracer.count("learn.rf_tree_nodes", sum(_count_tree_nodes(t) for t in result.trees))


_SPECIAL = {
    **{f: {"hook": _sweep_hook} for f in SWEEP_FUNCTIONS},
    **{f: {"hook": _bytes_read_hook} for f in INGEST_PARSERS},
    "ingest.document_to_cfg": {"hook": _dropped_calls_hook},
    "ingest.write_canonical": {
        "hook": lambda t, a, k, r: t.count("ingest.bytes_written", len(r))},
    "sbc.decode": {"hook": lambda t, a, k, r: t.count("sbc.instructions", len(r))},
    "learn.train": {"hook": _rf_nodes_hook},
    "learn.cross_validate": {
        "label": lambda a, k: f"learn.cross_validate.{k.get('kind', a[0] if a else '?')}"},
}
