"""Per-layer spans around the program's public functions, taken from outside.

``Tracer.install`` replaces each listed function, method and the numpy
eigensolvers with a wrapper that opens a span on entry and closes it on exit,
in every ``sqenergy`` module that holds a reference to it. A span's self time
is its duration minus the time its traced children cover. Spans are folded
into per-name totals (calls, self seconds) as they close: the totals stay in
memory until ``report`` is called at the end of the run, and no span is
written while the program runs.

A name that a later version of the program drops or renames is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

# (module, function): the span name is "<module>.<function>".
FUNCTIONS = (
    ("graphs", "parse_graph6"),
    ("graphs", "write_graph6"),
    ("spectral", "eigen_decompose_symmetric"),
    ("spectral", "spectrum"),
    ("spectral", "square_energies"),
    ("spectral", "spectral_split"),
    ("spectral", "graph_inertia"),
    ("oracles", "max_cut"),
    ("oracles", "domination_number"),
    ("oracles", "find_induced_p3"),
    ("partitions", "domination_partition"),
    ("partitions", "degree_class_partition"),
    ("sdp", "verify_min_characterization"),
    ("sdp", "p3_removal_witness"),
)
# Generator functions: the span covers each resumption, not the caller's work
# between items.
GENERATORS = (("graphs", "enumerate_graphs"),)
# (module, class, method, span name)
METHODS = (
    ("graphs", "Graph", "__init__", "graphs.Graph"),
    ("graphs", "Graph", "adjacency_matrix", "graphs.adjacency_matrix"),
    ("harness", "RecordWriter", "write", "harness.RecordWriter.write"),
)
EIGENSOLVERS = ("eigh", "eigvalsh")

# Bound names accepted by `bounds --set`; each gets a `bounds.<name>` span.
BOUND_NAMES = (
    "efgw", "domination", "inertia", "dominating-vertex", "triangle", "ratio",
    "regular", "alon-boppana", "surplus", "pipeline", "energy-wall",
    "conjectures", "sdp-min", "removal",
)


def span_names() -> list[str]:
    """Spans reported with both their calls and their self time."""
    names = [f"{m}.{a}" for m, a in FUNCTIONS + GENERATORS] + [n for *_, n in METHODS]
    return names + [f"numpy.linalg.{a}" for a in EIGENSOLVERS] + ["harness.evaluate_graph"]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "calls"
        units[f"{name}.self_s"] = "s"
    units.update({f"bounds.{b}.self_s": "s" for b in BOUND_NAMES})
    units["harness.records"] = "count"
    for ratio in ("spectral.eigensolves_per_graph", "oracles.max_cut.calls_per_graph",
                  "graphs.write_graph6.calls_per_graph"):
        units[ratio] = "calls/graph"
    units["trace.graphs_per_s"] = "graphs/s"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []

    def _timed(self, name: str, fn: Callable, args: tuple, kwargs: dict, count: bool = True) -> Any:
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._children.pop()
            if count:
                self.calls[name] += 1
            if self._children:
                self._children[-1] += elapsed

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            items = self._timed(name, fn, args, kwargs)
            while True:
                try:
                    item = self._timed(name, next, (items,), {}, count=False)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrap_evaluate_bound(self, fn: Callable) -> Callable:
        def traced(name, *args, **kwargs):
            return self._timed(f"bounds.{name}", fn, (name,) + args, kwargs)

        return traced

    def _wrap_evaluate_graph(self, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            records = self._timed("harness.evaluate_graph", fn, args, kwargs)
            self.counts["harness.records"] += len(records)
            return records

        return traced

    def install(self, package: str = "sqenergy") -> None:
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]

        def replace(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
            owner = sys.modules.get(f"{package}.{module_name}")
            original = getattr(owner, attr, None)
            if original is None:
                return
            wrapped = make(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        for module_name, attr in FUNCTIONS:
            replace(module_name, attr, lambda f, n=f"{module_name}.{attr}": self._wrap(n, f))
        for module_name, attr in GENERATORS:
            replace(module_name, attr, lambda f, n=f"{module_name}.{attr}": self._wrap_generator(n, f))
        replace("harness", "evaluate_bound", self._wrap_evaluate_bound)
        replace("harness", "evaluate_graph", self._wrap_evaluate_graph)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(f"{package}.{module_name}"), cls_name, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self._wrap(name, vars(cls)[attr]))
        for attr in EIGENSOLVERS:
            setattr(np.linalg, attr, self._wrap(f"numpy.linalg.{attr}", getattr(np.linalg, attr)))

    def report(self, rounds: int, graphs_per_round: int) -> dict[str, float]:
        """Calls and self seconds per round; ratios per input graph."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name] / rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
        for bound in BOUND_NAMES:
            out[f"bounds.{bound}.self_s"] = self.self_s[f"bounds.{bound}"] / rounds
        out["harness.records"] = self.counts["harness.records"] / rounds
        per_graph = rounds * graphs_per_round
        eigensolves = sum(self.calls[f"numpy.linalg.{a}"] for a in EIGENSOLVERS)
        out["spectral.eigensolves_per_graph"] = eigensolves / per_graph
        out["oracles.max_cut.calls_per_graph"] = self.calls["oracles.max_cut"] / per_graph
        out["graphs.write_graph6.calls_per_graph"] = self.calls["graphs.write_graph6"] / per_graph
        return out
