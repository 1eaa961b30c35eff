"""Sweep harness: graph sources, per-graph bound evaluation, record sinks,
summaries, and the minimal-counterexample candidate filter.

Records are emitted one JSON object (or CSV row) per (graph, bound) in input
order, so a fixed configuration reproduces byte-identical output; wall time
lives only in the summary, never in the record sink.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, TextIO

from .bounds import ALL_BOUND_NAMES, BOUNDS, BoundVerdict
from .context import GraphContext
from .errors import BudgetExceeded, ContractViolation, Graph6Error
from .families import (
    complete,
    cycle,
    cycle_with_triangles,
    gq_collinearity_graph,
    join_complement,
    path,
    petersen,
    star,
    star_plus_edge,
    unicyclic_glue,
)
from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    enumerate_graphs,
    is_connected,
    parse_graph6,
    write_graph6,
)
from .oracles import (
    SEARCH_BUDGET_N,
    check_bipartite_removal_property,
    check_p3_cut_vertex_property,
)


# ---------------------------------------------------------------------------
# Graph sources
# ---------------------------------------------------------------------------

def _int_param(params: dict[str, Any], key: str) -> int:
    try:
        return int(params[key])
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"parameter {key}={params[key]!r} is not an integer") from exc


def _graph6_param(params: dict[str, Any], key: str) -> Graph:
    return parse_graph6(str(params[key]))


ParamParser = Callable[[dict[str, Any], str], Any]

# Family name -> (constructor, its parameters in call order with their parsers).
FAMILIES: dict[str, tuple[Callable[..., Graph], dict[str, ParamParser]]] = {
    "complete": (complete, {"n": _int_param}),
    "star": (star, {"n": _int_param}),
    "path": (path, {"n": _int_param}),
    "cycle": (cycle, {"n": _int_param}),
    "u_n3": (star_plus_edge, {"n": _int_param}),
    "c_k3": (cycle_with_triangles, {"k": _int_param}),
    "petersen": (petersen, {}),
    "gq": (gq_collinearity_graph, {"q": _int_param}),
    "join_complement": (join_complement, {"h": _graph6_param}),
    "unicyclic_glue": (unicyclic_glue, {
        "tree": _graph6_param,
        "cycle_len": lambda params, key: cycle(_int_param(params, key)),
        "attach": _int_param,
    }),
}


def build_family(name: str, params: dict[str, Any]) -> Graph:
    entry = FAMILIES.get(name)
    if entry is None:
        raise ContractViolation(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    constructor, parsers = entry
    expected = tuple(parsers)
    missing = [p for p in expected if p not in params]
    extra = [p for p in params if p not in expected]
    if missing or extra:
        raise ContractViolation(
            f"family {name!r} takes parameters {expected}; missing {missing}, extra {extra}"
        )
    return constructor(*(parse(params, key) for key, parse in parsers.items()))


def parse_family_spec(spec: str) -> Graph:
    """Build a family graph from ``family:<name>[:key=value,...]``."""
    pieces = spec.split(":", 2)
    if pieces[0] != "family" or len(pieces) < 2:
        raise ContractViolation(f"not a family spec: {spec!r}")
    name = pieces[1]
    params: dict[str, Any] = {}
    if len(pieces) == 3 and pieces[2]:
        for item in pieces[2].split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ContractViolation(f"malformed family parameter {item!r}")
            params[key] = value
    return build_family(name, params)


def graphs_from_graph6_lines(lines: Iterable[bytes]) -> Iterator[Graph]:
    """Parse graph6 lines read in binary; blank lines are skipped. Bytes are
    decoded as latin-1, so a non-ASCII byte reaches the graph6 range check,
    and every parse error names its 1-based line number."""
    for number, raw in enumerate(lines, 1):
        line = raw.strip().decode("latin-1")
        if line:
            try:
                yield parse_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"line {number}: {exc}") from exc


def resolve_source(source: str) -> Iterator[Graph]:
    """Resolve a CLI source: ``family:...``, ``enumerate:<n>[:connected]``,
    ``-`` for graph6 lines on stdin, or a path to a graph6 file."""
    if source.startswith("family:"):
        return iter([parse_family_spec(source)])
    if source.startswith("enumerate:"):
        pieces = source.split(":")
        try:
            n = int(pieces[1])
        except ValueError as exc:
            raise ContractViolation(f"malformed enumerate source {source!r}") from exc
        if pieces[2:] not in ([], ["connected"]):
            raise ContractViolation(f"malformed enumerate source {source!r}")
        return enumerate_graphs(n, connected_only=len(pieces) == 3)
    if source == "-":
        return graphs_from_graph6_lines(sys.stdin.buffer)

    def _from_file() -> Iterator[Graph]:
        with open(source, "rb") as handle:
            yield from graphs_from_graph6_lines(handle)

    return _from_file()


def graph6_or_none(g: Graph) -> str | None:
    return write_graph6(g) if g.n <= GRAPH6_MAX_N else None


def graph_fields(index: int, g: Graph) -> dict[str, Any]:
    """The fields that every per-graph record starts with."""
    return {"graph_index": index, "graph6": graph6_or_none(g), "n": g.n, "m": g.m}


# ---------------------------------------------------------------------------
# Bound evaluation
# ---------------------------------------------------------------------------

_SKIPPED = {"status": "skipped", "applicable": False, "informational": False,
            "lhs": None, "rhs": None, "slack": None, "holds": None, "witness": None}


def evaluate_bound(name: str, ctx: GraphContext) -> list[BoundVerdict]:
    """The verdicts of one registered bound on one graph's context."""
    return BOUNDS[name](ctx)


def evaluate_graph(task: tuple[int, Graph, tuple[str, ...], int, int]) -> list[dict[str, Any]]:
    """Evaluate the selected bounds on one graph, sharing one context among
    them; preconditions that the graph does not meet become per-bound
    'skipped' records, never fatal errors."""
    index, g, names, budget_n, seed = task
    ctx = GraphContext(g, budget_n, seed + index)
    head = graph_fields(index, g)
    records: list[dict[str, Any]] = []
    for name in names:
        try:
            records += [
                {**head, "name": v.bound_name, "status": "ok", "applicable": v.applicable,
                 "informational": v.informational, "lhs": v.lhs, "rhs": v.rhs,
                 "slack": v.slack, "holds": v.holds, "witness": v.witness, "reason": None}
                for v in evaluate_bound(name, ctx)
            ]
        except (ContractViolation, BudgetExceeded) as exc:
            records.append({**head, "name": name, **_SKIPPED, "reason": str(exc)})
    return records


# ---------------------------------------------------------------------------
# Record sinks
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "graph_index",
    "graph6",
    "n",
    "m",
    "name",
    "status",
    "applicable",
    "informational",
    "lhs",
    "rhs",
    "slack",
    "holds",
    "witness",
    "reason",
)


class RecordWriter:
    """Writes records as JSON lines or CSV rows.

    CSV columns default to the sorted key set of the first record; pass
    ``columns`` for a fixed layout. Nested values are JSON-encoded in cells.
    """

    def __init__(self, stream: TextIO, fmt: str = "json", columns: tuple[str, ...] | None = None):
        if fmt not in ("json", "csv"):
            raise ContractViolation(f"format must be 'json' or 'csv', got {fmt!r}")
        self.stream = stream
        self.fmt = fmt
        self.columns = columns
        self._csv = csv.writer(stream, lineterminator="\n") if fmt == "csv" else None
        self._header_written = False

    def write(self, record: dict[str, Any]) -> None:
        if self.fmt == "json":
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")
            return
        if not self._header_written:
            if self.columns is None:
                self.columns = tuple(sorted(record))
            self._csv.writerow(self.columns)
            self._header_written = True
        row = []
        for col in self.columns:
            value = record.get(col)
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            row.append("" if value is None else value)
        self._csv.writerow(row)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One sweep: a graph source, a bound selection, and output options.

    ``out`` is the record sink path ('-' or None for stdout) used by
    ``run_to_path``; ``run`` itself accepts any prebuilt writer.
    """

    source: str | Iterable[Graph]
    bounds: tuple[str, ...]
    out: str | None = None
    fmt: str = "json"
    seed: int = 0
    jobs: int = 1
    budget_n: int = SEARCH_BUDGET_N

    def bound_names(self) -> tuple[str, ...]:
        if self.bounds == ("all",):
            return ALL_BOUND_NAMES
        return self.bounds


@dataclass
class RunSummary:
    graphs_processed: int = 0
    records_written: int = 0
    skipped: int = 0
    violations: list[dict[str, Any]] = field(default_factory=list)
    minima: dict[str, dict[str, Any]] = field(default_factory=dict)
    wall_time: float = 0.0


def run(config: RunConfig, sink: RecordWriter | None = None) -> RunSummary:
    """Evaluate the configured bounds on every graph of the source, write one
    record per (graph, bound) to the sink in input order, and aggregate the
    per-bound minimum slack and any violations."""
    start = time.monotonic()
    if config.jobs < 1:
        raise ContractViolation(f"jobs must be >= 1, got {config.jobs}")
    names = config.bound_names()
    for name in names:
        if name not in ALL_BOUND_NAMES:
            raise ContractViolation(f"unknown bound {name!r}; known: {sorted(ALL_BOUND_NAMES)}")
    source = config.source
    graphs = resolve_source(source) if isinstance(source, str) else source
    tasks = ((i, g, names, config.budget_n, config.seed) for i, g in enumerate(graphs))
    summary = RunSummary()

    def consume(record_lists: Iterable[list[dict[str, Any]]]) -> None:
        for records in record_lists:
            summary.graphs_processed += 1
            for record in records:
                if sink is not None:
                    sink.write(record)
                summary.records_written += 1
                if record["status"] == "skipped":
                    summary.skipped += 1
                    continue
                name = record["name"]
                if not record["informational"] and record["applicable"]:
                    slack = record["slack"]
                    entry = summary.minima.get(name)
                    if entry is None or slack < entry["slack"]:
                        summary.minima[name] = {
                            "slack": slack,
                            "graph6": record["graph6"],
                            "graph_index": record["graph_index"],
                        }
                    if not record["holds"]:
                        summary.violations.append(record)

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            consume(pool.map(evaluate_graph, tasks, chunksize=4))
    else:
        consume(map(evaluate_graph, tasks))
    summary.wall_time = time.monotonic() - start
    return summary


@contextlib.contextmanager
def open_out(path: str | None) -> Iterator[TextIO]:
    """The record stream for an output path: stdout for None or '-'."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii", newline="") as handle:
            yield handle


def run_to_path(config: RunConfig) -> RunSummary:
    """Run a sweep writing records to ``config.out`` (stdout when '-')."""
    with open_out(config.out) as stream:
        return run(config, RecordWriter(stream, config.fmt, CSV_COLUMNS))


# ---------------------------------------------------------------------------
# Minimal-counterexample candidate filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterOutcome:
    survivors: tuple[Graph, ...]
    rejection_counts: dict[str, int]


def filter_minimal_counterexample_candidates(
    graphs: Iterable[Graph],
    max_subset_size: int | None = None,
    budget_n: int = 16,
) -> FilterOutcome:
    """Keep connected graphs on which every induced 3-vertex path contains a
    disconnecting vertex and every bipartite subset with at least |U| edges
    disconnects the rest on removal; any minimal counterexample to the
    (n - 1)-bound must pass both."""
    survivors: list[Graph] = []
    counts = {"disconnected": 0, "p3-cut-vertex": 0, "bipartite-removal": 0}
    for g in graphs:
        if g.n > budget_n:
            raise BudgetExceeded(f"filter budget n <= {budget_n}, got n={g.n}")
        if not is_connected(g):
            counts["disconnected"] += 1
            continue
        if not check_p3_cut_vertex_property(g).holds:
            counts["p3-cut-vertex"] += 1
            continue
        if not check_bipartite_removal_property(g, max_subset_size).holds:
            counts["bipartite-removal"] += 1
            continue
        survivors.append(g)
    return FilterOutcome(tuple(survivors), counts)
