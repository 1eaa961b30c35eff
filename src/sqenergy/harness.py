"""Sweep harness: graph sources, per-graph bound evaluation, record sinks,
summaries, and the minimal-counterexample candidate filter.

Records are emitted one JSON object (or CSV row) per (graph, bound) in input
order, so a fixed configuration reproduces byte-identical output; wall time
lives only in the summary, never in the record sink. ``RecordWriter(stream,
fmt)`` encodes each record, alone or in a block, with ``_records_text``; its
CSV columns are a sweep's ``CSV_COLUMNS``, else its first record's sorted keys.

A sweep reads its source in blocks of consecutive graphs. One block function,
``_sweep_block``, evaluates a block and returns its finished record text (JSON
lines, or CSV rows without the header) with a tally of the block: counts,
each bound's first least slack and the violating records. The serial path
and every pool worker call it alike, and the parent only writes the text and
merges the tallies in block order; ``_block_outputs`` decides which blocks
go to a pool. What the selected bounds read of a block is seeded by
``bounds.seed_block``: this module reaches the bounds through their
registry alone and names none of them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, TextIO

import sqenergy  # the bound modules, via the package: each loads on first use

from .errors import BudgetExceeded, ContractViolation, Graph6Error, NumericError
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
    Graph,
    _integer,
    enumerate_graphs,
    is_connected,
    parse_graph6,
    write_graph6,
)
from .spectral import STACK_MAX_ENTRIES


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
            if key in params:
                raise ContractViolation(f"family parameter {key!r} given twice")
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
    ``-`` for graph6 lines on stdin, or a path to a graph6 file. A file is
    opened on the call, so a missing one is refused before any output is
    opened."""
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
            yield None
            yield from graphs_from_graph6_lines(handle)

    # The first step opens the file. A stream dropped unread closes it.
    graphs = _from_file()
    next(graphs)
    return graphs


def graph_fields(index: int, g: Graph) -> dict[str, Any]:
    """The fields that every per-graph record starts with."""
    return {"graph_index": index, "graph6": write_graph6(g), "n": g.n, "m": g.m}


# ---------------------------------------------------------------------------
# Bound evaluation
# ---------------------------------------------------------------------------

_NULL_FIELDS = {"applicable": False, "informational": False,
                "lhs": None, "rhs": None, "slack": None, "holds": None, "witness": None}


def evaluate_bound(name: str, g: Graph) -> list[sqenergy.bounds.BoundVerdict]:
    """The verdicts of one registered bound on one graph. Not inlined:
    ``bench/tracer.py`` wraps it for the per-bound ``bounds.<name>`` spans."""
    return sqenergy.bounds.BOUNDS[name](g)


def evaluate_graph(index: int, g: Graph, names: tuple[str, ...]) -> list[dict[str, Any]]:
    """Evaluate the selected bounds on one graph, whose spectra and shared
    oracle results are computed once for all of them; preconditions that the
    graph does not meet become per-bound 'skipped' records and numeric
    failures per-bound 'error' records, never fatal errors."""
    head = graph_fields(index, g)
    records: list[dict[str, Any]] = []
    for name in names:
        try:
            records += [
                {**head, "name": v.bound_name, "status": "ok", "applicable": v.applicable,
                 "informational": v.informational, "lhs": v.lhs, "rhs": v.rhs,
                 "slack": v.slack, "holds": v.holds, "witness": v.witness, "reason": None}
                for v in evaluate_bound(name, g)
            ]
        except (ContractViolation, BudgetExceeded) as exc:
            records.append({**head, "name": name, "status": "skipped", **_NULL_FIELDS,
                            "reason": str(exc)})
        except NumericError as exc:
            records.append({**head, "name": name, "status": "error", **_NULL_FIELDS,
                            "reason": f"{type(exc).__name__}: {exc}"})
    return records


def evaluate_block(
    names: tuple[str, ...], block: list[tuple[int, Graph]]
) -> Iterator[list[dict[str, Any]]]:
    """The records of consecutive ``(index, graph)`` pairs, one
    ``evaluate_graph`` list per graph, made lazily once ``bounds.seed_block``
    has seeded what the selected bounds read of the block's graphs."""
    sqenergy.bounds.seed_block(names, [g for _, g in block])
    return (evaluate_graph(index, g, names) for index, g in block)


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


def _sorted_json_encoder() -> Callable[[Any], str]:
    """``json.dumps(value, sort_keys=True)`` as one encoder built once: the
    json module's C encoder where it has one, made with the arguments that
    ``json.dumps`` gives it, so that no call builds its own. A failed call
    can leave containers in its circular-reference record; they are dropped,
    so that a later call does not take them for a cycle."""
    generic = json.JSONEncoder(sort_keys=True)
    if c_make_encoder is None:
        return generic.encode
    markers: dict[int, Any] = {}
    encode = c_make_encoder(
        markers, generic.default, encode_basestring_ascii, None, generic.key_separator,
        generic.item_separator, True, False, True,
    )

    def encoded(value: Any) -> str:
        try:
            return "".join(encode(value, 0))
        except BaseException:
            markers.clear()
            raise

    return encoded


# One encoder per process, shared by its writers and the blocks it evaluates.
_encode = _sorted_json_encoder()


def _csv_row(record: dict[str, Any], columns: tuple[str, ...]) -> list[Any]:
    """A record's CSV cells; nested values are JSON-encoded."""
    row = []
    for col in columns:
        value = record.get(col)
        if isinstance(value, (dict, list)):
            value = _encode(value)
        row.append("" if value is None else value)
    return row


def _csv_text(rows: Iterable[Iterable[Any]]) -> str:
    """Rows as CSV lines, header or records: the one CSV dialect, written by
    one ``csv.writer`` into one buffer, emptied at the start of each call so
    that a row that fails to encode leaves nothing behind."""
    _csv_buffer.seek(0)
    _csv_buffer.truncate()
    _csv_writer.writerows(rows)
    return _csv_buffer.getvalue()


_csv_buffer = io.StringIO()
_csv_writer = csv.writer(_csv_buffer, lineterminator="\n")


def _records_text(
    records: Iterable[dict[str, Any]], fmt: str, columns: tuple[str, ...] | None = None
) -> str:
    """Records as JSON lines, or as CSV rows of ``columns`` without a header."""
    if fmt == "json":
        return "".join([_encode(record) + "\n" for record in records])
    return _csv_text([_csv_row(r, columns) for r in records])


class RecordWriter:
    """Writes records to ``stream`` as JSON lines (``fmt`` "json"), each as
    ``json.dumps(value, sort_keys=True)`` writes it, or as CSV rows under one
    header ("csv"). One rule sets the CSV columns: the first keys given to
    ``fix_columns``, in their order, which ``run`` gives ``CSV_COLUMNS`` and
    ``write`` its record's sorted keys."""

    def __init__(self, stream: TextIO, fmt: str = "json"):
        if fmt not in ("json", "csv"):
            raise ContractViolation(f"format must be 'json' or 'csv', got {fmt!r}")
        self.stream = stream
        self.fmt = fmt
        self.columns: tuple[str, ...] | None = None if fmt == "csv" else ()
        self._header_written = False

    def fix_columns(self, keys: Iterable[str]) -> tuple[str, ...]:
        """The CSV columns: the first call's ``keys``, in order; () for JSON."""
        if self.columns is None:
            self.columns = tuple(keys)
        return self.columns

    def write(self, record: dict[str, Any]) -> None:
        columns = self.fix_columns(sorted(record)) if self.columns is None else self.columns
        self.write_text(_records_text([record], self.fmt, columns))

    def write_text(self, text: str) -> None:
        """Write records already in this writer's format and columns (JSON
        lines, or CSV rows without the header), after the CSV header if it
        is not written yet."""
        if text and self.fmt == "csv" and not self._header_written:
            self.stream.write(_csv_text([self.columns]))
            self._header_written = True
        self.stream.write(text)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One sweep: a graph source, a bound selection and the worker count. The
    record sink is passed to ``run`` separately. The worker count and bound
    names are checked on construction; ``run`` resolves a source string
    afresh on each call."""

    source: str | Iterable[Graph]
    bounds: tuple[str, ...]
    jobs: int = 1

    def __post_init__(self):
        self.jobs = _integer(self.jobs, "jobs")
        if self.jobs < 1:
            raise ContractViolation(f"jobs must be >= 1, got {self.jobs}")
        if "all" in self.bounds and self.bounds != ("all",):
            raise ContractViolation("bound 'all' must be given alone")
        names = self.bound_names()
        known = sqenergy.bounds.ALL_BOUND_NAMES
        for i, name in enumerate(names):
            if name not in known:
                raise ContractViolation(f"unknown bound {name!r}; known: {sorted(known)}")
            if name in names[:i]:
                raise ContractViolation(f"bound {name!r} given twice")

    def bound_names(self) -> tuple[str, ...]:
        if self.bounds == ("all",):
            return sqenergy.bounds.ALL_BOUND_NAMES
        return self.bounds


@dataclass
class RunSummary:
    graphs_processed: int = 0
    records_written: int = 0
    skipped: int = 0
    errors: int = 0
    violations: list[dict[str, Any]] = field(default_factory=list)
    minima: dict[str, dict[str, Any]] = field(default_factory=dict)
    wall_time: float = 0.0

    def count(self, record: dict[str, Any]) -> None:
        """Tally one record that follows every record counted so far."""
        self.records_written += 1
        if record["status"] == "skipped":
            self.skipped += 1
        elif record["status"] == "error":
            self.errors += 1
        elif not record["informational"] and record["applicable"]:
            self._least(record["name"], {
                "slack": record["slack"],
                "graph6": record["graph6"],
                "graph_index": record["graph_index"],
            })
            if not record["holds"]:
                self.violations.append(record)

    def merge(self, later: RunSummary) -> None:
        """Add the tally of records that follow every record counted so far."""
        self.graphs_processed += later.graphs_processed
        self.records_written += later.records_written
        self.skipped += later.skipped
        self.errors += later.errors
        self.violations += later.violations
        for name, entry in later.minima.items():
            self._least(name, entry)

    def _least(self, name: str, entry: dict[str, Any]) -> None:
        # Strictly less: the first of equal slacks stays.
        least = self.minima.get(name)
        if least is None or entry["slack"] < least["slack"]:
            self.minima[name] = entry


def _sweep_block(
    names: tuple[str, ...],
    fmt: str | None,
    columns: tuple[str, ...] | None,
    block: list[tuple[int, Graph]],
) -> tuple[str, RunSummary]:
    """The record text of one block in ``fmt`` (empty for None) and its
    tally. The serial path and each pool worker call this alike. Each
    graph's records are encoded as they are made, so that only one graph's
    records are held at a time."""
    tally = RunSummary()
    texts: list[str] = []
    for graph_records in evaluate_block(names, block):
        tally.graphs_processed += 1
        for record in graph_records:
            tally.count(record)
        if fmt:
            texts.append(_records_text(graph_records, fmt, columns))
    return "".join(texts), tally


def _pool_start_s(workers: int) -> float:
    """About how long a pool of ``workers`` takes to start and return a
    first result: measured at 9 ms a worker with fork, and 0.2-0.35 s for
    one or two workers with forkserver or spawn, whose workers import
    numpy afresh (Python 3.11, 2 CPUs)."""
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True)
    if method is None:
        method = multiprocessing.get_all_start_methods()[0]  # the platform's default
    return workers * (0.01 if method == "fork" else 0.15)


def _block_outputs(
    work: Callable[[list[tuple[int, Graph]]], tuple[str, RunSummary]],
    blocks: Iterator[list[tuple[int, Graph]]],
    jobs: int,
) -> Iterator[tuple[str, RunSummary]]:
    """``work`` of each block, in block order. Blocks run in-process until
    they have taken as long as a pool of ``jobs`` workers takes to start,
    so a sweep too short to repay a pool never starts one, and one that
    does pays at most twice the start-up. The next blocks, up to ``jobs``,
    then go to a pool of one worker for each, if there are two or more; at
    most two blocks per worker are in flight, so the source is read no
    further ahead of the output than that. The pool is shut down and joined
    when the outputs end, fail or are closed.

    The first block and a lone block after it run in-process, as the start-up
    is never 0, so with more than one job the first three blocks are read
    before the first runs, and only a sweep with a third imports
    ``multiprocessing``; ``concurrent.futures`` when the pool starts."""
    start_s = math.inf
    if jobs > 1:
        first = list(islice(blocks, 3))
        blocks = chain(first, blocks)
        if len(first) == 3:
            start_s = _pool_start_s(jobs)
    in_process_s = 0.0
    for block in blocks:
        if in_process_s >= start_s:
            break
        began = time.perf_counter()
        output = work(block)
        in_process_s += time.perf_counter() - began
        yield output
    else:
        return
    ahead = [block, *islice(blocks, jobs - 1)]
    if len(ahead) == 1:
        yield work(block)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=len(ahead))
    try:
        pending = deque()
        for block in chain(ahead, blocks):
            pending.append(pool.submit(work, block))
            if len(pending) == 2 * len(ahead):
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def run(config: RunConfig, sink: RecordWriter | None = None) -> RunSummary:
    """Evaluate the configured bounds on every graph of the source, write one
    record per (graph, bound) to the sink in input order, and aggregate the
    per-bound minimum slack and any violations. A malformed graph6 line in
    the source raises its ``Graph6Error`` after the records of the graphs
    before it are written, whatever the worker count."""
    start = time.monotonic()
    names = config.bound_names()
    source = config.source
    graphs = resolve_source(source) if isinstance(source, str) else source
    # Graphs are evaluated in blocks of consecutive graphs whose adjacency
    # matrices, each counted as at least 8 x 8, hold at most
    # STACK_MAX_ENTRIES entries (so at most 64 graphs), so the graphs of one
    # vertex count in a block share one solver call. An error raised by the
    # source ends the blocks and is raised after the blocks already read are
    # written, as a pool may have read it ahead of their records.
    source_error: list[Graph6Error] = []

    def blocks() -> Iterator[list[tuple[int, Graph]]]:
        block: list[tuple[int, Graph]] = []
        entries = 0
        try:
            for i, g in enumerate(graphs):
                size = max(g.n, 8) ** 2
                if block and entries + size > STACK_MAX_ENTRIES:
                    yield block
                    block, entries = [], 0
                block.append((i, g))
                entries += size
        except Graph6Error as exc:
            source_error.append(exc)
        if block:
            yield block

    fmt = columns = None
    if sink is not None:
        fmt, columns = sink.fmt, sink.fix_columns(CSV_COLUMNS)  # every sweep record's keys
    summary = RunSummary()
    work = partial(_sweep_block, names, fmt, columns)
    with contextlib.closing(_block_outputs(work, blocks(), config.jobs)) as outputs:
        for text, tally in outputs:
            if sink is not None:
                sink.write_text(text)
            summary.merge(tally)
    if source_error:
        raise source_error[0]
    summary.wall_time = time.monotonic() - start
    return summary


# ---------------------------------------------------------------------------
# Minimal-counterexample candidate filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterOutcome:
    survivors: tuple[Graph, ...]
    rejection_counts: dict[str, int]


def filter_minimal_counterexample_candidates(graphs: Iterable[Graph]) -> FilterOutcome:
    """Keep connected graphs on which every induced 3-vertex path contains a
    disconnecting vertex and every bipartite subset with at least |U| edges
    disconnects the rest on removal; any minimal counterexample to the
    (n - 1)-bound must pass both."""
    survivors: list[Graph] = []
    counts = {"disconnected": 0, "p3-cut-vertex": 0, "bipartite-removal": 0}
    for g in graphs:
        if not is_connected(g):
            counts["disconnected"] += 1
            continue
        if not sqenergy.oracles.check_p3_cut_vertex_property(g):
            counts["p3-cut-vertex"] += 1
            continue
        if not sqenergy.oracles.check_bipartite_removal_property(g):
            counts["bipartite-removal"] += 1
            continue
        survivors.append(g)
    return FilterOutcome(tuple(survivors), counts)
