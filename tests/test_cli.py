"""CLI subcommands, the sweep harness, record formats, and determinism."""

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _gen import gnp
import sqenergy.bounds as bounds
import sqenergy.harness as harness
import sqenergy.sdp as sdp
import sqenergy.spectral as spectral
from sqenergy.cli import main
from sqenergy.errors import BudgetExceeded, ContractViolation, NumericError
from sqenergy.families import cycle, path, petersen
from sqenergy.graphs import parse_graph6, write_graph6
from sqenergy.harness import (
    RecordWriter,
    RunConfig,
    build_family,
    filter_minimal_counterexample_candidates,
    parse_family_spec,
    resolve_source,
    run,
)
from sqenergy.oracles import find_induced_p3


def _read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_family_specs():
    assert parse_family_spec("family:complete:n=4").m == 6
    assert parse_family_spec("family:c_k3:k=5").n == 15
    assert parse_family_spec("family:petersen").n == 10
    assert parse_family_spec("family:u_n3:n=4").m == 4
    h6 = write_graph6(petersen())
    assert parse_family_spec(f"family:join_complement:h={h6}").n == 20
    tree6 = write_graph6(parse_graph6("Bg"))
    g = parse_family_spec(f"family:unicyclic_glue:tree={tree6},cycle_len=5,attach=0")
    assert g.n == 7 and g.m == 7
    with pytest.raises(ContractViolation):
        parse_family_spec("family:nosuch:n=3")
    with pytest.raises(ContractViolation):
        parse_family_spec("family:complete:k=3")
    with pytest.raises(ContractViolation):
        build_family("cycle", {"n": 3, "extra": 1})
    with pytest.raises(ContractViolation, match="'n' given twice"):
        parse_family_spec("family:complete:n=5,n=6")
    with pytest.raises(ContractViolation, match="not a family spec: 'complete:n=3'"):
        parse_family_spec("complete:n=3")


def test_resolve_source(tmp_path):
    graphs = list(resolve_source("enumerate:4:connected"))
    assert len(graphs) == 6
    path6 = tmp_path / "graphs.g6"
    path6.write_text("Bw\nBg\n\n")
    assert [g.n for g in resolve_source(str(path6))] == [3, 3]
    assert next(resolve_source("family:cycle:n=5")).n == 5


def test_enumerate_command(tmp_path, capsys):
    out = tmp_path / "n5.g6"
    assert main(["enumerate", "--n", "5", "--connected", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    assert len(set(lines)) == 21
    for line in lines:
        parse_graph6(line)


@pytest.mark.parametrize(
    "n, flags, digest",
    [
        ("7", [], "e3eee2a6b5beecaa47bee1b0d67a6a982c0e5e2c0067993d735036d3c9d6512f"),
        ("7", ["--connected"], "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93"),
        ("8", [], "e1aed63b07ff72557885ee1244044d6ad30ba1b182f74cc7bcb7a02da8d34867"),
        ("8", ["--connected"], "370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145"),
    ],
    ids=["all", "connected", "n8-all", "n8-connected"],
)
def test_enumeration_output_is_pinned(n, flags, digest, capsys):
    # Integers only reach the output, so these digests hold on every platform;
    # a faster generator must keep every byte.
    assert main(["enumerate", "--n", n] + flags) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


_REFUSED = [
    (["enumerate", "--n", "9"], "error: enumeration"),
    (["enumerate", "--n", "0"], "error: enumeration"),
    (["bounds", "enumerate:9", "--set", "efgw"], "error: enumeration"),
    (["bounds", "family:petersen", "--set", "nosuch"], "error: unknown bound 'nosuch'"),
    (["bounds", "family:petersen", "--set", "efgw,efgw"], "error: bound 'efgw' given twice"),
    (["bounds", "family:petersen", "--set", "efgw", "--jobs", "0"], "error: jobs must be >= 1"),
    (["bounds", "nosuch.g6", "--set", "efgw"], "i/o error: "),
    (["spectrum", "nosuch.g6"], "i/o error: "),
    (["hunt", "--n", "9"], "error: enumeration"),
    (["hunt", "--n", "0"], "error: enumeration"),
    (["bounds", "family:nosuch", "--set", "efgw"], "error: unknown family 'nosuch'"),
    (["verify", "--n", "9"], "error: enumeration"),
    (["decompose", "nosuch.g6", "--method", "domination"], "i/o error: "),
    (["bounds", "family:petersen", "--set", "all,efgw"], "error: bound 'all' must be given alone"),
    (["bounds", "family:petersen", "--set", "efgw,all"], "error: bound 'all' must be given alone"),
    (["bounds", "family:complete:n=x", "--set", "efgw"], "error: parameter n='x' is not an integer"),
    (["bounds", "family:complete:n", "--set", "efgw"], "error: malformed family parameter 'n'"),
]


@pytest.mark.parametrize(
    "argv, err", _REFUSED, ids=[f"argv{i}" for i in range(len(_REFUSED))]
)
def test_refused_enumeration_size_keeps_the_out_file(argv, err, tmp_path, monkeypatch, capsys):
    # Each refusal comes before the output file is opened and truncated.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "keep.txt"
    out.write_bytes(b"keep\n")
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(err)
    assert out.read_bytes() == b"keep\n"


def test_a_graph_above_the_dense_cap_is_refused_before_its_matrix(tmp_path, monkeypatch, capsys):
    # With the cap at 10 vertices, C11's sweep writes a `skipped` record for
    # every bound (C11 has no dominating vertex) and makes no eigensolve;
    # a per-graph subcommand stops with its graph's error line.
    monkeypatch.setattr("sqenergy.graphs.DENSE_MAX_N", 10)
    solves = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mats: solves.append(mats.shape) or eigh(mats))
    out = tmp_path / "records.jsonl"
    argv = ["bounds", "family:cycle:n=11", "--set", "all", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 0
    records = _read_jsonl(out)
    assert [r["name"] for r in records] == list(bounds.ALL_BOUND_NAMES)
    assert {r["status"] for r in records} == {"skipped"}
    refused = "dense matrix supported for n <= 10, got n=11"
    assert {r["reason"] for r in records} == {refused, "no dominating vertex"}
    assert solves == []
    capsys.readouterr()
    assert main(["spectrum", "family:cycle:n=11"]) == 1
    assert capsys.readouterr().err == f"error: graph 0 ({write_graph6(cycle(11))}): {refused}\n"


def test_spectrum_and_energy_commands(capsys):
    assert main(["spectrum", "family:complete:n=4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["eigenvalues"][0] == pytest.approx(3.0)
    assert main(["energy", "family:c_k3:k=5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["s_minus"] == pytest.approx(15.7639, abs=1e-3)


def test_bounds_command_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(
        ["bounds", "enumerate:5:connected", "--set", "efgw,inertia", "--out", str(out)]
    )
    assert code == 0
    records = _read_jsonl(out)
    assert len(records) == 42
    assert all(r["status"] == "ok" and r["holds"] for r in records)
    summary = capsys.readouterr().err
    assert "violations: 0" in summary


def test_bounds_skip_records(tmp_path):
    out = tmp_path / "records.jsonl"
    # 2K2 is disconnected: the efgw precondition fails and must be skipped
    path6 = tmp_path / "in.g6"
    path6.write_text("C`\n")
    assert main(["bounds", str(path6), "--set", "efgw,domination", "--out", str(out)]) == 0
    records = _read_jsonl(out)
    by_name = {r["name"]: r for r in records}
    assert by_name["efgw"]["status"] == "skipped"
    assert "connected" in by_name["efgw"]["reason"]
    assert by_name["domination"]["status"] == "ok" and by_name["domination"]["holds"]


def test_verify_command(capsys):
    # verify is the efgw sweep of the connected graphs, byte for byte.
    def summary_without_wall(err):
        return re.sub(r"  wall: [0-9.]+s", "", err)

    assert main(["verify", "--n", "6"]) == 0
    verify = capsys.readouterr()
    assert main(["bounds", "enumerate:6:connected", "--set", "efgw"]) == 0
    sweep = capsys.readouterr()
    assert verify.out == sweep.out and verify.out.count("\n") == 112
    assert summary_without_wall(verify.err) == summary_without_wall(sweep.err)


def test_hunt_command(tmp_path, capsys):
    out = tmp_path / "hunt.jsonl"
    assert main(["hunt", "--n", "5", "--out", str(out)]) == 0
    survivors = _read_jsonl(out)
    outcome = filter_minimal_counterexample_candidates(
        resolve_source("enumerate:5:connected")
    )
    assert len(survivors) == len(outcome.survivors)
    rejected = sum(outcome.rejection_counts.values())
    assert rejected + len(survivors) == 21
    assert all(r["efgw_slack"] >= -1e-6 for r in survivors)


def test_hunt_rejects_cycle():
    outcome = filter_minimal_counterexample_candidates([cycle(5)])
    assert not outcome.survivors
    assert outcome.rejection_counts["p3-cut-vertex"] == 1


def test_hunt_enumerations_fit_the_exact_subset_scan():
    # hunt reads only enumerations, so its subset scan is always exact and
    # uncapped.
    from sqenergy.graphs import CANONICAL_MAX_N
    from sqenergy.oracles import SUBSET_PROPERTY_BUDGET_N

    assert CANONICAL_MAX_N <= SUBSET_PROPERTY_BUDGET_N


def test_filter_refuses_graphs_past_the_subset_scan_budget():
    # The subset scan's own budget, n <= 16, is the only size limit.
    with pytest.raises(BudgetExceeded, match=r"full subset scan limited to n <= 16$"):
        filter_minimal_counterexample_candidates([path(20)])


def test_hunt_counts_every_rejection_kind(capsys):
    assert main(["hunt", "--n", "7"]) == 0
    assert capsys.readouterr().err == (
        "survivors: 103  rejected: "
        "{'disconnected': 0, 'p3-cut-vertex': 736, 'bipartite-removal': 14}\n"
    )
    outcome = filter_minimal_counterexample_candidates([parse_graph6("C`")])  # 2K2
    assert outcome.rejection_counts == {
        "disconnected": 1, "p3-cut-vertex": 0, "bipartite-removal": 0,
    }


def test_filter_keeps_complete_graph():
    from sqenergy.families import complete

    outcome = filter_minimal_counterexample_candidates([complete(4)])
    assert len(outcome.survivors) == 1  # no induced 3-path, nothing to reject


def test_summary_minima_reevaluate(tmp_path):
    from sqenergy.bounds import bound_efgw

    config = RunConfig(source="enumerate:6:connected", bounds=("efgw",))
    summary = run(config)
    entry = summary.minima["efgw"]
    g = parse_graph6(entry["graph6"])
    verdict = bound_efgw(g)
    assert verdict.slack == pytest.approx(entry["slack"], abs=1e-8)


def test_a_string_source_config_runs_more_than_once():
    config = RunConfig("enumerate:5:connected", ("efgw",))
    first, second = run(config), run(config)
    assert first.graphs_processed == second.graphs_processed == 21
    first.wall_time = second.wall_time = 0.0
    assert first == second


def test_decompose_command(capsys):
    assert main(["decompose", "--method", "star-clique", "family:path:n=4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["parts"] == [[0, 1], [2, 3]]
    assert record["holds"]
    assert main(["decompose", "--method", "domination", "family:petersen"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["parts"] == [[0, 7, 8, 9], [1, 5, 6], [2, 3, 4]]  # gamma = 3
    assert record["holds"]


def test_a_per_graph_error_names_its_graph(monkeypatch, capsys):
    # K2, then the one-vertex graph, which has no star-clique partition.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"A_\n@\n")))
    assert main(["decompose", "--method", "star-clique", "-"]) == 1
    out, err = capsys.readouterr()
    assert [json.loads(line)["graph6"] for line in out.splitlines()] == ["A_"]
    assert err == "error: graph 1 (@): isolated vertex 0\n"


def test_gq_command(capsys):
    assert main(["gq", "--q", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 27 and record["k"] == 10
    assert record["spectrum_deviation"] < 1e-8
    assert record["s_plus"] == pytest.approx(120.0, abs=1e-6)


def test_csv_format(tmp_path):
    out = tmp_path / "records.csv"
    assert main(["bounds", "enumerate:4:connected", "--set", "efgw", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("graph_index,graph6,")
    assert len(lines) == 7


def test_per_graph_csv_takes_its_columns_from_the_first_record(capsys):
    assert main(["spectrum", "family:cycle:n=3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "eigenvalues,graph6,graph_index,m,n,residual_bound"
    (row,) = csv.DictReader(io.StringIO(out))
    assert (row["graph6"], row["graph_index"], row["m"], row["n"]) == ("Bw", "0", "3", "3")
    assert json.loads(row["eigenvalues"]) == pytest.approx([2.0, -1.0, -1.0])


def test_a_library_csv_sweep_writes_the_clis_columns(tmp_path):
    # A writer takes no columns: a sweep's are CSV_COLUMNS, whoever runs it.
    stream = io.StringIO()
    run(RunConfig("family:petersen", ("efgw",)), RecordWriter(stream, "csv"))
    out = tmp_path / "cli.csv"
    assert main(["bounds", "family:petersen", "--set", "efgw", "--format", "csv", "--out", str(out)]) == 0
    assert stream.getvalue().splitlines()[0] == (
        "graph_index,graph6,n,m,name,status,applicable,informational,lhs,rhs,slack,holds,"
        "witness,reason"
    )
    assert stream.getvalue().encode() == out.read_bytes()


def test_csv_parallel_matches_serial(tmp_path):
    base = ["bounds", "enumerate:5:connected", "--set", "all", "--format", "csv"]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(base + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert serial.read_text().startswith("graph_index,graph6,n,m,name,status,")


def test_byte_identical_reruns(tmp_path):
    args = ["bounds", "enumerate:5:connected", "--set", "efgw,surplus,sdp-min"]
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parallel_matches_serial(tmp_path):
    base = ["bounds", "enumerate:5:connected", "--set", "efgw,domination"]
    serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    assert main(base + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_default_jobs_write_the_serial_records(fmt, tmp_path):
    base = ["bounds", "enumerate:7:connected", "--set", "all", "--format", fmt]
    serial, default = tmp_path / "serial", tmp_path / "default"
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base + ["--out", str(default)]) == 0
    assert serial.read_bytes() == default.read_bytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2", "default"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_empty_source_writes_nothing(fmt, jobs, tmp_path):
    empty, out = tmp_path / "empty.g6", tmp_path / "out"
    empty.write_bytes(b"")
    argv = ["bounds", str(empty), "--set", "efgw", "--format", fmt, *_jobs_flag(jobs)]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == b""


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


@pytest.fixture
def pool_at_once(monkeypatch):
    """A sweep with more than one job hands its blocks to a pool from the
    first, however short the sweep."""
    monkeypatch.setattr(harness, "_pool_start_s", lambda workers: 0.0)


@pytest.mark.parametrize("jobs", ["2", "default"])
def test_a_one_block_source_runs_in_process(jobs, tmp_path, monkeypatch, pool_at_once):
    base = ["bounds", "family:petersen", "--set", "all"]
    serial, got = tmp_path / "serial", tmp_path / "got"
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    assert main(base + [*_jobs_flag(jobs), "--out", str(got)]) == 0
    assert serial.read_bytes() == got.read_bytes()


def test_the_default_worker_count_is_the_usable_cpus(tmp_path, monkeypatch, pool_at_once):
    base = ["bounds", "enumerate:7:connected", "--set", "efgw"]
    serial, got = tmp_path / "serial", tmp_path / "got"
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(AssertionError, match="^a worker pool was started$"):
        main(base + ["--out", str(got)])
    # On one usable CPU the default runs in-process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(base + ["--out", str(got)]) == 0
    assert serial.read_bytes() == got.read_bytes()
    # Where the platform cannot say which CPUs are usable, the CPU count
    # decides, and an unknown count means one.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert main(base + ["--out", str(got)]) == 0
    assert serial.read_bytes() == got.read_bytes()


def test_a_pool_reads_at_most_two_blocks_per_worker_ahead_of_the_output(pool_at_once):
    graphs = list(resolve_source("enumerate:7:connected"))
    handed_out = 0

    def source():
        nonlocal handed_out
        for g in graphs:
            handed_out += 1
            yield g

    class FirstWriteCounts(io.StringIO):
        read_before_first_write = None

        def write(self, text):
            if self.read_before_first_write is None:
                self.read_before_first_write = handed_out
            return super().write(text)

    jobs = 2
    stream, serial = FirstWriteCounts(), io.StringIO()
    run(RunConfig(source(), ("efgw",), jobs), RecordWriter(stream))
    run(RunConfig(graphs, ("efgw",), 1), RecordWriter(serial))
    assert handed_out == len(graphs) == 853
    assert stream.read_before_first_write <= (2 * jobs + 1) * 64
    assert stream.getvalue() == serial.getvalue()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_worker_exception_ends_the_sweep_after_the_blocks_before_it(jobs, pool_at_once):
    # The object in the second block is no graph, so evaluating it raises;
    # a third block follows, as a pool takes at least three.
    graphs = list(resolve_source("enumerate:7:connected"))[:160]
    want = io.StringIO()
    run(RunConfig(graphs[:64], ("efgw",), 1), RecordWriter(want))
    got = io.StringIO()
    source = graphs[:64] + [SimpleNamespace(n=7)] + graphs[64:]
    with pytest.raises(AttributeError):
        run(RunConfig(iter(source), ("efgw",), jobs), RecordWriter(got))
    assert got.getvalue() == want.getvalue()
    assert multiprocessing.active_children() == []


class _InlinePool:
    """Stands in for ProcessPoolExecutor: runs each block on submission and
    records the worker count and the blocks it was given."""

    started = []

    def __init__(self, max_workers):
        self.blocks = []
        self.started.append((max_workers, self.blocks))

    def submit(self, work, block):
        self.blocks.append(block)
        future = Future()
        future.set_result(work(block))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_blocks_run_in_process_until_they_have_taken_the_pool_start_up(monkeypatch):
    # Each block takes 1/256 s on a stopped clock, and a pool 1/128 s a
    # worker to start: two workers repay their start-up after four blocks.
    clock = 0.0

    def work(block):
        nonlocal clock
        clock += 1 / 256
        return block

    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock))
    monkeypatch.setattr(harness, "_pool_start_s", lambda workers: workers / 128)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    started = _InlinePool.started = []

    def outputs(count, jobs):
        started.clear()
        assert list(harness._block_outputs(work, iter(range(count)), jobs)) == list(range(count))
        return started

    assert outputs(10, 2) == [(2, [4, 5, 6, 7, 8, 9])]
    # A sweep that ends within the start-up, or one block after it, runs
    # in-process, and one job never starts a pool.
    assert outputs(4, 2) == []
    assert outputs(5, 2) == []
    assert outputs(100, 1) == []
    # A pool has no more workers than the blocks left for it.
    assert outputs(19, 8) == [(3, [16, 17, 18])]
    assert outputs(30, 8) == [(8, list(range(16, 30)))]


def test_the_pool_start_up_follows_the_start_method(monkeypatch):
    for method, per_worker in [("fork", 0.01), ("forkserver", 0.15), ("spawn", 0.15)]:
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none: method)
        assert harness._pool_start_s(4) == pytest.approx(4 * per_worker)


def test_run_config_refuses_a_non_integer_worker_count():
    for bad in (2.5, "2", None):
        with pytest.raises(ContractViolation, match=f"^jobs must be an integer, got {bad!r}$"):
            RunConfig("family:petersen", ("efgw",), bad)
    assert RunConfig("family:petersen", ("efgw",), True).jobs == 1
    assert RunConfig("family:petersen", ("efgw",), np.int64(2)).jobs == 2


def test_sdp_min_fails_when_the_split_misses_the_tolerance(monkeypatch, tmp_path):
    # No equality gap meets a negative tolerance: the record fails and the
    # sweep exits 2.
    monkeypatch.setattr(bounds, "numeric_tolerance", lambda n: -1.0)
    out = tmp_path / "r.jsonl"
    assert main(["bounds", "family:petersen", "--set", "sdp-min", "--out", str(out)]) == 2
    [record] = _read_jsonl(out)
    assert (record["name"], record["status"], record["holds"]) == ("sdp-min", "ok", False)
    assert (record["lhs"], record["rhs"], record["slack"]) == (0.0, 0.0, 0.0)


def test_run_reports_violations(monkeypatch):
    fake_record = {
        "graph_index": 0, "graph6": "Bw", "n": 3, "m": 3,
        "name": "fake", "status": "ok", "applicable": True,
        "informational": False, "lhs": 0.0, "rhs": 1.0, "slack": -1.0,
        "holds": False, "witness": None, "reason": None,
    }
    monkeypatch.setattr(harness, "evaluate_graph", lambda index, g, names: [fake_record])
    monkeypatch.setattr(bounds, "ALL_BOUND_NAMES", ("fake",))
    config = RunConfig(source=iter([cycle(3)]), bounds=("fake",))
    summary = harness.run(config)
    assert summary.violations and summary.minima["fake"]["slack"] == -1.0


def test_numeric_failure_on_one_graph_becomes_error_records(tmp_path, monkeypatch, capsys):
    base = ["bounds", "enumerate:5:connected", "--set", "all", "--jobs", "1"]
    clean, faulted = tmp_path / "clean.jsonl", tmp_path / "faulted.jsonl"
    assert main(base + ["--out", str(clean)]) == 0
    target = list(resolve_source("enumerate:5:connected"))[7]
    decomposition = spectral._decomposition

    def failing(g):
        if g == target:
            raise NumericError("injected failure")
        return decomposition(g)

    monkeypatch.setattr(spectral, "_decomposition", failing)
    capsys.readouterr()
    assert main(base + ["--out", str(faulted)]) == 1
    summary = capsys.readouterr().err
    want, got = _read_jsonl(clean), _read_jsonl(faulted)
    assert [r for r in got if r["graph_index"] != 7] == [r for r in want if r["graph_index"] != 7]
    errors = [r for r in got if r["status"] == "error"]
    assert errors and {r["graph_index"] for r in errors} == {7}
    assert errors[0]["reason"] == "NumericError: injected failure"
    assert all(r[key] is None for r in errors for key in ("lhs", "rhs", "slack", "holds", "witness"))
    assert f"errors: {len(errors)}" in summary


def test_a_numeric_failure_inside_a_block_leaves_its_neighbours_records(tmp_path, monkeypatch):
    # 120 seeded 9-vertex graphs, which no other test keeps decomposed, take
    # blocks of 50; graph 30 sits inside the first. Shifted eigenvalues fail
    # its residual check, in the block's stacked eigensolve and again in its
    # own call.
    rng = np.random.default_rng(47)
    graphs = [gnp(rng, 9, 0.5) for _ in range(120)]
    source = tmp_path / "in.g6"
    source.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    base = ["bounds", str(source), "--set", "all", "--jobs", "1"]
    clean, faulted = tmp_path / "clean.jsonl", tmp_path / "faulted.jsonl"
    assert main(base + ["--out", str(clean)]) == 0
    target = graphs[30].adjacency_matrix()
    eigh = np.linalg.eigh

    def failing(mats):
        vals, vecs = eigh(mats)
        if mats.shape[-1] != target.shape[-1]:
            return vals, vecs
        return vals + np.all(mats == target, axis=(-2, -1))[..., None], vecs

    monkeypatch.setattr(np.linalg, "eigh", failing)
    assert main(base + ["--out", str(faulted)]) == 1
    def others(path):
        return [line for line in path.read_text().splitlines()
                if json.loads(line)["graph_index"] != 30]

    assert others(faulted) == others(clean)
    errors = [r for r in _read_jsonl(faulted) if r["status"] == "error"]
    assert errors and {r["graph_index"] for r in errors} == {30}
    assert all(r["reason"].startswith("NumericError: residual ") for r in errors)


def test_a_numeric_failure_in_a_seeded_deletion_fails_only_that_removal_record(tmp_path, monkeypatch):
    # 120 seeded 9-vertex graphs take blocks of 50, whose vertex deletions
    # are seeded in stacks of 8x8 submatrices. Shifted eigenvalues fail the
    # residual check of one deletion of graph 30, in its block's stack and
    # again in the witness's own call.
    rng = np.random.default_rng(79)
    graphs = [gnp(rng, 9, 0.5) for _ in range(120)]
    source = tmp_path / "in.g6"
    source.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    base = ["bounds", str(source), "--set", "all", "--jobs", "1"]
    clean, faulted = tmp_path / "clean.jsonl", tmp_path / "faulted.jsonl"
    assert main(base + ["--out", str(clean)]) == 0

    def deleted(g, u):
        keep = [v for v in range(g.n) if v != u]
        return g.adjacency_matrix()[np.ix_(keep, keep)]

    target = deleted(graphs[30], find_induced_p3(graphs[30])[1])
    deletions = [deleted(g, u) for g in graphs if find_induced_p3(g) for u in find_induced_p3(g)]
    assert sum(np.array_equal(d, target) for d in deletions) == 1
    eigh = np.linalg.eigh

    def failing(mats):
        vals, vecs = eigh(mats)
        if mats.shape[-1] != target.shape[-1]:
            return vals, vecs
        return vals + np.all(mats == target, axis=(-2, -1))[..., None], vecs

    monkeypatch.setattr(np.linalg, "eigh", failing)
    assert main(base + ["--out", str(faulted)]) == 1

    def others(path):
        return [line for line in path.read_text().splitlines()
                if (json.loads(line)["graph_index"], json.loads(line)["name"]) != (30, "removal")]

    assert others(faulted) == others(clean)
    [error] = [r for r in _read_jsonl(faulted) if r["status"] == "error"]
    assert (error["graph_index"], error["name"]) == (30, "removal")
    assert error["reason"].startswith("NumericError: residual ")


def _jobs_flag(jobs):
    return [] if jobs == "default" else ["--jobs", jobs]


@pytest.mark.parametrize("jobs", ["1", "2", "default"])
def test_malformed_line_after_several_blocks_keeps_every_record_before_it(
    jobs, tmp_path, capsys, pool_at_once
):
    # 150 connected 7-vertex graphs fill two blocks of 64 and part of a third.
    lines = [write_graph6(g) for g in resolve_source("enumerate:7:connected")]
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text("\n".join(lines[:150]) + "\n")
    bad.write_text("\n".join(lines[:150] + ["F??"] + lines[150:160]) + "\n")
    base = ["bounds", "--set", "efgw,removal"]
    assert main(base + [str(good), "--jobs", "1", "--out", str(tmp_path / "want")]) == 0
    capsys.readouterr()
    assert main(base + [str(bad), *_jobs_flag(jobs), "--out", str(tmp_path / "got")]) == 1
    assert capsys.readouterr().err.startswith("error: line 151: truncated body")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
    assert multiprocessing.active_children() == []


def test_a_pool_writes_the_serial_output_under_forkserver_and_spawn(tmp_path, capsys):
    # Each start method runs in a fresh interpreter, launched with -c (a
    # launcher read from stdin breaks the pool), whose sweep hands its blocks
    # to a pool from the first, as the pool_at_once fixture does; it prints
    # its live children and whether the pool module was loaded. The second
    # source's line 501 is malformed.
    lines = [write_graph6(g) for g in resolve_source("enumerate:7:connected")]
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text("\n".join(lines) + "\n")
    bad.write_text("\n".join(lines[:500] + ["F??"] + lines[501:]) + "\n")
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for source, want_code in ((good, 0), (bad, 1)):
        argv = ["bounds", str(source), "--set", "all"]
        serial, pool = tmp_path / "serial", tmp_path / "pool"
        assert main(argv + ["--jobs", "1", "--out", str(serial)]) == want_code
        want_err = re.sub(r"wall: \S+", "wall:", capsys.readouterr().err)
        for method in ("forkserver", "spawn"):
            code = (
                "import multiprocessing, sys\n"
                f"multiprocessing.set_start_method({method!r})\n"
                "from sqenergy import cli, harness\n"
                "harness._pool_start_s = lambda workers: 0.0\n"
                f"code = cli.main({argv + ['--jobs', '2', '--out', str(pool)]!r})\n"
                "print(len(multiprocessing.active_children()),"
                " 'concurrent.futures.process' in sys.modules)\n"
                "sys.exit(code)\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert (done.returncode, done.stdout) == (want_code, "0 True\n"), (method, done.stderr)
            assert re.sub(r"wall: \S+", "wall:", done.stderr) == want_err
            assert pool.read_bytes() == serial.read_bytes()
        graphs = {r["graph_index"] for r in _read_jsonl(serial)}
        assert graphs == set(range(853 if source == good else 500))
    assert want_err.startswith("error: line 501: truncated body")


def test_failed_removal_lemma_is_a_violation(tmp_path, monkeypatch, capsys):
    # Deleting nothing drops no square energy, so the removal lemma fails.
    whole, decompose = cycle(5), sdp.eigen_decompose_stack

    def undeleted(mats, ms):
        return decompose(np.stack([whole.adjacency_matrix()] * len(mats)), [whole.m] * len(ms))

    monkeypatch.setattr(sdp, "eigen_decompose_stack", undeleted)
    out = tmp_path / "removal.jsonl"
    assert main(["bounds", "family:cycle:n=5", "--set", "removal", "--out", str(out)]) == 2
    [record] = _read_jsonl(out)
    assert record["status"] == "ok" and record["holds"] is False
    assert record["lhs"] == 0.0 and record["slack"] == -1.0
    assert "violations: 1" in capsys.readouterr().err


def test_unknown_bound_is_operational_error(capsys):
    assert main(["bounds", "enumerate:4:connected", "--set", "nosuch"]) == 1
    assert "unknown bound" in capsys.readouterr().err
    # One record per (graph, bound): a repeated name writes nothing.
    assert main(["bounds", "family:petersen", "--set", "efgw,efgw"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound 'efgw' given twice\n"


@pytest.mark.parametrize("source", ["enumerate:4:conected", "enumerate:4:connected:x", "enumerate:x"])
def test_bad_enumerate_suffix_is_operational_error(source, capsys):
    assert main(["bounds", source, "--set", "efgw"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed enumerate source '{source}'")


def test_record_writer_rejects_bad_format():
    with pytest.raises(ContractViolation):
        RecordWriter(io.StringIO(), "xml")


def _sweep_writer_lines(records):
    stream = io.StringIO()
    writer = RecordWriter(stream, "json")
    for record in records:
        writer.write(record)
    return stream.getvalue().splitlines()


def test_sweep_records_encode_as_json_dumps_with_sorted_keys():
    # The writer's one encoder, built once, must write each record as the
    # json module writes it.
    graphs = list(enumerate(resolve_source("enumerate:7:connected")))
    records = [r for rs in harness.evaluate_block(bounds.ALL_BOUND_NAMES, graphs) for r in rs]
    assert len(records) == 12795
    assert _sweep_writer_lines(records) == [json.dumps(r, sort_keys=True) for r in records]


def test_crafted_records_encode_as_json_dumps_with_sorted_keys():
    base = {"graph_index": 12345, "graph6": "F?B~w", "n": 7, "m": 9, "name": "efgw",
            "status": "ok", "applicable": True, "informational": False, "lhs": 1.5, "rhs": 6,
            "slack": -4.5, "holds": False, "witness": None, "reason": None}
    crafted = [
        {**base, "lhs": math.nan, "rhs": math.inf, "slack": -math.inf},
        {**base, "lhs": -0.0, "rhs": 0.0, "slack": 1e-300, "holds": None},
        {**base, "status": "skipped", "reason": "séparé — µ \U0001d4e2 %s {0}"},
        {**base, "status": "error", "reason": "tab\tnew\nline\x00nul\x1f \"quoted\" \\ %(x)s"},
        {**base, "witness": {"z": [1, [2.5, -0.0, math.nan]], "a": {"b": None, "%": "{}"}, "k": True}},
        {**base, "witness": [], "name": "é", "applicable": 1, "informational": 0},
        {**base, "lhs": np.float64(0.1), "rhs": np.float64(3.0), "witness": {"v": 2**70}},
        {**base, "graph_index": True, "graph6": "A_", "n": 2.0, "m": None},
        {"name": "x", "extra": [{"b": 1, "a": 2}]},
    ]
    assert _sweep_writer_lines(crafted) == [json.dumps(r, sort_keys=True) for r in crafted]


def test_a_record_that_fails_to_encode_leaves_the_writer_as_it_was():
    # The failed record's containers must not be taken for a cycle when the
    # same objects are written again.
    witness = {"side": [0, object()]}
    record = {"name": "x", "witness": witness}
    stream = io.StringIO()
    writer = RecordWriter(stream, "json")
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        writer.write(record)
    witness["side"][1] = 1
    writer.write(record)
    assert stream.getvalue() == json.dumps(record, sort_keys=True) + "\n"


def test_non_ascii_graph6_file_is_clean_error(tmp_path, capsys):
    path6 = tmp_path / "bad.g6"
    path6.write_bytes(b"Bw\nB\xe9\n")
    assert main(["bounds", str(path6), "--set", "efgw", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: body byte 233 out of range 63..126")


def test_non_ascii_graph6_stdin_is_clean_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xffw\n")))
    assert main(["energy", "-"]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: size byte 255 out of range")


def test_graph6_errors_name_their_line(tmp_path, capsys):
    path6 = tmp_path / "truncated.g6"
    path6.write_text("Bw\n\nC\n")
    assert main(["spectrum", str(path6), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: truncated body")


@pytest.mark.parametrize("jobs", ["1", "2", "default"])
def test_malformed_line_ends_the_sweep_after_the_graphs_before_it(
    jobs, tmp_path, capsys, pool_at_once
):
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text("Bw\nCr\n")
    bad.write_text("Bw\nCr\nC\nDQc\n")
    base = ["bounds", "--set", "efgw"]
    assert main(base + [str(good), "--jobs", "1", "--out", str(tmp_path / "want")]) == 0
    capsys.readouterr()
    assert main(base + [str(bad), *_jobs_flag(jobs), "--out", str(tmp_path / "got")]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: truncated body")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def test_enumeration_keeps_no_decomposition_alive(tmp_path):
    # Entries of graphs that other tests keep alive stay; the sweep adds none.
    gc.collect()
    before = len(spectral._decomposition.memo)
    argv = ["decompose", "--method", "degree-class", "enumerate:7:connected"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    gc.collect()
    assert len(spectral._decomposition.memo) == before


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    # A None entry in sys.modules makes importing that name fail.
    argv = ["bounds", "enumerate:5:connected", "--set", "all", "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "sys.modules['sympy'] = sys.modules['networkx'] = None\n"
        "import sqenergy.cli, sqenergy.sdp\n"
        f"assert sqenergy.cli.main({argv!r}) == 0\n"
    )
    src = str(Path(sdp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert {r["graph_index"] for r in _read_jsonl(tmp_path / "out")} == set(range(21))


def test_jobs_below_one_is_operational_error(capsys):
    for jobs in ("0", "-3"):
        assert main(["bounds", "enumerate:3", "--set", "efgw", "--jobs", jobs]) == 1
        assert "error: jobs must be >= 1" in capsys.readouterr().err


def test_subcommands_reject_flags_they_never_read():
    from sqenergy.cli import build_parser

    parser = build_parser()
    for argv in (
        ["enumerate", "--n", "3", "--format", "csv"],
        ["spectrum", "family:petersen", "--seed", "1"],
        ["bounds", "family:petersen", "--seed", "1"],
        ["verify", "--n", "5", "--seed", "1"],
        ["verify", "--n", "5", "--conjecture", "efgw"],
        ["verify", "--n", "5", "--budget-n", "9"],
        ["gq", "--q", "2", "--budget-n", "10"],
        ["hunt", "--n", "5", "--jobs", "2"],
        ["hunt", "--n", "5", "--budget-n", "9"],
        ["hunt", "--n", "5", "--filter", "minimal-candidates"],
        ["hunt", "--n", "5", "--max-subset-size", "4"],
        ["bounds", "family:petersen", "--budget-n", "9"],
        ["decompose", "--method", "domination", "x", "--budget-n", "9"],
    ):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        assert info.value.code == 2


def test_readme_cli_lines_parse():
    # Every command in README's CLI block names only options the parser has.
    from sqenergy.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sqenergy ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_options_table_matches_the_parser():
    # README's options table names every option of every subcommand, and no
    # other.
    from sqenergy.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | options |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        _, names, options, _ = row.split("|")
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in documented, name
            documented[name] = set(re.findall(r"`([^`]+)`", options))
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert documented == parsed
