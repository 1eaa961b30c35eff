"""CLI subcommands, the sweep harness, record formats, and determinism."""

import io
import json

import pytest

import sqenergy.harness as harness
from sqenergy.cli import main
from sqenergy.errors import ContractViolation
from sqenergy.families import cycle, petersen
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


def test_verify_command(tmp_path):
    out = tmp_path / "verify.jsonl"
    assert main(["verify", "--conjecture", "efgw", "--n", "5", "--out", str(out)]) == 0
    assert len(_read_jsonl(out)) == 21


def test_hunt_command(tmp_path, capsys):
    out = tmp_path / "hunt.jsonl"
    assert main(["hunt", "--filter", "minimal-candidates", "--n", "5", "--out", str(out)]) == 0
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


def test_decompose_command(capsys):
    assert main(["decompose", "--method", "star-clique", "family:path:n=4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["parts"] == [[0, 1], [2, 3]]
    assert record["holds"]


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


def test_byte_identical_reruns(tmp_path):
    args = ["bounds", "enumerate:5:connected", "--set", "efgw,surplus,sdp-min", "--seed", "7"]
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parallel_matches_serial(tmp_path):
    base = ["bounds", "enumerate:5:connected", "--set", "efgw,domination", "--seed", "3"]
    serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    assert main(base + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_reports_violations(monkeypatch):
    fake_record = {
        "graph_index": 0, "graph6": "Bw", "n": 3, "m": 3,
        "name": "fake", "status": "ok", "applicable": True,
        "informational": False, "lhs": 0.0, "rhs": 1.0, "slack": -1.0,
        "holds": False, "witness": None, "reason": None,
    }
    monkeypatch.setattr(harness, "evaluate_graph", lambda task: [fake_record])
    monkeypatch.setattr(harness, "ALL_BOUND_NAMES", ("fake",))
    config = RunConfig(source=iter([cycle(3)]), bounds=("fake",))
    summary = harness.run(config)
    assert summary.violations and summary.minima["fake"]["slack"] == -1.0


def test_unknown_bound_is_operational_error(capsys):
    assert main(["bounds", "enumerate:4:connected", "--set", "nosuch"]) == 1
    assert "unknown bound" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["enumerate:4:conected", "enumerate:4:connected:x"])
def test_bad_enumerate_suffix_is_operational_error(source, capsys):
    assert main(["bounds", source, "--set", "efgw"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed enumerate source '{source}'")


def test_record_writer_rejects_bad_format():
    with pytest.raises(ContractViolation):
        RecordWriter(io.StringIO(), "xml")


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
        ["gq", "--q", "2", "--budget-n", "10"],
        ["hunt", "--n", "5", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    args = parser.parse_args(["decompose", "--method", "domination", "x", "--budget-n", "9"])
    assert args.budget_n == 9
