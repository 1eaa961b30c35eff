"""The bound registry and the per-graph memos: a sweep's records are the
registered bounds' verdicts field by field, and one graph's spectra, square
energies and max cut are computed once however many bounds and library calls
read them."""

import gc
import json
from collections import Counter

import numpy as np
import pytest

from _gen import gnp
import sqenergy.bounds as bounds
import sqenergy.oracles as oracles
import sqenergy.sdp as sdp
import sqenergy.spectral as spectral
from sqenergy.bounds import (
    ALL_BOUND_NAMES,
    BOUNDS,
    bound_alon_boppana,
    bound_dominating_vertex,
    bound_domination,
    bound_efgw,
    bound_inertia,
    bound_ratio,
    bound_regular,
    bound_surplus,
    bound_triangle,
    certify_s_plus_pipeline,
    conjecture_checks,
    energy_wall_check,
)
from sqenergy.errors import BudgetExceeded, ContractViolation
from sqenergy.families import cycle, petersen, star
from sqenergy.graphs import Graph, is_connected, parse_graph6, per_graph, write_graph6
from sqenergy.harness import RunConfig, evaluate_block, evaluate_graph, run

# The public bound functions, each called with the default budget; `sdp-min`
# and `removal` are registry entries only.
PUBLIC_BOUNDS = (
    bound_efgw, bound_domination, bound_inertia, bound_dominating_vertex,
    bound_triangle, bound_ratio, bound_regular, bound_alon_boppana,
    bound_surplus, certify_s_plus_pipeline, energy_wall_check, conjecture_checks,
)


def _expected_records(index, g):
    head = {"graph_index": index, "graph6": write_graph6(g), "n": g.n, "m": g.m}
    out = []
    for name in ALL_BOUND_NAMES:
        try:
            verdicts = BOUNDS[name](g)
        except (ContractViolation, BudgetExceeded) as exc:
            out.append({**head, "name": name, "status": "skipped", "applicable": False,
                        "informational": False, "lhs": None, "rhs": None, "slack": None,
                        "holds": None, "witness": None, "reason": str(exc)})
            continue
        for v in verdicts:
            out.append({**head, "name": v.bound_name, "status": "ok",
                        "applicable": v.applicable, "informational": v.informational,
                        "lhs": v.lhs, "rhs": v.rhs, "slack": v.slack, "holds": v.holds,
                        "witness": v.witness, "reason": None})
    return out


def test_registry_names_match_public_functions():
    # Each --set name reports its verdicts under its own name; `conjectures`
    # reports the two surplus ratios. The star has the dominating vertex that
    # the Petersen graph lacks.
    g = petersen()
    for name in ALL_BOUND_NAMES:
        h = star(5) if name == "dominating-vertex" else g
        got = [v.bound_name for v in BOUNDS[name](h)]
        want = ["surplus-linear-ratio", "surplus-67-ratio"] if name == "conjectures" else [name]
        assert got == want
    assert BOUNDS["surplus"](g) == [bound_surplus(g)]
    assert BOUNDS["conjectures"](g) == conjecture_checks(g)
    with pytest.raises(BudgetExceeded):
        bound_surplus(g, g.n - 1)


def test_sweep_records_equal_public_verdicts(connected_corpus):
    graphs = [g for n in range(1, 6) for g in connected_corpus[n]] + [petersen()]
    for index, g in enumerate(graphs):
        records = evaluate_graph(index, g, ALL_BOUND_NAMES)
        expected = _expected_records(index, g)
        assert len(records) == len(expected)
        for got, want in zip(records, expected):
            for key in want:
                assert got[key] == want[key], (write_graph6(g), got["name"], key)


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_one_evaluation_computes_spectra_and_max_cut_once(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(np.linalg, "eigh", _counting(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", _counting(calls, "eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(oracles, "max_cut", _counting(calls, "max_cut", oracles.max_cut))
    records = evaluate_graph(0, cycle(5), ALL_BOUND_NAMES)
    assert {r["name"] for r in records if r["status"] == "ok"} >= {"surplus", "removal", "sdp-min"}
    # One decomposition of C5 and one stacked decomposition of the removal
    # witness's three vertex deletions; the split's halves take none.
    assert calls["eigh"] + calls["eigvalsh"] <= 2
    assert calls["max_cut"] == 1


def test_a_block_gives_the_records_of_each_graph_alone():
    # 60 seeded 9-vertex graphs, which no other test keeps decomposed: the
    # block decomposes them in stacks of 50 and 10. The graphs evaluated
    # alone are freed first, so the block finds none of their memo entries.
    rng = np.random.default_rng(61)
    lines = [write_graph6(gnp(rng, 9, 0.5)) for _ in range(60)]

    def pairs():
        return [(i, parse_graph6(line)) for i, line in enumerate(lines)]

    alone = [json.dumps(evaluate_graph(i, g, ALL_BOUND_NAMES)) for i, g in pairs()]
    gc.collect()
    block = pairs()
    memo = spectral._decomposition.memo
    assert not any(g in memo for _, g in block)
    blocked = [json.dumps(records) for records in evaluate_block(ALL_BOUND_NAMES, block)]
    assert all(g in memo for _, g in block)
    assert len(blocked) == len(alone)
    for got, want in zip(blocked, alone):
        assert got == want


# Each test below builds its own graph, so no graph that another test keeps
# alive already holds memo entries.


def _fresh_graph(seed):
    return gnp(np.random.default_rng(seed), 13, 0.5)


def test_one_evaluation_computes_the_default_band_energies_once(monkeypatch):
    # The default-band energies are part of each checked adjacency
    # decomposition, so counting the stacked decompositions counts them.
    g = _fresh_graph(23)
    seen = []
    decompose = spectral.eigen_decompose_stack

    def counting(mats, ms=None):
        seen.append((mats.shape, ms))
        return decompose(mats, ms)

    monkeypatch.setattr(spectral, "eigen_decompose_stack", counting)
    monkeypatch.setattr(sdp, "eigen_decompose_stack", counting)
    records = evaluate_graph(0, g, ALL_BOUND_NAMES)
    assert all(r["status"] != "error" for r in records)
    assert g in spectral._decomposition.memo
    # The graph itself once; the removal witness's three vertex-deleted
    # submatrices in one stacked call.
    triple = oracles.find_induced_p3(g)
    assert seen == [
        ((1, g.n, g.n), [g.m]),
        ((3, g.n - 1, g.n - 1), [g.m - g.degree(u) for u in triple]),
    ]


def test_bound_calls_after_an_evaluation_reuse_its_spectra_and_cut(monkeypatch):
    g = _fresh_graph(29)
    evaluate_graph(0, g, ALL_BOUND_NAMES)
    calls = Counter()
    monkeypatch.setattr(np.linalg, "eigh", _counting(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", _counting(calls, "eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(oracles, "max_cut", _counting(calls, "max_cut", oracles.max_cut))
    verdicts = 0
    for bound in PUBLIC_BOUNDS:
        try:
            bound(g)
            verdicts += 1
        except ContractViolation:
            pass
    assert verdicts >= 10
    spectral.spectrum(g)
    spectral.square_energies(g)
    spectral.graph_inertia(g)
    assert calls == {}


def test_energies_and_cut_are_freed_with_their_graph():
    memos = (
        spectral._decomposition.memo, bounds._shared_cut.memo,
        bounds.first_induced_p3.memo, sdp._deletion_energies.memo, bounds._sdp_gap.memo,
    )
    gc.disable()
    try:
        g = _fresh_graph(31)
        evaluate_graph(0, g, ALL_BOUND_NAMES)
        probe = Graph(g.n, g.adj)  # equal, so it finds g's entries while g lives
        assert probe is not g and all(probe in memo for memo in memos)
        del g
        assert not any(probe in memo for memo in memos)
    finally:
        gc.enable()


def _fresh_connected_lines(seed, n, count):
    """graph6 lines of seeded connected n-vertex graphs, randomly labelled,
    so that no graph another test keeps alive equals one of them."""
    rng = np.random.default_rng(seed)
    lines = []
    while len(lines) < count:
        g = gnp(rng, n, 0.5)
        if is_connected(g):
            lines.append(write_graph6(g))
    return lines


def _fresh_block(lines):
    gc.collect()
    block = [(i, parse_graph6(line)) for i, line in enumerate(lines)]
    assert not any(g in spectral._decomposition.memo for _, g in block)
    assert not any(g in sdp._deletion_energies.memo for _, g in block)
    assert not any(g in bounds.first_induced_p3.memo for _, g in block)
    assert not any(g in bounds._sdp_gap.memo for _, g in block)
    return block


@pytest.mark.parametrize("names", [ALL_BOUND_NAMES, ("efgw",)])
def test_a_block_makes_one_graph_stack_and_its_deletion_stacks(names, monkeypatch):
    # 64 connected 7-vertex graphs take one stacked eigensolve. With
    # `removal`, the 3 vertex deletions of each graph's first induced 3-path
    # take 113 6x6 matrices a stack, and the witnesses decompose nothing more.
    block = _fresh_block(_fresh_connected_lines(71, 7, 64))
    with_p3 = sum(oracles.find_induced_p3(g) is not None for _, g in block)
    shapes = []
    eigh = np.linalg.eigh

    def recording(mats):
        shapes.append(mats.shape)
        return eigh(mats)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    records = [r for rs in evaluate_block(names, block) for r in rs]
    assert all(r["status"] != "error" for r in records)
    deletions = 3 * with_p3 if "removal" in names else 0
    want = [(64, 7, 7)] + [(min(113, deletions - start), 6, 6) for start in range(0, deletions, 113)]
    assert shapes == want


def test_a_block_searches_each_graph_for_an_induced_p3_once(monkeypatch):
    # Seeding the deletions and the `removal` bound share one search.
    block = _fresh_block(_fresh_connected_lines(79, 7, 64))
    searched = []
    find = oracles.find_induced_p3

    def recording(g):
        searched.append(g)
        return find(g)

    monkeypatch.setattr(oracles, "find_induced_p3", recording)
    records = [r for rs in evaluate_block(ALL_BOUND_NAMES, block) for r in rs]
    assert all(r["status"] != "error" for r in records)
    assert [id(g) for g in searched] == [id(g) for _, g in block]


def test_a_seeded_witness_equals_that_of_a_fresh_equal_graph():
    lines = _fresh_connected_lines(73, 7, 40)
    alone = []
    for line in lines:
        g = parse_graph6(line)
        triple = oracles.find_induced_p3(g)
        alone.append(None if triple is None else sdp.p3_removal_witness(g, triple))
    del g
    block = _fresh_block(lines)
    records = evaluate_block(("removal",), block)
    for (_, g), want in zip(block, alone):
        triple = oracles.find_induced_p3(g)
        if triple is None:
            continue
        assert set(triple) <= set(sdp._deletion_energies.memo[g])
        assert sdp.p3_removal_witness(g, triple) == want
    assert len(list(records)) == len(block)


def _fresh_memos(monkeypatch):
    """Empty decomposition and `sdp-min` gap memos, so that graphs another
    test keeps alive (or equal to them) are decomposed and seeded here."""
    decomposition = per_graph(spectral._decomposition.__wrapped__)
    monkeypatch.setattr(spectral, "_decomposition", decomposition)
    monkeypatch.setattr(spectral, "_MEMO", decomposition.memo)
    monkeypatch.setattr(bounds, "_sdp_gap", per_graph(bounds._sdp_gap.__wrapped__))


def _gap(g):
    [verdict] = BOUNDS["sdp-min"](g)
    return verdict.witness["equality_gap"].hex()


def test_seeded_sdp_min_gaps_of_every_connected_graph_up_to_7_equal_the_lone_gaps(
    connected_corpus, monkeypatch
):
    _fresh_memos(monkeypatch)
    alone = {g: _gap(g) for graphs in connected_corpus.values() for g in graphs}
    _fresh_memos(monkeypatch)
    for graphs in connected_corpus.values():
        for start in range(0, len(graphs), 64):
            block = graphs[start:start + 64]
            bounds.seed_block(("sdp-min",), block)
            if len(block) > 1:
                assert all(g in bounds._sdp_gap.memo for g in block)
            for g in block:
                assert _gap(g) == alone[g]


def _reversed_vectors(entry):
    spec, vecs, energies, counts = entry
    return spec, vecs[:, ::-1], energies, counts


def test_a_corrupted_stack_entry_seeds_the_others_and_gets_the_lone_error_record(monkeypatch):
    # C5 with its eigenvector columns reversed: each half is still certified
    # PSD, so only the split's reconstruction check refuses it.
    graphs = [cycle(5), star(5), Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])]
    _fresh_memos(monkeypatch)
    corrupted = _reversed_vectors(spectral._decomposition(graphs[0]))
    monkeypatch.setitem(spectral._MEMO, graphs[0], corrupted)
    alone = [evaluate_graph(i, g, ("sdp-min",)) for i, g in enumerate(graphs)]
    assert (alone[0][0]["status"], alone[0][0]["reason"]) == (
        "error", "NumericError: split does not reconstruct the adjacency matrix"
    )
    assert [rs[0]["status"] for rs in alone[1:]] == ["ok", "ok"]

    _fresh_memos(monkeypatch)
    decompose = spectral.eigen_decompose_stack

    def corrupting(mats, ms):
        outs = decompose(mats, ms)
        return [_reversed_vectors(outs[0]), *outs[1:]]

    monkeypatch.setattr(spectral, "eigen_decompose_stack", corrupting)
    records = evaluate_block(("sdp-min",), list(enumerate(graphs)))
    assert [g in bounds._sdp_gap.memo for g in graphs] == [False, True, True]
    assert list(records) == alone

    # C5 alone in its block is a stack of one and gets the same record.
    _fresh_memos(monkeypatch)
    records = evaluate_block(("sdp-min",), [(0, graphs[0])])
    assert graphs[0] not in bounds._sdp_gap.memo
    assert list(records) == alone[:1]


def test_only_a_selected_sdp_min_splits_a_block(monkeypatch):
    calls = []

    def counting(entries, adjacency):
        calls.append(len(entries))
        return split_stack(entries, adjacency)

    split_stack = spectral.split_stack
    monkeypatch.setattr(spectral, "split_stack", counting)
    monkeypatch.setattr(bounds, "split_stack", counting)
    for seed, names, want in ((83, ("efgw",), []), (89, ("sdp-min",), [64])):
        block = _fresh_block(_fresh_connected_lines(seed, 7, 64))
        records = [r for rs in evaluate_block(names, block) for r in rs]
        assert len(records) == 64 and all(r["status"] == "ok" for r in records)
        assert calls == want


def test_a_sweep_builds_each_adjacency_matrix_once(monkeypatch):
    # With every bound selected, the block's stacked decomposition is the
    # only build: the `sdp-min` gaps and the `removal` deletions are seeded
    # from its matrices. A graph alone in its block, as a family's is, is a
    # stack of one, and n = 112 takes one matrix a stack.
    built = []
    adjacency_matrix = Graph.adjacency_matrix

    def counting(g):
        built.append(g)
        return adjacency_matrix(g)

    monkeypatch.setattr(Graph, "adjacency_matrix", counting)
    for source, graphs in (("enumerate:7:connected", 853), ("family:gq:q=3", 1),
                           ("family:petersen", 1)):
        _fresh_memos(monkeypatch)
        built.clear()
        summary = run(RunConfig(source, ("all",)))
        assert (summary.graphs_processed, summary.errors) == (graphs, 0)
        assert len(built) == graphs


def test_a_lone_graph_is_decomposed_only_when_a_seeded_bound_reads_its_matrix(monkeypatch):
    # A graph alone in its block shares no eigensolve, so seeding decomposes
    # it only for `sdp-min`, or `removal` given an induced 3-vertex path.
    # Past the n <= 24 search budget `domination` skips before reading the
    # spectrum, C200 has no dominating vertex and a perfect matching no
    # induced 3-vertex path: their records come without an eigensolve.
    solves = []
    decompose = spectral.eigen_decompose_stack

    def counting(mats, ms):
        solves.append(mats.shape)
        return decompose(mats, ms)

    monkeypatch.setattr(spectral, "eigen_decompose_stack", counting)
    matching = Graph.from_edges(200, [(2 * i, 2 * i + 1) for i in range(100)])
    for names, g, status, want in (
        (("domination",), cycle(200), "skipped", []),
        (("dominating-vertex",), cycle(200), "skipped", []),
        (("removal",), matching, "ok", []),
        (("sdp-min",), cycle(200), "ok", [(1, 200, 200)]),
        (("removal",), cycle(200), "ok", [(1, 200, 200)]),
    ):
        _fresh_memos(monkeypatch)
        solves.clear()
        [records] = evaluate_block(names, [(0, g)])
        assert [r["status"] for r in records] == [status]
        assert solves == want
    _fresh_memos(monkeypatch)
    solves.clear()
    summary = run(RunConfig("family:cycle:n=200", ("domination",)))
    assert (summary.graphs_processed, summary.skipped, solves) == (1, 1, [])
