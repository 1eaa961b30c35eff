"""One GraphContext per graph: a sweep's records equal the public per-bound
functions field by field, and one graph's spectra and oracles are computed
once however many bounds read them."""

from collections import Counter

import numpy as np

from _gen import gnp
import sqenergy.oracles as oracles
import sqenergy.spectral as spectral
from sqenergy.bounds import (
    ALL_BOUND_NAMES,
    BoundVerdict,
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
from sqenergy.context import GraphContext
from sqenergy.errors import BudgetExceeded, ContractViolation
from sqenergy.families import cycle, petersen
from sqenergy.harness import evaluate_graph, graph6_or_none
from sqenergy.oracles import SEARCH_BUDGET_N, find_induced_p3
from sqenergy.sdp import p3_removal_witness, verify_min_characterization

SEED = 11


def _sdp_min(g):
    report = verify_min_characterization(g, trials=20, seed=SEED)
    worst = min([0.0] + [v.objective - v.optimum for v in report.violations])
    witness = {"equality_gap": report.equality_gap, "trials": report.trials}
    return [BoundVerdict("sdp-min", worst, 0.0, worst, report.ok, witness)]


def _removal(g):
    triple = find_induced_p3(g)
    if triple is None:
        note = {"note": "no induced 3-vertex path"}
        return [BoundVerdict("removal", 0.0, 0.0, 0.0, True, note, applicable=False)]
    w = p3_removal_witness(g, triple)
    lhs = min(w.drop_minus, w.drop_plus)
    witness = {
        "triple": list(triple),
        "vertex_minus": w.vertex_minus,
        "drop_minus": w.drop_minus,
        "vertex_plus": w.vertex_plus,
        "drop_plus": w.drop_plus,
    }
    return [BoundVerdict("removal", lhs, 1.0, lhs - 1.0, lhs > 1.0, witness)]


# Each --set name evaluated through the public functions alone.
PUBLIC = {
    "efgw": lambda g: [bound_efgw(g)],
    "domination": lambda g: [bound_domination(g)],
    "inertia": lambda g: [bound_inertia(g)],
    "dominating-vertex": lambda g: [bound_dominating_vertex(g)],
    "triangle": lambda g: [bound_triangle(g)],
    "ratio": lambda g: [bound_ratio(g)],
    "regular": lambda g: [bound_regular(g)],
    "alon-boppana": lambda g: [bound_alon_boppana(g)],
    "surplus": lambda g: [bound_surplus(g)],
    "pipeline": lambda g: [certify_s_plus_pipeline(g)],
    "energy-wall": lambda g: [energy_wall_check(g)],
    "conjectures": conjecture_checks,
    "sdp-min": _sdp_min,
    "removal": _removal,
}


def _expected_records(g):
    head = {"graph_index": 0, "graph6": graph6_or_none(g), "n": g.n, "m": g.m}
    out = []
    for name in ALL_BOUND_NAMES:
        try:
            verdicts = PUBLIC[name](g)
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
    assert tuple(PUBLIC) == ALL_BOUND_NAMES


def test_sweep_records_equal_public_verdicts(connected_corpus):
    graphs = [g for n in range(1, 6) for g in connected_corpus[n]] + [petersen()]
    for g in graphs:
        records = evaluate_graph((0, g, ALL_BOUND_NAMES, SEARCH_BUDGET_N, SEED))
        expected = _expected_records(g)
        assert len(records) == len(expected)
        for got, want in zip(records, expected):
            for key in want:
                assert got[key] == want[key], (graph6_or_none(g), got["name"], key)


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
    records = evaluate_graph((0, cycle(5), ALL_BOUND_NAMES, SEARCH_BUDGET_N, 0))
    assert {r["name"] for r in records if r["status"] == "ok"} >= {"surplus", "removal", "sdp-min"}
    # One decomposition of C5, the split's two PSD checks, and the removal
    # witness's three vertex deletions.
    assert calls["eigh"] + calls["eigvalsh"] <= 6
    assert calls["max_cut"] == 1


def test_context_and_library_calls_share_one_eigensolve(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(np.linalg, "eigh", _counting(calls, "eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", _counting(calls, "eigvalsh", np.linalg.eigvalsh))
    g = gnp(np.random.default_rng(23), 13, 0.5)  # no other test holds an equal graph
    GraphContext(g).energies
    spectral.square_energies(g)
    spectral.spectral_split(g)
    spectral.graph_inertia(g)
    # One decomposition; the split keeps its two PSD checks.
    assert calls == {"eigh": 1, "eigvalsh": 2}
