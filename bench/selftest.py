"""Self-test of the checkers in reference.py.

Each checker must accept the program's real output on a small input and
reject a deliberately corrupted copy of it. Run with

    python3 bench/run.py --selftest

It prints one PASS/FAIL line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import networkx as nx
import numpy as np

import reference
from worker import import_program, run_cli

HERE = Path(__file__).resolve().parent


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _text(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _find(records: list[dict], index: int, name: str) -> dict:
    return next(r for r in records if r["graph_index"] == index and r["name"] == name)


def _sweep(work: Path, lines: list[str]) -> str:
    source, out = work / "in.g6", work / "out.jsonl"
    reference.write_lines(source, lines)
    with contextlib.redirect_stderr(io.StringIO()):  # the sweep summary
        rc = run_cli(["bounds", str(source), "--set", "all", "--out", str(out)])
    if rc != 0:
        raise RuntimeError("bounds --set all failed on the self-test input")
    return out.read_text()


def enumeration_cases(work: Path) -> list[tuple[str, bool, reference.Verdict]]:
    out = work / "n5.g6"
    if run_cli(["enumerate", "--n", "5", "--out", str(out)]) != 0:
        raise RuntimeError("enumerate --n 5 failed")
    lines = out.read_text().splitlines()
    g = nx.from_graph6_bytes(lines[10].encode("ascii"))
    relabeled = nx.relabel_nodes(g, {v: (v + 2) % 5 for v in g}, copy=True)
    relabeled = nx.convert_node_labels_to_integers(relabeled, ordering="sorted")
    duplicate = lines[:11] + [reference.graph6_line(relabeled)] + lines[12:]
    return [
        ("enumeration: program output", True, reference.check_enumeration(lines, 5)),
        ("enumeration: a dropped class", False, reference.check_enumeration(lines[:7] + lines[8:], 5)),
        ("enumeration: a duplicated isomorphic class", False, reference.check_enumeration(duplicate, 5)),
    ]


def bounds_cases(work: Path) -> list[tuple[str, bool, reference.Verdict]]:
    lines = reference.connected_atlas_lines(5)
    text = _sweep(work, lines)
    check = reference.check_bound_records

    records = _records(text)
    _find(records, 3, "efgw")["lhs"] += 0.5
    perturbed = _text(records)

    records = _records(text)
    removal = next(r for r in records if r["name"] == "removal" and r["applicable"])
    removal["witness"]["drop_minus"] += 0.25
    removal_drop = _text(records)

    # The oracle corruptions go on K5, the last atlas graph: its max cut is 6,
    # a one-vertex side cuts 4, and one vertex dominates it.
    k5 = len(lines) - 1
    adj = nx.to_numpy_array(nx.from_graph6_bytes(lines[k5].encode("ascii")), dtype=np.uint8)
    worse = [0]
    cut = reference.cut_of_side(adj, worse)

    # A worse side, reported with its own (smaller) cut value.
    records = _records(text)
    surplus = _find(records, k5, "surplus")
    surplus["witness"].update(side=worse, maxcut=cut, surplus=cut - surplus["m"] / 2)
    surplus["rhs"] = (cut - surplus["m"] / 2) ** 2 / surplus["m"]
    worse_cut = _text(records)

    # The optimal cut value with a side that does not achieve it.
    records = _records(text)
    _find(records, k5, "surplus")["witness"]["side"] = worse
    wrong_side = _text(records)

    # A dominating set one vertex larger than the domination number.
    records = _records(text)
    dom = _find(records, k5, "domination")
    extra = next(v for v in range(5) if v not in dom["witness"]["dominating_set"])
    dom["witness"]["dominating_set"] = sorted(dom["witness"]["dominating_set"] + [extra])
    dom["witness"]["gamma"] += 1
    dom["rhs"] -= 1
    bigger_gamma = _text(records)
    return [
        ("bounds --set all: program output", True, check(lines, text)),
        ("bounds --set all: a perturbed lhs", False, check(lines, perturbed)),
        ("bounds --set all: a perturbed removal drop", False, check(lines, removal_drop)),
        ("bounds --set all: a non-optimal cut side", False, check(lines, worse_cut)),
        ("bounds --set all: a side that misses the reported cut", False, check(lines, wrong_side)),
        ("bounds --set all: a non-minimal dominating set", False, check(lines, bigger_gamma)),
    ]


def spectra_cases() -> list[tuple[str, bool, reference.Verdict]]:
    from sqenergy import Graph, graph_inertia, spectral_split, square_energies

    mats = reference.dense_adjacency(5, 60, (0.1, 0.4))
    digests, splits = [], {}
    for k, a in enumerate(mats):
        g = Graph.from_edges(60, [tuple(map(int, e)) for e in np.argwhere(np.triu(a))])
        energy, split, inertia = square_energies(g), spectral_split(g), graph_inertia(g)
        digests.append({
            "m": energy.m, "s_plus": energy.s_plus, "s_minus": energy.s_minus, "energy": energy.energy,
            "n_plus": inertia.n_plus, "n_zero": inertia.n_zero, "n_minus": inertia.n_minus,
        })
        splits[f"plus{k}"], splits[f"minus{k}"] = split.a_plus, split.a_minus
    bad_split = dict(splits)
    bad_split["plus1"] = splits["plus1"].copy()
    bad_split["plus1"][3, 3] += 1e-3
    bad_digest = [dict(d) for d in digests]
    bad_digest[0]["s_plus"] *= 1.0 + 1e-5
    return [
        ("spectra: program output", True, reference.check_spectra(mats, [digests, digests], splits)),
        ("spectra: a perturbed A+", False, reference.check_spectra(mats, [digests], bad_split)),
        ("spectra: a perturbed s+ in a later round", False,
         reference.check_spectra(mats, [digests, bad_digest], splits)),
    ]


def main() -> int:
    import_program()
    work = HERE / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cases = enumeration_cases(work) + bounds_cases(work) + spectra_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = 0
    for label, should_pass, verdict in cases:
        passed = not verdict.failed and not verdict.problems
        ok = passed == should_pass
        failures += not ok
        detail = "" if passed else f" ({(list(verdict.failed.values()) + verdict.problems)[0]})"
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {'accepted' if passed else 'rejected'}{detail}")
    print(f"{len(cases) - failures} of {len(cases)} checker cases behave as expected")
    return 1 if failures else 0
