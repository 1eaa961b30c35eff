"""Inputs and output checks made apart from the program.

Nothing here imports ``sqenergy``. Inputs come from seeded numpy generators
and ``networkx.graph_atlas_g()``; every check recomputes what it needs with
networkx's graph6 reader, ``numpy.linalg.eigvalsh`` and brute force. A check
returns the indices of the operations it rejects plus a list of problems; a
problem that no single operation explains (a missing class, a wrong count)
makes the whole run incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import networkx as nx
import numpy as np

# OEIS A000088 (graphs on n vertices) and A001349 (connected graphs).
A000088 = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# Record names written by `bounds --set all`, in order, for every graph.
ALL_RECORD_NAMES = (
    "efgw", "domination", "inertia", "dominating-vertex", "triangle", "ratio",
    "regular", "alon-boppana", "surplus", "pipeline", "energy-wall",
    "surplus-linear-ratio", "surplus-67-ratio", "sdp-min", "removal",
)

# The hashes only bucket candidates for isomorphism tests; their change of
# values in networkx 3.5 does not matter here.
warnings.filterwarnings("ignore", message="The hashes produced for graphs", category=UserWarning)

# Relative agreement demanded between a program value and its recomputation.
REL_TOL = 1e-7


@dataclass
class Verdict:
    """Operations a check rejected (index -> reason), and problems of the
    whole output that no single operation explains."""

    failed: dict[int, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def reject(self, index: int, why: str) -> None:
        self.failed.setdefault(index, why)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def graph6_line(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def atlas_graphs(n: int) -> list[nx.Graph]:
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]


def connected_atlas_lines(n: int) -> list[str]:
    """graph6 lines of the connected atlas graphs on n vertices, atlas order."""
    return [graph6_line(g) for g in atlas_graphs(n) if nx.is_connected(g)]


def dense_adjacency(seed: int, n: int, densities: tuple[float, ...]) -> list[np.ndarray]:
    """Seeded G(n, M) adjacency matrices (uint8) with M = round(p n(n-1)/2),
    one per density p. The edge count is fixed so that array sizes, and with
    them the allocator's behaviour and peak memory, do not vary with the seed."""
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, 1)
    mats = []
    for p in densities:
        chosen = rng.choice(len(rows), size=round(p * len(rows)), replace=False)
        adj = np.zeros((n, n), dtype=np.uint8)
        adj[rows[chosen], cols[chosen]] = 1
        mats.append(adj | adj.T)
    return mats


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")


# ---------------------------------------------------------------------------
# Independent graph facts
# ---------------------------------------------------------------------------


def maxcut_brute_force(adj: np.ndarray) -> int:
    """Largest cut over all 2^(n-1) bipartitions with vertex n-1 kept out.

    Builds the cut value of every side S over vertices 0..n-2 by doubling:
    adding vertex k to S changes the cut by deg(k) - 2 |N(k) & S|.
    """
    n = adj.shape[0]
    if n <= 1:
        return 0
    deg = adj.sum(axis=1).astype(np.int64)
    nbr = [int(sum(1 << j for j in np.flatnonzero(adj[k]))) for k in range(n)]
    cuts = np.zeros(1, dtype=np.int64)
    masks = np.zeros(1, dtype=np.uint64)
    for k in range(n - 1):
        gain = deg[k] - 2 * np.bitwise_count(masks & np.uint64(nbr[k])).astype(np.int64)
        cuts = np.concatenate([cuts, cuts + gain])
        masks = np.concatenate([masks, masks | np.uint64(1 << k)])
    return int(cuts.max())


def cut_of_side(adj: np.ndarray, side: list[int]) -> int:
    inside = np.zeros(adj.shape[0], dtype=bool)
    inside[list(side)] = True
    return int(adj[inside][:, ~inside].sum())


def closed_neighbourhoods(adj: np.ndarray) -> list[int]:
    return [int(sum(1 << j for j in np.flatnonzero(adj[v]))) | (1 << v) for v in range(len(adj))]


def dominates(closed: list[int], vertices) -> bool:
    covered = 0
    for v in vertices:
        covered |= closed[v]
    return covered == (1 << len(closed)) - 1


def no_dominating_set_of_size(closed: list[int], k: int) -> bool:
    """True when no k vertices dominate; a dominating set of size < k pads up
    to one of size k, so this shows the domination number exceeds k."""
    if k <= 0:
        return True
    return not any(dominates(closed, c) for c in itertools.combinations(range(len(closed)), k))


class Facts:
    """Quantities of one graph recomputed from its adjacency matrix."""

    def __init__(self, adj: np.ndarray):
        self.adj = adj
        self.n = adj.shape[0]
        self.m = int(adj.sum()) // 2
        self.zero_band = 1e-8 * self.n

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.adj.astype(np.float64))[::-1]

    def energies_of(self, values: np.ndarray) -> tuple[float, float]:
        plus = values[values > self.zero_band]
        minus = values[values < -self.zero_band]
        return float(np.square(plus).sum()), float(np.square(minus).sum())

    @cached_property
    def s_pm(self) -> tuple[float, float]:
        return self.energies_of(self.eigenvalues)

    @cached_property
    def inertia(self) -> tuple[int, int, int]:
        w = self.eigenvalues
        plus = int((w > self.zero_band).sum())
        minus = int((w < -self.zero_band).sum())
        return plus, self.n - plus - minus, minus

    @cached_property
    def maxcut(self) -> int:
        return maxcut_brute_force(self.adj)

    @cached_property
    def closed(self) -> list[int]:
        return closed_neighbourhoods(self.adj)

    def s_pm_without(self, v: int) -> tuple[float, float]:
        keep = [u for u in range(self.n) if u != v]
        return self.energies_of(np.linalg.eigvalsh(self.adj[np.ix_(keep, keep)].astype(np.float64)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_enumeration(lines: list[str], n: int) -> Verdict:
    """One class per line: all parse to n-vertex graphs, none isomorphic to
    another, the counts match OEIS and every atlas graph on n vertices is
    among them."""
    verdict = Verdict()
    buckets: dict[str, list[nx.Graph]] = {}
    classes = connected = 0
    for index, line in enumerate(lines):
        try:
            g = nx.from_graph6_bytes(line.encode("ascii"))
        except (nx.NetworkXError, ValueError, UnicodeEncodeError) as exc:
            verdict.reject(index, f"unreadable graph6 {line!r}: {exc}")
            continue
        if g.number_of_nodes() != n:
            verdict.reject(index, f"{line} has {g.number_of_nodes()} vertices, expected {n}")
            continue
        bucket = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, iterations=3), [])
        if any(nx.is_isomorphic(g, h) for h in bucket):
            verdict.reject(index, f"{line} is isomorphic to an earlier class")
            continue
        bucket.append(g)
        classes += 1
        connected += nx.is_connected(g)
    if classes != A000088[n]:
        verdict.problems.append(f"{classes} distinct classes, OEIS A000088 says {A000088[n]}")
    if connected != A001349[n]:
        verdict.problems.append(f"{connected} connected classes, OEIS A001349 says {A001349[n]}")
    for g in atlas_graphs(n):
        bucket = buckets.get(nx.weisfeiler_lehman_graph_hash(g, iterations=3), [])
        if not any(nx.is_isomorphic(g, h) for h in bucket):
            verdict.problems.append(f"atlas graph {graph6_line(g)} is not covered")
            break
    return verdict


def _verdict_holds(r: dict, n: int) -> bool:
    if not r["applicable"] or r["informational"]:
        return True
    return r["holds"] is True and r["lhs"] - r["rhs"] >= -1e-8 * max(1, n)


def _check_record(name: str, r: dict, f: Facts) -> str | None:
    """Problem with one record of `bounds`, or None."""
    s_plus, s_minus = f.s_pm
    low = min(s_plus, s_minus)
    n, m = f.n, f.m
    degrees = f.adj.sum(axis=1)
    expected_skip = {
        "dominating-vertex": not (degrees == n - 1).any(),
        "regular": len(set(degrees.tolist())) != 1 or degrees[0] == 0,
        "triangle": m < 1,
        "ratio": s_plus <= 1e-8 * max(1, n),
    }.get(name, False)
    if r["status"] not in ("ok", "skipped"):
        return f"{name} has status {r['status']}"
    if (r["status"] == "skipped") != expected_skip:
        return f"{name} has status {r['status']} (reason {r['reason']!r}), expected the other"
    if r["status"] == "skipped":
        return None
    if not _verdict_holds(r, n):
        return f"{name} verdict fails: lhs {r['lhs']} rhs {r['rhs']}"
    w = r["witness"] or {}
    lam = f.eigenvalues
    if name in ("efgw", "domination", "inertia", "surplus") and not close(r["lhs"], low):
        return f"{name} lhs {r['lhs']} != min(s+, s-) {low}"
    if name == "efgw" and r["rhs"] != n - 1:
        return f"efgw rhs {r['rhs']} != n - 1"
    if name == "domination":
        gamma = w.get("gamma")
        chosen = w.get("dominating_set", [])
        if len(chosen) != gamma or not dominates(f.closed, chosen):
            return f"dominating set {chosen} does not dominate with gamma {gamma}"
        if not no_dominating_set_of_size(f.closed, gamma - 1):
            return f"gamma {gamma} is not minimal"
        if r["rhs"] != n - gamma:
            return f"domination rhs {r['rhs']} != n - gamma"
    if name == "inertia" and ((w.get("n_plus"), w.get("n_zero"), w.get("n_minus")) != f.inertia or r["rhs"] != max(f.inertia)):
        return f"inertia {w} != {f.inertia}"
    if name == "dominating-vertex" and not (close(r["lhs"], s_minus) and r["rhs"] == n - 1):
        return f"dominating-vertex lhs {r['lhs']} != s- {s_minus}"
    if name == "triangle":
        rhs = m ** (4 / 3) / (n ** (1 / 3) * lam[0] ** (2 / 3))
        if not (close(r["lhs"], s_plus) and close(r["rhs"], rhs)):
            return f"triangle sides {r['lhs']}, {r['rhs']} != {s_plus}, {rhs}"
    if name == "ratio" and not (close(r["lhs"], 2 * n**0.25) and close(r["rhs"], s_minus / s_plus)):
        return f"ratio rhs {r['rhs']} != s-/s+ {s_minus / s_plus}"
    if name == "regular" and not (close(r["lhs"], s_plus) and close(r["rhs"], (degrees[0] / 4) ** (2 / 3) * n)):
        return f"regular sides {r['lhs']}, {r['rhs']} disagree"
    if name == "alon-boppana":
        if not close(r["lhs"], lam[1] ** 2):
            return f"alon-boppana lhs {r['lhs']} != lambda_2^2 {lam[1] ** 2}"
        threshold = math.sqrt(m) * (2 * n) ** (-1 / 8)
        if abs(lam[0] - threshold) > 1e-9 and r["applicable"] != (lam[0] <= threshold):
            return "alon-boppana applicability disagrees with lambda_1"
    if name in ("surplus", "surplus-linear-ratio", "surplus-67-ratio"):
        surplus = f.maxcut - m / 2
        if name == "surplus":
            side = w.get("side", [])
            if w.get("maxcut") != f.maxcut:
                return f"maxcut {w.get('maxcut')} != brute force {f.maxcut}"
            if cut_of_side(f.adj, side) != f.maxcut:
                return f"side {side} cuts {cut_of_side(f.adj, side)} edges, not {f.maxcut}"
            if not close(r["rhs"], surplus**2 / m if m else 0.0):
                return f"surplus rhs {r['rhs']} != surplus^2/m"
        elif name == "surplus-linear-ratio" and not (close(r["lhs"], s_plus) and close(r["rhs"], surplus)):
            return "surplus-linear-ratio sides disagree"
        elif name == "surplus-67-ratio" and not (close(r["lhs"], s_minus) and close(r["rhs"], surplus ** (6 / 7))):
            return "surplus-67-ratio sides disagree"
    if name == "pipeline" and not close(r["lhs"], s_plus):
        return f"pipeline lhs {r['lhs']} != s+ {s_plus}"
    if name == "energy-wall" and not close(r["lhs"], float(np.abs(lam).sum())):
        return f"energy {r['lhs']} != sum |lambda|"
    if name == "sdp-min" and not (w.get("equality_gap", 1.0) <= 1e-8 * max(1, n)):
        return f"sdp-min equality gap {w.get('equality_gap')}"
    if name == "removal":
        has_p3 = any(
            f.adj[u, v] and f.adj[v, x] and not f.adj[u, x]
            for u, v, x in itertools.permutations(range(n), 3)
        )
        if r["applicable"] != has_p3:
            return "removal applicability disagrees with induced P3 search"
        if has_p3:
            u, v, x = w["triple"]
            if not (f.adj[u, v] and f.adj[v, x] and not f.adj[u, x]):
                return f"triple {w['triple']} is not an induced P3"
            drop_minus = s_minus - f.s_pm_without(w["vertex_minus"])[1]
            drop_plus = s_plus - f.s_pm_without(w["vertex_plus"])[0]
            if not (close(w["drop_minus"], drop_minus) and close(w["drop_plus"], drop_plus)):
                return "removal drops disagree with recomputation"
            if not (min(drop_minus, drop_plus) > 1 and close(r["lhs"], min(drop_minus, drop_plus))):
                return "removal drop does not exceed 1"
    return None


def check_bound_records(lines: list[str], text: str) -> Verdict:
    """`bounds --set all` JSON lines for the graphs in ``lines``: one record
    per name in ``ALL_RECORD_NAMES`` per graph, in input order, each verdict
    recomputed."""
    verdict = Verdict()
    per_graph: dict[int, list[dict]] = {}
    for row, raw in enumerate(text.splitlines()):
        try:
            record = json.loads(raw)
            per_graph.setdefault(int(record["graph_index"]), []).append(record)
        except (ValueError, KeyError, TypeError):
            verdict.problems.append(f"record line {row} is not a record: {raw[:80]!r}")
    if set(per_graph) - set(range(len(lines))):
        verdict.problems.append("records name graphs that are not in the input")
    for index, line in enumerate(lines):
        records = per_graph.get(index, [])
        if [r.get("name") for r in records] != list(ALL_RECORD_NAMES):
            verdict.reject(index, f"record names {[r.get('name') for r in records]}")
            continue
        g = nx.from_graph6_bytes(line.encode("ascii"))
        facts = Facts(nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()), dtype=np.uint8))
        for r in records:
            if (r["graph6"], r["n"], r["m"]) != (line, facts.n, facts.m):
                verdict.reject(index, f"record describes {r['graph6']} not {line}")
                break
            problem = _check_record(r["name"], r, facts)
            if problem:
                verdict.reject(index, f"{line}: {problem}")
                break
    return verdict


def check_spectra(mats: list[np.ndarray], digests: list[list[dict]], splits: dict[str, np.ndarray]) -> Verdict:
    """Library results on dense graphs. ``digests`` holds, per round, one
    scalar summary per graph; ``splits`` holds the first round's A+ and A-."""
    verdict = Verdict()
    facts = [Facts(a) for a in mats]
    for rnd, digest in enumerate(digests):
        if len(digest) != len(mats):
            verdict.problems.append(f"round {rnd} reports {len(digest)} graphs, expected {len(mats)}")
            continue
        for k, (d, f) in enumerate(zip(digest, facts)):
            index = rnd * len(mats) + k
            s_plus, s_minus = f.s_pm
            if "error" in d:
                verdict.reject(index, f"graph {k}: {d['error']}")
            elif d["m"] != f.m or (d["n_plus"], d["n_zero"], d["n_minus"]) != f.inertia:
                verdict.reject(index, f"graph {k}: m or inertia {d} disagree with {f.m}, {f.inertia}")
            elif not (close(d["s_plus"], s_plus) and close(d["s_minus"], s_minus)):
                verdict.reject(index, f"graph {k}: s+/s- {d['s_plus']}, {d['s_minus']} != {s_plus}, {s_minus}")
            elif not close(d["s_plus"] + d["s_minus"], 2 * f.m):
                verdict.reject(index, f"graph {k}: s+ + s- != 2m")
            elif not close(d["energy"], float(np.abs(f.eigenvalues).sum())):
                verdict.reject(index, f"graph {k}: energy {d['energy']} disagrees")
            elif rnd == 0:
                problem = _check_split(f, splits.get(f"plus{k}"), splits.get(f"minus{k}"))
                if problem:
                    verdict.reject(index, f"graph {k}: {problem}")
    return verdict


def _check_split(f: Facts, a_plus: np.ndarray, a_minus: np.ndarray) -> str | None:
    band = 1e-8 * f.n
    if a_plus is None or a_minus is None:
        return "A+/A- missing"
    if np.max(np.abs(a_plus - a_minus - f.adj)) > band:
        return "A+ - A- != A"
    s_plus, s_minus = f.s_pm
    if not (close(float(np.square(a_plus).sum()), s_plus) and close(float(np.square(a_minus).sum()), s_minus)):
        return "||A+||_F^2 != s+ or ||A-||_F^2 != s-"
    n_plus, _, n_minus = f.inertia
    w = f.eigenvalues
    # A+ carries the positive eigenvalues of A, A- the magnitudes of the negative ones.
    for mat, expected in ((a_plus, w[:n_plus]), (a_minus, -w[::-1][:n_minus])):
        got = np.linalg.eigvalsh(mat)[::-1]
        if np.max(np.abs(got[: len(expected)] - expected), initial=0.0) > band:
            return "nonzero eigenvalues of A+/A- differ from those of A"
        if np.max(np.abs(got[len(expected) :]), initial=0.0) > band:
            return "A+/A- has more nonzero eigenvalues than A has of that sign"
    return None
