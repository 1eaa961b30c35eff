"""One verdict operation per certified inequality: each evaluates the two
sides of a bound on a concrete graph and reports slack plus any witness data.

Verdicts are oriented so that ``lhs >= rhs`` is the claimed inequality and
``slack = lhs - rhs``; ``holds`` allows the global numeric tolerance.
Informational verdicts (open-ended ratio reports) are flagged and never count
as violations; hypothesis-guarded bounds report ``applicable=False`` instead
of failing when their hypothesis is not met.

Each bound reads the graph's spectral quantities and oracle results through
the library functions. Those that several bounds read (the decomposition,
the default-band square energies and the max cut) are kept per live graph,
so a sweep computes them once per graph for all bounds. ``sdp-min`` reads
the split halves and the energies and reports how far the halves miss the
minimization form. ``BOUNDS`` maps each ``--set`` name to its bound, a
function of the graph alone; the exact searches take their default budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import oracles
from .errors import ContractViolation, SquareEnergyError
from .graphs import (
    Graph,
    dominating_vertices,
    is_clique,
    is_connected,
    is_regular,
    is_star,
    isolated_vertices,
    per_graph,
)
from .oracles import SEARCH_BUDGET_N, _edges_between
from .partitions import degree_class_partition, domination_partition
from .sdp import decompose_deletions, p3_removal_witness
from .spectral import (
    EnergyReport,
    SpectralSplit,
    decompose_graphs,
    graph_inertia,
    numeric_tolerance,
    spectral_split,
    spectrum,
    split_stack,
    square_energies,
)

# Strictness margin by which the removal bound's drops must exceed 1.
REMOVAL_STRICTNESS = 1e-9


@dataclass(frozen=True)
class BoundVerdict:
    """Evaluated instance of one bound: lhs >= rhs up to tolerance."""

    bound_name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    witness: dict[str, Any] | None = None
    applicable: bool = True
    informational: bool = False


def _verdict(
    name: str, lhs: float, rhs: float, n: int, witness: dict[str, Any] | None = None,
    applicable: bool = True, informational: bool = False,
) -> BoundVerdict:
    slack = lhs - rhs
    holds = slack >= -numeric_tolerance(n)
    return BoundVerdict(name, lhs, rhs, slack, holds, witness, applicable, informational)


def bound_efgw(g: Graph) -> BoundVerdict:
    """min(s+, s-) >= n - 1 for connected graphs (conjectured in general;
    verified exhaustively at small scale)."""
    if not is_connected(g):
        raise ContractViolation("bound requires a connected graph")
    e = square_energies(g)
    return _verdict("efgw", min(e.s_plus, e.s_minus), g.n - 1, g.n)


def bound_domination(g: Graph, budget_n: int = SEARCH_BUDGET_N) -> BoundVerdict:
    """min(s+, s-) >= n - domination number."""
    cert = oracles.domination_number(g, budget_n)
    e = square_energies(g)
    partition = domination_partition(g, cert)
    witness = {"gamma": cert.gamma, "dominating_set": list(cert.witness.vertices),
               "partition": partition.as_lists()}
    low = min(e.s_plus, e.s_minus)
    return _verdict("domination", low, g.n - cert.gamma, g.n, witness)


def bound_inertia(g: Graph) -> BoundVerdict:
    """min(s+, s-) >= max(n+, n0, n-) for graphs without isolated vertices."""
    isolated = isolated_vertices(g)
    if isolated:
        raise ContractViolation(f"isolated vertex {isolated[0]}")
    e = square_energies(g)
    inert = graph_inertia(g)
    witness = {"n_plus": inert.n_plus, "n_zero": inert.n_zero, "n_minus": inert.n_minus}
    rhs = max(inert.n_plus, inert.n_zero, inert.n_minus)
    return _verdict("inertia", min(e.s_plus, e.s_minus), rhs, g.n, witness)


def bound_dominating_vertex(g: Graph) -> BoundVerdict:
    """s- >= n - 1 when some vertex is adjacent to all others; equality holds
    exactly for stars and complete graphs."""
    doms = dominating_vertices(g)
    if not doms:
        raise ContractViolation("no dominating vertex")
    e = square_energies(g)
    slack = e.s_minus - (g.n - 1)
    equality = abs(slack) <= numeric_tolerance(g.n)
    classification = "strict"
    if equality:
        classification = "clique" if is_clique(g) else "star" if is_star(g) else "unexpected"
    witness = {"dominating_vertex": doms[0], "equality": equality,
               "classification": classification}
    return _verdict("dominating-vertex", e.s_minus, g.n - 1, g.n, witness)


def bound_triangle(g: Graph) -> BoundVerdict:
    """s+ >= m^(4/3) / (n^(1/3) * lambda_1^(2/3)), via triangle counting."""
    if g.m < 1:
        raise ContractViolation("bound requires m >= 1")
    e = square_energies(g)
    lam1 = spectrum(g).values[0]
    rhs = g.m ** (4.0 / 3.0) / (g.n ** (1.0 / 3.0) * lam1 ** (2.0 / 3.0))
    return _verdict("triangle", e.s_plus, rhs, g.n, {"lambda_1": lam1})


def bound_ratio(g: Graph) -> BoundVerdict:
    """s-/s+ <= 2 n^(1/4), reported as lhs = 2 n^(1/4) >= rhs = s-/s+."""
    e = square_energies(g)
    if e.s_plus <= numeric_tolerance(g.n):
        raise ContractViolation("bound requires s+ > 0")
    ratio = e.s_minus / e.s_plus
    return _verdict("ratio", 2.0 * g.n**0.25, ratio, g.n, {"ratio": ratio})


def bound_regular(g: Graph) -> BoundVerdict:
    """s+ >= (k/4)^(2/3) * n for k-regular graphs."""
    if not is_regular(g) or g.n == 0:
        raise ContractViolation("bound requires a regular graph")
    k = g.degree(0)
    if k < 1:
        raise ContractViolation("bound requires degree >= 1")
    e = square_energies(g)
    rhs = (k / 4.0) ** (2.0 / 3.0) * g.n
    return _verdict("regular", e.s_plus, rhs, g.n, {"k": k})


def bound_alon_boppana(g: Graph) -> BoundVerdict:
    """lambda_2^2 >= (m^(4/3)/(n^(1/3) lambda_1^(2/3)) - lambda_1^2) / n when
    lambda_1 <= sqrt(m) (2n)^(-1/8); uses s+ <= lambda_1^2 + n lambda_2^2.

    Marked not applicable (never failed) when the hypothesis is not met.
    """
    if g.n < 2 or g.m < 1:
        raise ContractViolation("bound requires n >= 2 and m >= 1")
    vals = spectrum(g).values
    lam1, lam2 = vals[0], vals[1]
    threshold = math.sqrt(g.m) * (2.0 * g.n) ** (-1.0 / 8.0)
    witness = {"lambda_1": lam1, "lambda_2": lam2, "threshold": threshold}
    if lam1 > threshold:
        witness["hypothesis"] = "lambda_1 exceeds sqrt(m) (2n)^(-1/8); bound not applicable"
        return _verdict("alon-boppana", lam2 * lam2, 0.0, g.n, witness, applicable=False)
    rhs = (g.m ** (4.0 / 3.0) / (g.n ** (1.0 / 3.0) * lam1 ** (2.0 / 3.0)) - lam1 * lam1) / g.n
    return _verdict("alon-boppana", lam2 * lam2, rhs, g.n, witness)


# The exact max cut that `surplus` and `conjectures` share, searched once per
# live graph. A budget limits the search, not its result, so it is checked on
# every call and the search itself is given the graph's own size.
_shared_cut = per_graph(lambda g: oracles.max_cut(g, g.n))

# The first induced 3-vertex path of a live graph, () if it has none, which
# `removal` and a block's seeding of its vertex deletions share.
first_induced_p3 = per_graph(lambda g: oracles.find_induced_p3(g) or ())


def _max_cut(g: Graph, budget_n: int) -> oracles.CutReport:
    oracles._check_budget(g, budget_n)
    return _shared_cut(g)


def bound_surplus(g: Graph, budget_n: int = SEARCH_BUDGET_N) -> BoundVerdict:
    """min(s+, s-) >= surplus(G)^2 / m, with an optimal bipartition witness."""
    cut = _max_cut(g, budget_n)
    e = square_energies(g)
    rhs = cut.surplus**2 / g.m if g.m else 0.0
    witness = {
        "maxcut": cut.maxcut,
        "surplus": cut.surplus,
        "side": list(cut.side.vertices),
    }
    return _verdict("surplus", min(e.s_plus, e.s_minus), rhs, g.n, witness)


def certify_s_plus_pipeline(g: Graph) -> BoundVerdict:
    """Certified lower bound on s+ from the degree-class partition.

    Case 1: the head class holds at least m/(2k^2) edges; certify via the
    ratio bound on it, giving m_0 / (2 |V_0|^(1/4)). Case 2: some other class
    holds m/(2k^2) edges; certify via the triangle bound with the class's max
    degree standing in for lambda_1. Case 3: otherwise some class pair joins
    at least m/k^2 edges (the pigeonhole over pairs guarantees
    m(2 - 1/k)/k^2); certify via the surplus bound on the pair using the
    explicit cross cut, no exact maxcut needed. The certificate lifts to the
    whole graph by superadditivity.
    """
    if g.m < 1:
        raise ContractViolation("pipeline requires m >= 1")
    partition = degree_class_partition(g)
    k = len(partition.parts)
    masks = [part.members for part in partition.parts]
    sizes = [part.members.bit_count() for part in partition.parts]
    inside = [_edges_between(g.adj, mask, mask) // 2 for mask in masks]
    m = g.m
    e = square_energies(g)
    witness: dict[str, Any] = {
        "k": k,
        "class_sizes": sizes,
        "class_edges": inside,
        "partition": partition.as_lists(),
        "case_threshold": m / (2.0 * k * k),
    }

    if inside[0] >= m / (2.0 * k * k):
        certified = inside[0] / (2.0 * sizes[0] ** 0.25)
        witness["case"] = "case-1"
        return _verdict("pipeline", e.s_plus, certified, g.n, witness)

    for i in range(1, k):
        if inside[i] >= m / (2.0 * k * k):
            max_deg = max((g.adj[v] & masks[i]).bit_count() for v in partition.parts[i])
            certified = inside[i] ** (4.0 / 3.0) / (
                sizes[i] ** (1.0 / 3.0) * max_deg ** (2.0 / 3.0)
            )
            witness["case"] = "case-2"
            witness["class_index"] = i
            return _verdict("pipeline", e.s_plus, certified, g.n, witness)

    best_pair = None
    best_cross = -1
    for i in range(k):
        for j in range(i + 1, k):
            cross = _edges_between(g.adj, masks[i], masks[j])
            if cross > best_cross:
                best_cross = cross
                best_pair = (i, j)
    # Pigeonhole over the <= k^2/2 pairs guarantees the safe threshold when
    # every class misses the m/(2k^2) mark.
    if best_pair is None or best_cross < m / (k * k):
        raise AssertionError("no degree-class pair meets the safe cross-edge threshold")
    i, j = best_pair
    pair_edges = inside[i] + inside[j] + best_cross
    surplus_lb = max(0.0, (best_cross - inside[i] - inside[j]) / 2.0)
    certified = surplus_lb**2 / pair_edges if pair_edges else 0.0
    witness.update(
        case="case-3", pair=[i, j], pair_cross_edges=best_cross, pair_edges=pair_edges,
        surplus_lower_bound=surplus_lb, safe_threshold=m / (k * k),
        pigeonhole_threshold=2.0 * m / (k * k),
    )
    return _verdict("pipeline", e.s_plus, certified, g.n, witness)


def energy_wall_check(g: Graph) -> BoundVerdict:
    """Informational: energy >= 2 min(n+, n-), an open question; never
    asserted by sweeps."""
    e = square_energies(g)
    inert = graph_inertia(g)
    rhs = 2.0 * min(inert.n_plus, inert.n_minus)
    return _verdict("energy-wall", e.energy, rhs, g.n, informational=True)


def conjecture_checks(g: Graph, budget_n: int = SEARCH_BUDGET_N) -> list[BoundVerdict]:
    """Informational surplus ratios: s+ against surplus and s- against
    surplus^(6/7). No pass/fail; the constants are open."""
    cut = _max_cut(g, budget_n)
    e = square_energies(g)
    surp = cut.surplus
    ratio_plus = e.s_plus / surp if surp > 0 else None
    rhs_minus = surp ** (6.0 / 7.0)
    ratio_minus = e.s_minus / rhs_minus if surp > 0 else None
    return [
        _verdict("surplus-linear-ratio", e.s_plus, surp, g.n,
                 {"ratio": ratio_plus, "surplus": surp}, informational=True),
        _verdict("surplus-67-ratio", e.s_minus, rhs_minus, g.n,
                 {"ratio": ratio_minus, "surplus": surp}, informational=True),
    ]


def _equality_gap(a: np.ndarray, split: SpectralSplit, e: EnergyReport) -> float:
    """The larger of | ||A + A-||^2 - s+ | and | ||A - A+||^2 - s- |."""
    return max(abs(float(np.square(a + split.a_minus).sum()) - e.s_plus),
               abs(float(np.square(a - split.a_plus).sum()) - e.s_minus))


# The `sdp-min` equality gap of a live graph; ``seed_block`` seeds it.
_sdp_gap = per_graph(
    lambda g: _equality_gap(g.adjacency_matrix(), spectral_split(g), square_energies(g))
)


def _sdp_min(g: Graph) -> list[BoundVerdict]:
    """The split halves attain the PSD minimization form of s+ and s-:
    ||A + A-||^2 = s+ and ||A - A+||^2 = s- within the global tolerance. That
    no PSD M does better is the theorem, not a property of the graph."""
    gap = _sdp_gap(g)
    holds = gap <= numeric_tolerance(g.n)
    return [BoundVerdict("sdp-min", 0.0, 0.0, 0.0, holds, {"equality_gap": gap})]


def _removal(g: Graph) -> list[BoundVerdict]:
    """Some vertex of the first induced 3-vertex path drops s- by at least
    1 + ``REMOVAL_STRICTNESS``, and some drops s+ by as much; not applicable
    without such a path."""
    triple = first_induced_p3(g)
    if not triple:
        note = {"note": "no induced 3-vertex path"}
        return [BoundVerdict("removal", 0.0, 0.0, 0.0, True, note, applicable=False)]
    witness = p3_removal_witness(g, triple)
    lhs = min(witness.drop_minus, witness.drop_plus)
    fields = {"triple": list(triple), **vars(witness)}
    holds = lhs >= 1.0 + REMOVAL_STRICTNESS
    return [BoundVerdict("removal", lhs, 1.0, lhs - 1.0, holds, fields)]


# Every bound a sweep can select, in `--set all` order, each a function of
# the graph alone.
BOUNDS: dict[str, Callable[[Graph], list[BoundVerdict]]] = {
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
ALL_BOUND_NAMES = tuple(BOUNDS)


def seed_block(names: Sequence[str], graphs: Iterable[Graph]) -> None:
    """Seed what the bounds ``names`` read of a sweep's block from the stacks
    of one ``spectral.decompose_graphs`` call, one adjacency matrix a graph:
    the ``sdp-min`` gaps by one ``split_stack`` a stack, and the ``removal``
    deletions. A graph alone at its size shares no eigensolve, so it is
    seeded only if a seeded bound reads its matrix; one that fails a check
    gets its error from its own call. ROADMAP items 1 and 2 seed here too."""
    lone = lambda g: "sdp-min" in names or "removal" in names and bool(first_induced_p3(g))
    for stack, mats, entries in decompose_graphs(graphs, lone):
        if "sdp-min" in names:
            ok = [i for i, entry in enumerate(entries) if not isinstance(entry, SquareEnergyError)]
            splits = split_stack([entries[i] for i in ok], lambda rows: mats[[ok[j] for j in rows]])
            for i, split in zip(ok, splits):
                if not isinstance(split, SquareEnergyError):
                    _sdp_gap.memo[stack[i]] = _equality_gap(mats[i], split, entries[i][2])
        if "removal" in names:
            decompose_deletions(stack, mats, [first_induced_p3(g) for g in stack])
