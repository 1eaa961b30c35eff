"""Exact exponential-time oracles for the combinatorial quantities feeding the
bound certificates: domination number, maxcut/surplus, induced-path
detection, and the two structural checks of the minimal-counterexample
hunt, which answer yes or no and stop at the first violation.

All searches are deterministic (ascending-index tie-breaking) and guarded by
explicit budgets; none of them approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceeded, ContractViolation
from .graphs import (
    Graph,
    VertexSet,
    _bipartition_mask,
    _integer,
    _iter_bits,
    _least_component,
    is_connected,
)

SEARCH_BUDGET_N = 24
SUBSET_PROPERTY_BUDGET_N = 16


@dataclass(frozen=True)
class CutReport:
    """Maximum cut size, its surplus over m/2, and one optimal side."""

    maxcut: int
    surplus: float
    side: VertexSet


@dataclass(frozen=True)
class DominationCertificate:
    gamma: int
    witness: VertexSet


def _check_budget(g: Graph, budget_n: int) -> None:
    if g.n > _integer(budget_n, "budget n"):
        raise BudgetExceeded(f"exact search budget n <= {budget_n}, got n={g.n}")


def is_dominating(g: Graph, mask: int) -> bool:
    covered = mask
    for v in _iter_bits(mask):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def domination_number(g: Graph, budget_n: int = SEARCH_BUDGET_N) -> DominationCertificate:
    """Smallest dominating set, found by iterative-deepening branch and bound.

    Branches on the least-index uncovered vertex; candidate dominators are
    tried in ascending order, so the certificate is deterministic.
    """
    _check_budget(g, budget_n)
    n = g.n
    full = (1 << n) - 1
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    max_cover = max((c.bit_count() for c in closed), default=1)

    def search(covered: int, depth: int) -> int | None:
        if covered == full:
            return 0
        if depth == 0:
            return None
        missing = n - covered.bit_count()
        if (missing + max_cover - 1) // max_cover > depth:
            return None
        v = ((~covered & full) & -(~covered & full)).bit_length() - 1
        for u in _iter_bits(closed[v]):
            sub = search(covered | closed[u], depth - 1)
            if sub is not None:
                return sub | (1 << u)
        return None

    for k in range(n + 1):
        mask = search(0, k)
        if mask is not None:
            return DominationCertificate(k, VertexSet(mask, n))
    raise AssertionError("unreachable: v itself dominates v")


def _edges_between(adj: tuple[int, ...], a: int, b: int) -> int:
    """Number of (u, w) with u in ``a``, w in ``b`` and uw an edge: the edges
    between disjoint sets, twice the edges inside ``a`` when ``a == b``."""
    total = 0
    for v in _iter_bits(a):
        total += (adj[v] & b).bit_count()
    return total


def cut_size(g: Graph, side: int) -> int:
    """Number of edges with exactly one endpoint in ``side``."""
    return _edges_between(g.adj, side, ~side)


def max_cut(g: Graph, budget_n: int = SEARCH_BUDGET_N) -> CutReport:
    """Exact maximum cut by a Gray-code sweep over the 2^(n-1) bipartitions
    with vertex 0 pinned outside the reported side."""
    _check_budget(g, budget_n)
    n = g.n
    if n <= 1:
        return CutReport(0, 0.0, VertexSet(0, n))
    deg = g.degrees()
    side = 0
    cut = 0
    best = 0
    best_side = 0
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length()  # trailing zeros + 1: vertices 1..n-1 flip
        bit = 1 << v
        same = (g.adj[v] & side).bit_count()
        cut += 2 * same - deg[v] if side & bit else deg[v] - 2 * same
        side ^= bit
        if cut > best:
            best, best_side = cut, side
    if cut_size(g, best_side) != best:
        raise AssertionError("incremental cut accounting disagrees with recount")
    return CutReport(best, best - g.m / 2.0, VertexSet(best_side, n))


def _induced_p3s(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Every (u, v, w) with u < w, edges uv and vw, and uw absent, in
    lexicographic order."""
    for u in range(g.n):
        for v in _iter_bits(g.adj[u]):
            # No self-loops, so w != v; the shift keeps w > u.
            rest = g.adj[v] & ~g.adj[u]
            for w in _iter_bits(rest >> (u + 1) << (u + 1)):
                yield (u, v, w)


def find_induced_p3(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically least (u, v, w) with u < w, edges uv and vw, and uw
    absent; None exactly when the graph is a disjoint union of cliques."""
    return next(_induced_p3s(g), None)


def induces_p3(g: Graph, triple: tuple[int, int, int]) -> bool:
    u, v, w = triple
    if len({u, v, w}) != 3 or not all(0 <= x < g.n for x in triple):
        return False
    return g.has_edge(u, v) and g.has_edge(v, w) and not g.has_edge(u, w)


def cut_vertices(g: Graph) -> list[int]:
    """Vertices whose removal disconnects the graph."""
    full = (1 << g.n) - 1
    out = []
    for v in range(g.n):
        domain = full & ~(1 << v)
        if _least_component(g.adj, domain) != domain:
            out.append(v)
    return out


def check_p3_cut_vertex_property(g: Graph) -> bool:
    """For every induced 3-vertex path, does some path vertex disconnect the
    graph when removed? Vacuously true without induced paths."""
    if not is_connected(g):
        raise ContractViolation("property check requires a connected graph")
    cuts = sum(1 << v for v in cut_vertices(g))
    return all(cuts & ((1 << u) | (1 << v) | (1 << w)) for u, v, w in _induced_p3s(g))


def _masks_by_size(n: int, least: int) -> Iterator[int]:
    """The subsets of n vertices with at least ``least`` >= 1 members, as
    masks in ascending order. A candidate with fewer than ``least`` members
    takes its lowest clear bits until it has ``least``; every mask stepped
    over has too few members."""
    mask = (1 << least) - 1
    while mask >> n == 0:
        yield mask
        mask += 1
        while mask.bit_count() < least:
            mask |= mask + 1


def check_bipartite_removal_property(g: Graph) -> bool:
    """For every subset U inducing a bipartite graph with at least |U| edges,
    is the rest of the graph empty or disconnected?

    Enumerates all subsets, so graphs with n > 16 are refused.
    """
    if not is_connected(g):
        raise ContractViolation("property check requires a connected graph")
    if g.n > SUBSET_PROPERTY_BUDGET_N:
        raise BudgetExceeded(f"full subset scan limited to n <= {SUBSET_PROPERTY_BUDGET_N}")
    full = (1 << g.n) - 1
    # A bipartite subgraph with >= |U| edges needs |U| >= 4.
    for mask in _masks_by_size(g.n, 4):
        if _edges_between(g.adj, mask, mask) // 2 < mask.bit_count():
            continue
        if _bipartition_mask(g.adj, mask) is None:
            continue
        rest = full & ~mask
        if rest and _least_component(g.adj, rest) == rest:
            return False
    return True
