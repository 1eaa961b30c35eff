"""Constructive vertex partitions and the superadditivity certificate.

Three partition builders are provided:

* ``star_clique_partition`` splits any graph without isolated vertices into
  parts of size >= 2, each inducing a star or a clique, following an
  inductive leaf-pruning argument on a BFS spanning tree.
* ``domination_partition`` groups every vertex with its least dominating
  neighbor, so each block has a dominating vertex.
* ``degree_class_partition`` buckets vertices into doubly-exponentially
  shrinking degree ranges below the 0.5 * m^(3/7) head class.

``certify_superadditivity`` checks s+/s- of the whole graph against the sums
over any partition's induced subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation
from .graphs import (
    Graph,
    VertexSet,
    _iter_bits,
    _least_component,
    induced_subgraph,
    is_clique,
    is_star,
    isolated_vertices,
)
from .oracles import DominationCertificate, is_dominating
from .spectral import numeric_tolerance, square_energies


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint vertex sets covering all vertices, with per-part tags.

    Parts must be non-empty except for ``degree-class-*`` labels, where empty
    classes are retained so class indices are stable.
    """

    parts: tuple[VertexSet, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.labels):
            raise ContractViolation("parts and labels must have equal length")
        if not self.parts:
            return
        ambient = self.parts[0].ambient_n
        seen = 0
        for part, label in zip(self.parts, self.labels):
            if part.ambient_n != ambient:
                raise ContractViolation("parts disagree on the ambient vertex count")
            if part.members == 0 and not label.startswith("degree-class-"):
                raise ContractViolation(f"empty part labeled {label!r}")
            if part.members & seen:
                raise ContractViolation("parts are not pairwise disjoint")
            seen |= part.members
        if seen != (1 << ambient) - 1:
            raise ContractViolation("parts do not cover the vertex set")

    @property
    def ambient_n(self) -> int:
        return self.parts[0].ambient_n if self.parts else 0

    def as_lists(self) -> list[list[int]]:
        return [list(part.vertices) for part in self.parts]


@dataclass(frozen=True)
class SuperadditivityReport:
    """s+/s- of a graph versus the part-wise sums over a vertex partition."""

    s_plus_total: float
    s_minus_total: float
    part_s_plus: tuple[float, ...]
    part_s_minus: tuple[float, ...]
    slack_plus: float
    slack_minus: float
    tolerance: float
    holds: bool


def _bfs_tree_adjacency(adj: tuple[int, ...], comp: int, root: int) -> dict[int, int]:
    """Spanning-tree adjacency (as bitsets) of the component ``comp`` from a
    BFS rooted at ``root`` with ascending neighbor order."""
    tree: dict[int, int] = {v: 0 for v in _iter_bits(comp)}
    order = [root]
    seen = 1 << root
    idx = 0
    while idx < len(order):
        v = order[idx]
        idx += 1
        for w in _iter_bits(adj[v] & comp & ~seen):
            tree[v] |= 1 << w
            tree[w] |= 1 << v
            seen |= 1 << w
            order.append(w)
    return tree


def _classify_part(g: Graph, mask: int) -> str:
    sub = induced_subgraph(g, VertexSet(mask, g.n))
    if is_clique(sub):
        return "clique"
    if is_star(sub):
        return "star"
    raise AssertionError("part is neither a star nor a clique")


def star_clique_partition(g: Graph) -> Partition:
    """Partition into parts of size >= 2 inducing stars or cliques.

    Deterministic choices: the processed component is the one containing the
    least remaining vertex, its spanning tree is a BFS from that vertex, the
    branch vertex is the least vertex with a tree-leaf neighbor, and a leaf
    edge is picked lexicographically.
    """
    isolated = isolated_vertices(g)
    if isolated:
        raise ContractViolation(f"isolated vertex {isolated[0]}")
    remaining = (1 << g.n) - 1
    parts: list[VertexSet] = []
    labels: list[str] = []
    while remaining:
        root = (remaining & -remaining).bit_length() - 1
        comp = _least_component(g.adj, remaining)
        if comp.bit_count() <= 3:
            part = comp
        else:
            tree = _bfs_tree_adjacency(g.adj, comp, root)
            leaves = 0
            for v, nbrs in tree.items():
                if nbrs.bit_count() == 1:
                    leaves |= 1 << v
            u = next(v for v in _iter_bits(comp) if tree[v] & leaves)
            leaf_set = tree[u] & leaves
            pair = None
            for v1 in _iter_bits(leaf_set):
                others = g.adj[v1] & leaf_set & ~((1 << (v1 + 1)) - 1)
                if others:
                    pair = (1 << v1) | (others & -others)
                    break
            part = pair if pair is not None else (1 << u) | leaf_set
        parts.append(VertexSet(part, g.n))
        labels.append(_classify_part(g, part))
        remaining &= ~part
    return Partition(tuple(parts), tuple(labels))


def domination_partition(g: Graph, d: DominationCertificate) -> Partition:
    """One block per dominator: the dominator plus every non-dominator whose
    least dominating neighbor it is. Each block has a dominating vertex."""
    if d.witness.ambient_n != g.n:
        raise ContractViolation("witness ambient size does not match the graph")
    if not is_dominating(g, d.witness.members):
        raise ContractViolation("witness is not a dominating set")
    dominators = list(d.witness.vertices)
    blocks = {i: 1 << i for i in dominators}
    dmask = d.witness.members
    for v in range(g.n):
        if (dmask >> v) & 1:
            continue
        owner = (g.adj[v] & dmask & -(g.adj[v] & dmask)).bit_length() - 1
        blocks[owner] |= 1 << v
    parts = tuple(VertexSet(blocks[i], g.n) for i in dominators)
    return Partition(parts, ("dominated-block",) * len(parts))


def degree_class_thresholds(m: int) -> list[tuple[float, float]]:
    """Half-open degree ranges [lower, upper) per class; class 0 is unbounded
    above and the last class reaches down to degree 1."""
    if m < 1:
        raise ContractViolation("degree classes need m >= 1")
    head = 0.5 * m ** (3.0 / 7.0)
    if head <= 1.0:
        return [(1.0, float("inf"))]
    ranges = [(head, float("inf"))]
    i = 1
    while True:
        upper = 2.0 ** -(2 ** (i - 1)) * m ** (3.0 / 7.0)
        lower = 2.0 ** -(2**i) * m ** (3.0 / 7.0)
        if lower <= 1.0:
            ranges.append((1.0, upper))
            return ranges
        ranges.append((lower, upper))
        i += 1


def degree_class_partition(g: Graph) -> Partition:
    """Bucket vertices by degree into the head class (degree >= 0.5*m^(3/7))
    and doubly-exponentially shrinking ranges below it. Empty classes are
    retained with their index."""
    if g.m < 1:
        raise ContractViolation("degree-class partition needs m >= 1")
    isolated = isolated_vertices(g)
    if isolated:
        raise ContractViolation(f"isolated vertex {isolated[0]}")
    ranges = degree_class_thresholds(g.m)
    masks = [0] * len(ranges)
    for v in range(g.n):
        deg = g.adj[v].bit_count()
        for i, (lower, upper) in enumerate(ranges):
            if lower <= deg < upper:
                masks[i] |= 1 << v
                break
        else:
            raise AssertionError(f"degree {deg} not covered by class ranges")
    parts = tuple(VertexSet(mask, g.n) for mask in masks)
    labels = tuple(f"degree-class-{i}" for i in range(len(parts)))
    return Partition(parts, labels)


def certify_superadditivity(g: Graph, p: Partition) -> SuperadditivityReport:
    """Compare s+/s- of the whole graph with the sums over the partition's
    induced subgraphs; slack below -tolerance flags a violation."""
    # Partition itself guarantees disjoint parts covering its ambient set.
    if p.ambient_n != g.n:
        raise ContractViolation("partition does not match the graph")
    whole = square_energies(g)
    parts = [square_energies(induced_subgraph(g, part)) for part in p.parts]
    part_plus = [report.s_plus for report in parts]
    part_minus = [report.s_minus for report in parts]
    tau = numeric_tolerance(g.n)
    slack_plus = whole.s_plus - sum(part_plus)
    slack_minus = whole.s_minus - sum(part_minus)
    return SuperadditivityReport(
        whole.s_plus,
        whole.s_minus,
        tuple(part_plus),
        tuple(part_minus),
        slack_plus,
        slack_minus,
        tau,
        slack_plus >= -tau and slack_minus >= -tau,
    )
