"""Graph type, graph6 text I/O, graph algebra, and exhaustive enumeration of
small graphs up to isomorphism.

Vertices are integers ``0..n-1``. Adjacency is stored as one Python-int bitset
per vertex, so structural algorithms (components, subset searches, canonical
forms) run on plain integer arithmetic and every value is immutable and
hashable. Each isomorphism class is represented by its canonical form, the
relabeling with the least column-major upper-triangle key; the classes on n
vertices are generated in ascending key order from those on n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, ContractViolation, Graph6Error

GRAPH6_MAX_N = 62
ENUMERATION_MAX_N = 8
CANONICAL_MAX_N = 8


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus one adjacency bitset per row."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ContractViolation(f"vertex count must be >= 0, got {self.n}")
        if len(self.adj) != self.n:
            raise ContractViolation(
                f"expected {self.n} adjacency rows, got {len(self.adj)}"
            )
        full = (1 << self.n) - 1
        upper = 0
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ContractViolation(f"row {i} has bits outside 0..{self.n - 1}")
            if (row >> i) & 1:
                raise ContractViolation(f"self-loop at vertex {i}")
            above = row >> (i + 1) << (i + 1)
            for j in _iter_bits(above):
                if not (self.adj[j] >> i) & 1:
                    raise ContractViolation(f"adjacency not symmetric at ({i}, {j})")
            upper += above.bit_count()
        # Every edge above the diagonal is mirrored below it; any further bit
        # below the diagonal has no mirror above.
        if 2 * upper != sum(row.bit_count() for row in self.adj):
            i, j = next(
                (i, j) for j, row in enumerate(self.adj)
                for i in _iter_bits(row & ((1 << j) - 1)) if not (self.adj[i] >> j) & 1
            )
            raise ContractViolation(f"adjacency not symmetric at ({i}, {j})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ContractViolation(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def m(self) -> int:
        """Number of edges (half the total adjacency popcount)."""
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in _iter_bits(rest):
                out.append((u, v))
        return out

    def adjacency_matrix(self, dtype: type = np.float64) -> np.ndarray:
        """Dense 0/1 adjacency matrix, unpacked from the row bitsets."""
        width = (self.n + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in self.adj)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(self.n, width)
        return np.unpackbits(rows, axis=1, count=self.n, bitorder="little").astype(dtype)


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices of an ``ambient_n``-vertex graph, as a bitset."""

    members: int
    ambient_n: int

    def __post_init__(self):
        if self.ambient_n < 0:
            raise ContractViolation("ambient_n must be >= 0")
        if self.members < 0 or self.members >> self.ambient_n:
            raise ContractViolation(
                f"members outside 0..{self.ambient_n - 1}: {bin(self.members)}"
            )

    @classmethod
    def of(cls, vertices: Iterable[int], ambient_n: int) -> "VertexSet":
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return cls(mask, ambient_n)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.members))

    def __len__(self) -> int:
        return self.members.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.ambient_n and bool((self.members >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.members)


# ---------------------------------------------------------------------------
# graph6 text format (short form, n <= 62)
#
# Byte 0 is n + 63. The body packs the upper adjacency triangle read
# column-major ((0,1), (0,2), (1,2), (0,3), ...) into 6-bit groups, most
# significant bit first, each group stored as value + 63; the final group is
# zero-padded.
# ---------------------------------------------------------------------------


def write_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got n={g.n}")
    chunks = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        chunks.append(chr(63 + (acc << (6 - nbits))))
    return "".join(chunks)


def parse_graph6(line: str) -> Graph:
    if not line:
        raise Graph6Error("empty graph6 string", offset=0)
    b0 = ord(line[0])
    if b0 < 63 or b0 > 126:
        raise Graph6Error(f"size byte {b0} out of range 63..126", offset=0)
    if b0 == 126:
        raise Graph6Error("long-form size prefix (n > 62) not supported", offset=0)
    n = b0 - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = line[1:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated body: expected {nbytes} bytes, got {len(body)}",
            offset=len(line),
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after graph6 body", offset=1 + nbytes)
    positions = [(i, j) for j in range(n) for i in range(j)]
    rows = [0] * n
    pos = 0
    for k, ch in enumerate(body):
        val = ord(ch)
        if val < 63 or val > 126:
            raise Graph6Error(f"body byte {val} out of range 63..126", offset=1 + k)
        val -= 63
        for b in range(5, -1, -1):
            bit = (val >> b) & 1
            if pos >= nbits:
                if bit:
                    raise Graph6Error("nonzero padding bits", offset=1 + k)
                continue
            if bit:
                i, j = positions[pos]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Graph algebra
# ---------------------------------------------------------------------------


def _induced_rows(adj: Sequence[int], verts: Sequence[int]) -> tuple[int, ...]:
    index = {v: a for a, v in enumerate(verts)}
    rows = []
    for v in verts:
        bits = 0
        for w in _iter_bits(adj[v]):
            a = index.get(w)
            if a is not None:
                bits |= 1 << a
        rows.append(bits)
    return tuple(rows)


def induced_subgraph(g: Graph, s: VertexSet) -> Graph:
    """Subgraph induced on ``s``, vertices relabeled in ascending original order."""
    if s.ambient_n != g.n:
        raise ContractViolation(
            f"vertex set over {s.ambient_n} vertices applied to graph on {g.n}"
        )
    verts = s.vertices
    return Graph(len(verts), _induced_rows(g.adj, verts))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ContractViolation(f"vertex {v} out of range for n={g.n}")
    keep = [u for u in range(g.n) if u != v]
    return Graph(g.n - 1, _induced_rows(g.adj, keep))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((~g.adj[i]) & full & ~(1 << i) for i in range(g.n))
    return Graph(g.n, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    low = (1 << g.n) - 1
    high = ((1 << h.n) - 1) << g.n
    rows = [row | high for row in g.adj]
    rows += [(row << g.n) | low for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Graph with vertex ``i`` renamed to ``perm[i]``."""
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(g.n)):
        raise ContractViolation("perm must be a permutation of 0..n-1")
    old = [0] * g.n
    for i, p in enumerate(perm):
        old[p] = i
    return Graph(g.n, _induced_rows(g.adj, old))


def _component_masks(adj: Sequence[int], domain: int) -> list[int]:
    """Connected components of the subgraph induced on ``domain``, as masks,
    ordered by least element."""
    comps = []
    rest = domain
    while rest:
        start = (rest & -rest).bit_length() - 1
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in _iter_bits(frontier):
                nxt |= adj[v]
            nxt &= domain & ~seen
            seen |= nxt
            frontier = nxt
        comps.append(seen)
        rest &= ~seen
    return comps


def connected_components(g: Graph) -> list[VertexSet]:
    full = (1 << g.n) - 1
    return [VertexSet(mask, g.n) for mask in _component_masks(g.adj, full)]


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(_component_masks(g.adj, (1 << g.n) - 1)) == 1


def _bipartition_mask(adj: Sequence[int], domain: int) -> int | None:
    """One side of a 2-coloring of the subgraph on ``domain``, or None."""
    color0 = 0
    colored = 0
    for mask in _component_masks(adj, domain):
        start = (mask & -mask).bit_length() - 1
        color0 |= 1 << start
        colored |= 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            for v in _iter_bits(frontier):
                here = (1 << v) & color0
                nbrs = adj[v] & mask
                if here:
                    if nbrs & color0:
                        return None
                else:
                    if nbrs & colored & ~color0:
                        return None
                    color0 |= nbrs & ~colored
                nxt |= nbrs & ~colored
            colored |= nxt
            frontier = nxt
    return color0


def is_bipartite(g: Graph) -> bool:
    return _bipartition_mask(g.adj, (1 << g.n) - 1) is not None


def is_clique(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_star(g: Graph) -> bool:
    """True for K_{1,n-1} with n >= 2 (a single center adjacent to all leaves)."""
    if g.n < 2:
        return False
    return g.m == g.n - 1 and max(g.degrees()) == g.n - 1


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def is_regular(g: Graph) -> bool:
    return g.n == 0 or len(set(g.degrees())) == 1


def dominating_vertices(g: Graph) -> list[int]:
    """Vertices adjacent to every other vertex."""
    return [v for v in range(g.n) if g.degree(v) == g.n - 1]


def isolated_vertices(g: Graph) -> list[int]:
    return [v for v in range(g.n) if g.adj[v] == 0]


# ---------------------------------------------------------------------------
# Canonical forms and enumeration up to isomorphism
#
# The key of a vertex order v_0, ..., v_{n-1} is the upper adjacency triangle
# read column-major, as in graph6: column j holds the adjacency of v_j to
# v_0, ..., v_{j-1}, v_0 most significant. The canonical key is the least key
# over all orders, and the canonical form is the graph relabeled by an order
# that reaches it.
#
# The columns are fixed-width and concatenated, so the least key is found
# level by level: keep every partial order whose key prefix is least, and
# extend it only by the remaining vertices of least column. Twins (vertices
# whose neighbourhoods agree outside the pair) are interchangeable: swapping
# two remaining twins is an automorphism that fixes the chosen prefix, so only
# the least of them is branched on. Without that, empty and complete graphs
# would branch n! ways.
#
# The key is hereditary: a canonical graph's key without its last column is
# the key of the graph with its last vertex deleted, and that key must be
# least too, so the parent is canonical. Every class on n vertices therefore
# extends a canonical parent on n-1 vertices by a last column, and is kept
# exactly when that extension is its own canonical form (Read's orderly
# generation). Parents in ascending key order, each with ascending last
# columns, give the classes in ascending key order with no store of the
# classes already seen.
# ---------------------------------------------------------------------------


def _canonical_search(adj: Sequence[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Least key of the graph on rows ``adj`` and one vertex order reaching it."""
    if n > CANONICAL_MAX_N:
        raise BudgetExceeded(f"canonical form supported for n <= {CANONICAL_MAX_N}")
    # Bit w of lower_twins[u] is set for each twin w < u.
    lower_twins = [
        sum(1 << w for w in range(u) if not (adj[u] ^ adj[w]) & ~(1 << u | 1 << w))
        for u in range(n)
    ]
    # Each node is a chosen order and its remaining vertices grouped by their
    # column against that order, as (column, mask) cells in ascending column.
    nodes = [((), [(0, (1 << n) - 1)])]
    key = 0
    for level in range(n):
        best = min(cells[0][0] for _, cells in nodes)
        key = key << level | best
        children = []
        for order, cells in nodes:
            head, first = cells[0]
            if head != best:
                continue
            for v in _iter_bits(first):
                # Twins share a column, so a remaining lower twin is in ``first``.
                if lower_twins[v] & first:
                    continue
                row = adj[v]
                split = []
                for col, mask in cells:
                    mask &= ~(1 << v)
                    if mask & ~row:
                        split.append((col << 1, mask & ~row))
                    if mask & row:
                        split.append((col << 1 | 1, mask & row))
                children.append((order + (v,), split))
        nodes = children
    return key, nodes[0][0]


def canonical_key(g: Graph) -> int:
    """Least column-major upper-triangle key over all vertex orders, an
    isomorphism invariant."""
    return _canonical_search(g.adj, g.n)[0]


def canonical_form(g: Graph) -> Graph:
    """Representative of g's isomorphism class with the least key."""
    return Graph(g.n, _induced_rows(g.adj, _canonical_search(g.adj, g.n)[1]))


@lru_cache(maxsize=None)
def _isomorphism_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on exactly n vertices in canonical form,
    ascending canonical key, by orderly generation from those on n-1."""
    if n == 1:
        return (Graph(1, (0,)),)
    classes = []
    for parent in _isomorphism_classes(n - 1):
        base = canonical_key(parent) << (n - 1)
        for c in range(1 << (n - 1)):
            # Bit n-2-i of the last column c is the edge from vertex i.
            nbrs = sum(1 << i for i in range(n - 1) if (c >> (n - 2 - i)) & 1)
            rows = tuple(row | ((nbrs >> i) & 1) << (n - 1) for i, row in enumerate(parent.adj))
            rows += (nbrs,)
            if _canonical_search(rows, n)[0] == base | c:
                classes.append(Graph(n, rows))
    return tuple(classes)


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Stream one canonical representative per isomorphism class on n vertices.

    Deterministic order: ascending canonical key.
    """
    if n < 1:
        raise ContractViolation(f"enumeration needs n >= 1, got {n}")
    if n > ENUMERATION_MAX_N:
        raise BudgetExceeded(f"enumeration supported for n <= {ENUMERATION_MAX_N}")
    for g in _isomorphism_classes(n):
        if connected_only and not is_connected(g):
            continue
        yield g
