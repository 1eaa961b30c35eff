"""Graph type, graph6 text I/O, graph algebra, and exhaustive enumeration of
small graphs up to isomorphism.

Vertices are integers ``0..n-1``. Adjacency is stored as one Python-int bitset
per vertex, so structural algorithms (components, subset searches, canonical
forms) run on plain integer arithmetic and every value is immutable and
hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, ContractViolation, Graph6Error

GRAPH6_MAX_N = 62
ENUMERATION_MAX_N = 8
CANONICAL_MAX_N = 8

# Gathers per canonicalization chunk are capped to keep temporaries small.
_CANONICAL_CHUNK_ELEMS = 8_000_000


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
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ContractViolation(f"row {i} has bits outside 0..{self.n - 1}")
            if (row >> i) & 1:
                raise ContractViolation(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.adj[i] >> j) & 1 != (self.adj[j] >> i) & 1:
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
# The canonical form of a graph is the relabeling whose upper-triangle
# adjacency bit-string (same column-major order as graph6) is
# lexicographically minimal over all n! vertex permutations. Feasible for
# n <= 8; the permutation tables are cached per n.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _permutation_tables(n: int):
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    rows = []
    cols = []
    for j in range(n):
        for i in range(j):
            rows.append(i)
            cols.append(j)
    rowi = np.array(rows, dtype=np.int64)
    colj = np.array(cols, dtype=np.int64)
    prow = perms[:, rowi] if len(rows) else np.zeros((len(perms), 0), dtype=np.int64)
    pcol = perms[:, colj] if len(cols) else np.zeros((len(perms), 0), dtype=np.int64)
    nbits = len(rows)
    # Bit values stay below 2^28 for n <= 8, exactly representable in float64,
    # which lets the packing run through BLAS.
    pow2 = np.power(2.0, np.arange(nbits - 1, -1, -1, dtype=np.float64))
    return perms, prow, pcol, pow2


def _canonical_keys_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical keys and argmin permutation indices for a (B, n, n) bool stack."""
    b, n, _ = mats.shape
    perms, prow, pcol, pow2 = _permutation_tables(n)
    keys = np.empty(b, dtype=np.int64)
    argidx = np.empty(b, dtype=np.int64)
    per_graph = max(1, prow.size)
    chunk = max(1, _CANONICAL_CHUNK_ELEMS // per_graph)
    for s in range(0, b, chunk):
        sub = mats[s : s + chunk]
        if prow.size == 0:
            keys[s : s + chunk] = 0
            argidx[s : s + chunk] = 0
            continue
        bits = sub[:, prow, pcol].astype(np.float64)
        vals = bits @ pow2
        keys[s : s + chunk] = vals.min(axis=1).astype(np.int64)
        argidx[s : s + chunk] = vals.argmin(axis=1)
    return keys, argidx


def _graph_from_bool_matrix(mat: np.ndarray) -> Graph:
    """Inverse of ``Graph.adjacency_matrix``: pack each row into a bitset."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return Graph(mat.shape[0], tuple(int.from_bytes(row.tobytes(), "little") for row in packed))


def canonical_key(g: Graph) -> int:
    """Packed minimal adjacency bit-string, an isomorphism invariant."""
    if g.n > CANONICAL_MAX_N:
        raise BudgetExceeded(f"canonical form supported for n <= {CANONICAL_MAX_N}")
    if g.n == 0:
        return 0
    keys, _ = _canonical_keys_batch(g.adjacency_matrix(bool)[None])
    return int(keys[0])


def canonical_form(g: Graph) -> Graph:
    """Representative of g's isomorphism class with minimal adjacency bit-string."""
    if g.n > CANONICAL_MAX_N:
        raise BudgetExceeded(f"canonical form supported for n <= {CANONICAL_MAX_N}")
    if g.n == 0:
        return g
    mat = g.adjacency_matrix(bool)
    keys, argidx = _canonical_keys_batch(mat[None])
    perms, _, _, _ = _permutation_tables(g.n)
    p = perms[argidx[0]]
    return _graph_from_bool_matrix(mat[np.ix_(p, p)])


@lru_cache(maxsize=None)
def _isomorphism_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on exactly n vertices, ascending canonical key.

    Built by extending every class on n-1 vertices with one new vertex over
    all 2^(n-1) neighborhoods and deduplicating by canonical key. Every class
    on n vertices arises this way because deleting a vertex lands in some
    class on n-1 vertices.
    """
    if n == 1:
        return (Graph(1, (0,)),)
    parents = _isomorphism_classes(n - 1)
    perms, _, _, _ = _permutation_tables(n)
    nb = n - 1
    count = 1 << nb
    mask_bits = ((np.arange(count)[:, None] >> np.arange(nb)[None, :]) & 1).astype(bool)
    reps: dict[int, Graph] = {}
    for parent in parents:
        base = np.zeros((n, n), dtype=bool)
        base[:nb, :nb] = parent.adjacency_matrix(bool)
        cands = np.broadcast_to(base, (count, n, n)).copy()
        cands[:, nb, :nb] = mask_bits
        cands[:, :nb, nb] = mask_bits
        keys, argidx = _canonical_keys_batch(cands)
        for i in range(count):
            key = int(keys[i])
            if key not in reps:
                p = perms[argidx[i]]
                reps[key] = _graph_from_bool_matrix(cands[i][np.ix_(p, p)])
    return tuple(reps[k] for k in sorted(reps))


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
