"""Graph type, the per-graph memo, graph6 text I/O, graph algebra, and
exhaustive enumeration of small graphs up to isomorphism.

Vertices are integers ``0..n-1``. Adjacency is stored as one Python-int bitset
per vertex, so structural algorithms (components, subset searches, canonical
forms) run on plain integer arithmetic and every value is immutable and
hashable. ``Graph(n, adj)`` checks its rows; ``Graph.from_edges`` checks each
edge and then builds its rows valid; the graph6 parser, the graph algebra,
canonical forms and enumeration also build valid rows, and skip the check
through the private ``Graph._from_valid_rows``, which no other module calls.
A graph6 column is converted to or from its row bitset whole, as a bit
string, and components and 2-colorings share one breadth-first layer walk.
Each isomorphism class is represented by its canonical form, the relabeling
with the least column-major upper-triangle key, found by a search that builds
only the partial orders whose next column ties the least. The classes on n
vertices are generated in ascending key order from those on n - 1: a last
column that a one-vertex swap or an automorphism of the parent maps lower is
refused before the search, and the search, told the candidate's own key, stops
at the first order that beats it. Each parent's extensions are found apart
from every other parent's, so the classes on n vertices are the descendants
of the classes on n - 2, concatenated in their order: ``enumeration_roots``
gives those roots from the cached levels, and ``descendant_graph6``
generates one root's two levels above it depth-first, uncached, as graph6
lines packed straight from each class's canonical key, the graph6 body.
"""

from __future__ import annotations

import binascii
import operator
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import BudgetExceeded, ContractViolation, Graph6Error

if TYPE_CHECKING:
    import numpy as np

# Orderly generation runs the canonical search, so this one cap bounds both.
CANONICAL_MAX_N = 8
# The most vertices a dense adjacency matrix is built for. A decomposition
# peaks near 48 n^2 bytes (the matrix, its vectors and products, and LAPACK
# workspace), about 3.2 GB at this cap.
DENSE_MAX_N = 8192


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _integer(value: int, what: str) -> int:
    """``value`` as an int, refusing floats, strings and other non-integers;
    numpy integers are accepted."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ContractViolation(f"{what} must be an integer, got {value!r}") from exc


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus one adjacency bitset per row."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "vertex count"))
        if self.n < 0:
            raise ContractViolation(f"vertex count must be >= 0, got {self.n}")
        if not isinstance(self.adj, tuple):
            raise ContractViolation(f"adjacency rows must be a tuple, got {type(self.adj).__name__}")
        if len(self.adj) != self.n:
            raise ContractViolation(
                f"expected {self.n} adjacency rows, got {len(self.adj)}"
            )
        full = (1 << self.n) - 1
        # Row i below its diagonal must equal lower[i], the bits that rows
        # j < i set at i; the lowest bit where they differ names the pair (j, i).
        lower = [0] * self.n
        for i, row in enumerate(self.adj):
            if not isinstance(row, int):
                raise ContractViolation(f"row {i} must be an int, got {type(row).__name__}")
            bit = 1 << i
            if row & ~full:
                raise ContractViolation(f"row {i} has bits outside 0..{self.n - 1}")
            if row & bit:
                raise ContractViolation(f"self-loop at vertex {i}")
            differ = (row & (bit - 1)) ^ lower[i]
            if differ:
                j = (differ & -differ).bit_length() - 1
                raise ContractViolation(f"adjacency not symmetric at ({j}, {i})")
            for k in _iter_bits(row >> (i + 1) << (i + 1)):
                lower[k] |= bit

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of (n, adj), computed once: every per-graph memo lookup
        hashes the graph."""
        return hash((self.n, self.adj))

    @classmethod
    def _from_valid_rows(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph on rows that the caller built valid, as ``__post_init__``
        would accept them: ``n`` an int >= 0 and ``adj`` a tuple of n
        symmetric loop-free int rows. Nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on n vertices with ``edges``. Each edge is checked in
        input order; then a self-loop is refused at its least vertex, then a
        negative n (which refuses any edge first, as out of range)."""
        n = _integer(n, "vertex count")
        rows = [0] * n
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ContractViolation(f"edge {edge!r} is not a pair of vertices") from None
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError as exc:
                raise ContractViolation(f"edge ({u!r}, {v!r}) has a non-integer endpoint") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        for i, row in enumerate(rows):
            if row >> i & 1:
                raise ContractViolation(f"self-loop at vertex {i}")
        if n < 0:
            raise ContractViolation(f"vertex count must be >= 0, got {n}")
        return cls._from_valid_rows(n, tuple(rows))

    @cached_property
    def m(self) -> int:
        """Number of edges (half the total adjacency popcount), counted on
        first access."""
        return sum(row.bit_count() for row in self.adj) // 2

    def _vertex(self, v: int) -> int:
        """``v`` as a vertex of this graph, refused with ContractViolation
        unless it is an integer in 0..n-1."""
        v = _integer(v, "vertex")
        if not 0 <= v < self.n:
            raise ContractViolation(f"vertex {v} out of range for n={self.n}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[self._vertex(u)] >> self._vertex(v)) & 1)

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in _iter_bits(rest):
                out.append((u, v))
        return out

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix, unpacked from the row bitsets; the one
        place any n x n matrix is made, so BudgetExceeded above
        ``DENSE_MAX_N`` vertices refuses all dense work before it starts.
        numpy is imported here, its only use in this module, so that
        enumeration and graph6 work never load it."""
        if self.n > DENSE_MAX_N:
            raise BudgetExceeded(f"dense matrix supported for n <= {DENSE_MAX_N}, got n={self.n}")
        import numpy as np

        width = (self.n + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in self.adj)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(self.n, width)
        return np.unpackbits(rows, axis=1, count=self.n, bitorder="little").astype(np.float64)


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices of an ``ambient_n``-vertex graph, as a bitset."""

    members: int
    ambient_n: int

    def __post_init__(self):
        object.__setattr__(self, "members", _integer(self.members, "members"))
        object.__setattr__(self, "ambient_n", _integer(self.ambient_n, "ambient_n"))
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
            v = _integer(v, "vertex")
            if not 0 <= v < ambient_n:
                raise ContractViolation(f"vertex {v} outside 0..{ambient_n - 1}")
            mask |= 1 << v
        return cls(mask, ambient_n)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.members))

    def __len__(self) -> int:
        return self.members.bit_count()

    def __contains__(self, v: int) -> bool:
        v = _integer(v, "vertex")
        if not 0 <= v < self.ambient_n:
            raise ContractViolation(f"vertex {v} outside 0..{self.ambient_n - 1}")
        return bool((self.members >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.members)


T = TypeVar("T")


def per_graph(compute: Callable[[Graph], T]) -> Callable[[Graph], T]:
    """``compute`` memoised per live graph: later calls on the graph, or on an
    equal one while it lives, return the first call's value, which is freed
    with the graph and must not refer to it. A call that raises keeps
    nothing. The wrapper's ``memo`` holds the entries."""
    memo: weakref.WeakKeyDictionary[Graph, T] = weakref.WeakKeyDictionary()

    @wraps(compute)
    def memoised(g: Graph) -> T:
        value = memo.get(g)
        if value is None:
            value = memo[g] = compute(g)
        return value

    memoised.memo = memo  # type: ignore[attr-defined]
    return memoised


# ---------------------------------------------------------------------------
# graph6 text format
#
# The size header is n + 63 for n <= 62; byte 126 and then n in three 6-bit
# groups for n <= 258047; bytes 126 126 and then n in six 6-bit groups above
# that. The groups are most significant first and each is stored as
# value + 63. The body packs the upper adjacency triangle read column-major
# ((0,1), (0,2), (1,2), (0,3), ...) into 6-bit groups the same way; the final
# group is zero-padded.
# ---------------------------------------------------------------------------


def _graph6_header(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    groups = 3 if n <= 258047 else 6
    digits = (chr(63 + (n >> shift & 63)) for shift in range(6 * groups - 6, -1, -6))
    return "~" * (groups // 3) + "".join(digits)


# Each body byte's 6-bit group, most significant bit first, for the parser.
# Column j lists vertices 0..j-1 in order, the low j bits of row j reversed,
# so it is written as format(row, f"0{j}b")[::-1] and read back by
# int(column[::-1], 2). The writer packs the groups as base64 does: the bits,
# padded to whole 24-bit words, go through binascii, whose alphabet, in value
# order, maps onto bytes 63..126.
_GROUP_BITS = {63 + v: format(v, "06b") for v in range(64)}
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def _graph6_line(n: int, body: int) -> str:
    """The graph6 text of the graph on n vertices whose upper triangle, read
    column-major, is the n(n-1)/2 bits of ``body``, the first pair most
    significant."""
    nbits = n * (n - 1) // 2
    if not nbits:  # n <= 1 has no body
        return _graph6_header(n)
    nchars = -(-nbits // 6)
    pad = -nbits % 24
    packed = (body << pad).to_bytes((nbits + pad) // 8, "big")
    text = binascii.b2a_base64(packed, newline=False).translate(_BASE64_TO_GRAPH6)
    return _graph6_header(n) + text[:nchars].decode("ascii")


def write_graph6(g: Graph) -> str:
    bits = "".join([format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)])
    return _graph6_line(g.n, int(bits or "0", 2))


def parse_graph6(line: str) -> Graph:
    if not line:
        raise Graph6Error("empty graph6 string", offset=0)
    b0 = ord(line[0])
    if b0 < 63 or b0 > 126:
        raise Graph6Error(f"size byte {b0} out of range 63..126", offset=0)
    if b0 < 126:
        n, start = b0 - 63, 1
    else:
        groups, start = (6, 2) if line[1:2] == "~" else (3, 1)
        if len(line) < start + groups:
            raise Graph6Error("truncated size header", offset=len(line))
        n = 0
        for k in range(start, start + groups):
            val = ord(line[k])
            if val < 63 or val > 126:
                raise Graph6Error(f"size byte {val} out of range 63..126", offset=k)
            n = n << 6 | (val - 63)
        start += groups
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = line[start:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated body: expected {nbytes} bytes, got {len(body)}",
            offset=len(line),
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after graph6 body", offset=start + nbytes)
    bits = body.translate(_GROUP_BITS)
    if len(bits) != 6 * nbytes:
        k = next(k for k, ch in enumerate(body) if ord(ch) not in _GROUP_BITS)
        raise Graph6Error(f"body byte {ord(body[k])} out of range 63..126", offset=start + k)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits", offset=len(line) - 1)
    rows = [0] * n
    for j in range(1, n):
        rows[j] = int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        for i in _iter_bits(rows[j]):
            rows[i] |= 1 << j
    return Graph._from_valid_rows(n, tuple(rows))


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
    return Graph._from_valid_rows(len(verts), _induced_rows(g.adj, verts))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((~g.adj[i]) & full & ~(1 << i) for i in range(g.n))
    return Graph._from_valid_rows(g.n, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._from_valid_rows(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    low = (1 << g.n) - 1
    high = ((1 << h.n) - 1) << g.n
    rows = [row | high for row in g.adj]
    rows += [(row << g.n) | low for row in h.adj]
    return Graph._from_valid_rows(g.n + h.n, tuple(rows))


def _layers(adj: Sequence[int], domain: int) -> Iterator[tuple[int, int]]:
    """Breadth-first layers of the subgraph on ``domain`` from its least
    vertex, each with the union of its neighbourhoods in ``domain``. Every edge
    joins one layer to itself or to the next, so the subgraph is bipartite
    exactly when no layer meets its own neighbourhood."""
    layer = seen = domain & -domain
    while layer:
        nbrs = 0
        for v in _iter_bits(layer):
            nbrs |= adj[v]
        nbrs &= domain
        yield layer, nbrs
        layer = nbrs & ~seen
        seen |= layer


def _least_component(adj: Sequence[int], domain: int) -> int:
    """The component of the least vertex of ``domain``: the union (and so the
    sum) of its disjoint layers."""
    return sum(layer for layer, _ in _layers(adj, domain))


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return _least_component(g.adj, full) == full


def _bipartition_mask(adj: Sequence[int], domain: int) -> int | None:
    """One side of a 2-coloring of the subgraph on ``domain`` (the even layers
    from each component's least vertex), or None."""
    color0 = 0
    rest = domain
    while rest:
        for depth, (layer, nbrs) in enumerate(_layers(adj, rest)):
            if nbrs & layer:
                return None
            if depth % 2 == 0:
                color0 |= layer
            rest &= ~layer
    return color0


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
    return [v for v in range(g.n) if g.adj[v].bit_count() == g.n - 1]


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
# extend it only by the remaining vertices of least column, its first cell. A
# child's next column is the least column of the vertices it leaves: those of
# its parent's first cell, or, when the chosen vertex was alone there, the
# least of the others, found once per parent by one walk along its order. It
# is read before the child is built, and only the children whose next column
# ties the least one seen at that level are built; a lower column drops those
# built before it. Twins (vertices whose neighbourhoods agree outside the
# pair) are interchangeable: swapping two remaining twins is an automorphism
# that fixes the chosen prefix, so only the least of them is branched on.
# Without that, empty and complete graphs would branch n! ways. Open twins
# share a row and closed twins share a row with their own bit set, so one
# pass with two dicts finds every vertex's lower twins.
#
# Given the key of some order, the target, the search answers only whether
# it is the least. Every kept prefix is then the target's, so each level's
# least column starts at the target's column: a child above it is never built,
# and the first child below it means some order beats the target, so the
# search stops there. A target that is least gets the same key and orders as
# the search without one.
#
# The key is hereditary: a canonical graph's key without its last column is
# the key of the graph with its last vertex deleted, and that key must be
# least too, so the parent is canonical. Every class on n vertices therefore
# extends a canonical parent on n-1 vertices by a last column, and is kept
# exactly when that extension is its own canonical form (Read's orderly
# generation): the search, given the candidate's own key as its target.
# Parents in ascending key order, each with ascending last columns, give the
# classes in ascending key order with no store of the classes already seen.
#
# Most last columns are refused before the search. Swapping the new vertex
# v_{n-1} with v_j leaves columns 0..j-1 alone and makes column j the top j
# bits of the last column c, since c lists v_0 first. If c >> (n-1-j) is less
# than the parent's column j, that is c < column_j << (n-1-j), the swapped
# order has a smaller key and c is not canonical. So only the last columns
# from the largest such bound up are searched.
#
# The parent's automorphisms refuse more. When the search accepts a class, the
# identity order reaches its least key, so every order the search kept reaches
# it too and is an automorphism, as is each swap of two twins; these are kept
# with the class, unless it is on CANONICAL_MAX_N vertices and has no children
# to refuse. Relabeling a candidate by an automorphism sigma of the parent
# that fixes the new vertex leaves the first n-1 columns alone and turns the
# last column col(S), for the new vertex's neighbour set S, into
# col(sigma(S)). If that is less than c, a smaller key exists and c is not
# canonical, whichever automorphisms are known; so only the columns least in
# their orbit under the kept ones are searched. Both tests refuse only columns
# that are not canonical, and the search alone decides which of the rest are
# kept, so the classes and their order do not depend on either test.
# ---------------------------------------------------------------------------


def _least_cell(adj: Sequence[int], order: tuple[int, ...], vertices: int) -> tuple[int, int]:
    """The least column of ``vertices`` against ``order``, and the vertices
    that have it: a vertex that ``order[i]`` misses beats one it does not."""
    col = 0
    for u in order:
        missed = vertices & ~adj[u]
        if missed:
            col, vertices = col << 1, missed
        else:
            col = col << 1 | 1
    return col, vertices


def _canonical_search(
    adj: Sequence[int], n: int, target: int | None = None
) -> tuple[int, list[tuple[int, ...]]] | None:
    """Least key of the graph on rows ``adj`` and vertex orders reaching it:
    each branch the search kept, then the first of them with each vertex that
    has a lower twin swapped with the least one. Given the key ``target`` of
    some order of the graph, None when the least key is below it."""
    if n > CANONICAL_MAX_N:
        raise BudgetExceeded(f"canonical form supported for n <= {CANONICAL_MAX_N}")
    if n < 2:
        return 0, [tuple(range(n))]
    # Bit w of lower_twins[u] is set for each twin w < u. Open twins share a
    # row, closed twins share a row with their own bit set.
    lower_twins = []
    open_rows: dict[int, int] = {}
    closed_rows: dict[int, int] = {}
    for u, row in enumerate(adj):
        bit = 1 << u
        lower_twins.append(open_rows.get(row, 0) | closed_rows.get(row | bit, 0))
        open_rows[row] = open_rows.get(row, 0) | bit
        closed_rows[row | bit] = closed_rows.get(row | bit, 0) | bit
    # Each node is a chosen order, its remaining vertices, and those of them
    # whose column against the order is least: the level's least column
    # ``best``, the same at every node of a level.
    nodes = [((), (1 << n) - 1, (1 << n) - 1)]
    key = best = 0
    width = n * (n - 1) // 2
    for level in range(n - 1):
        key = key << level | best
        if target is None:
            # Heads of the next level are level + 1 bits wide, so none reaches this.
            least = 1 << (level + 1)
        else:
            # Every node's prefix is the target's, so the least head is at
            # most the target's next column, and any head below it beats it.
            width -= level + 1
            least = target >> width & ((1 << (level + 1)) - 1)
        children = []
        for order, remaining, first in nodes:
            second = None
            rest = first
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                # Twins share a column, so a remaining lower twin is in ``first``.
                if lower_twins[v] & first:
                    continue
                # The child's head is the least column of the vertices left
                # after v: the rest of ``first`` if any, else the least of the
                # others, found once per node; extended by 0 if v misses one
                # of them and by 1 if not.
                cell = first ^ low
                if cell:
                    col = best
                else:
                    if second is None:
                        second = _least_cell(adj, order, remaining ^ first)
                    col, cell = second
                missed = cell & ~adj[v]
                if missed:
                    head, cell = col << 1, missed
                else:
                    head = col << 1 | 1
                if head > least:
                    continue
                if head < least:
                    if target is not None:
                        return None
                    least, children = head, []
                children.append((order + (v,), remaining ^ low, cell))
        nodes, best = children, least
    # One vertex remains.
    key = key << (n - 1) | best
    orders = [order + (remaining.bit_length() - 1,) for order, remaining, _ in nodes]
    for u, twins in enumerate(lower_twins):
        if twins:
            w = (twins & -twins).bit_length() - 1
            orders.append(tuple(w if v == u else u if v == w else v for v in orders[0]))
    return key, orders


def canonical_key(g: Graph) -> int:
    """Least column-major upper-triangle key over all vertex orders, an
    isomorphism invariant."""
    return _canonical_search(g.adj, g.n)[0]


def canonical_form(g: Graph) -> Graph:
    """Representative of g's isomorphism class with the least key."""
    return Graph._from_valid_rows(g.n, _induced_rows(g.adj, _canonical_search(g.adj, g.n)[1][0]))


def _least_unbeaten_column(key: int, n: int) -> int:
    """The least last column on n vertices that no swap of the new vertex with
    an earlier one beats, for a parent of canonical ``key`` on n-1 vertices.
    The parent's column j is the j bits that start j(j-1)/2 bits from the top
    of its (n-1)(n-2)/2-bit key. On one vertex there is no swap."""
    width = (n - 1) * (n - 2) // 2
    return max(
        ((key >> (width - j * (j + 1) // 2) & ((1 << j) - 1)) << (n - 1 - j)
         for j in range(n - 1)),
        default=0,
    )


def _orbit_least_columns(autos: Sequence[tuple[int, ...]], width: int) -> list[int]:
    """The last columns over ``width`` parent vertices, ascending, that are
    least in their orbit under the group the automorphisms ``autos`` generate.
    Vertex i is bit width-1-i of a column, so each automorphism maps the
    columns by a table doubled one bit at a time: the columns with bit b set
    map as those without it, plus the image of bit b."""
    tables = []
    for sigma in autos:
        table = [0]
        for b in range(width):
            image = 1 << (width - 1 - sigma[width - 1 - b])
            table += [t | image for t in table]
        tables.append(table)
    # Columns are visited in ascending order, so the first one met in an
    # orbit is its least and the walk from it marks the rest.
    seen = bytearray(1 << width)
    least = []
    for c in range(1 << width):
        if seen[c]:
            continue
        least.append(c)
        seen[c] = 1
        stack = [c]
        while stack:
            x = stack.pop()
            for table in tables:
                y = table[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return least


# An isomorphism class: its canonical key, rows and automorphism generators.
_Class = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]


def _extensions(parent: _Class, n: int) -> list[_Class]:
    """The classes on n vertices whose canonical form extends the class
    ``parent`` on n-1 by a last column, ascending key."""
    key, rows_before, autos = parent
    identity = tuple(range(n))
    base = key << (n - 1)
    least = _least_unbeaten_column(key, n)
    classes = []
    for c in _orbit_least_columns(autos, n - 1):
        if c < least:
            continue
        # The last column c lists vertices 0..n-2 most significant first,
        # so reversed it is the new vertex's row.
        nbrs = int(format(c, f"0{n - 1}b")[::-1], 2)
        rows = tuple(row | ((nbrs >> i) & 1) << (n - 1) for i, row in enumerate(rows_before))
        rows += (nbrs,)
        # The identity order's key is base | c, so the search stops at the
        # first order that beats it.
        found = _canonical_search(rows, n, base | c)
        if found is not None:
            # The identity reaches the least key, so every order that does
            # is an automorphism of rows. Only the classes one vertex larger
            # read them, so the largest classes keep none.
            kept = () if n == CANONICAL_MAX_N else tuple(o for o in found[1] if o != identity)
            classes.append((base | c, rows, kept))
    return classes


@lru_cache(maxsize=None)
def _isomorphism_classes(n: int) -> tuple[_Class, ...]:
    """The canonical key, rows and automorphism generators of every
    isomorphism class on exactly n vertices in canonical form, ascending key:
    the extensions of each class on n-1 in turn, from the one graph on no
    vertices. At ``CANONICAL_MAX_N`` no class is extended, so none keeps
    automorphisms. Rows rather than graphs are kept, so the cache holds no
    ``Graph`` and nothing keyed on one stays alive with it."""
    if n == 0:
        return ((0, (), ()),)
    return tuple(c for parent in _isomorphism_classes(n - 1) for c in _extensions(parent, n))


def _checked_size(n: int) -> int:
    n = _integer(n, "vertex count")
    if n < 1:
        raise ContractViolation(f"enumeration needs n >= 1, got {n}")
    if n > CANONICAL_MAX_N:
        raise BudgetExceeded(f"enumeration supported for n <= {CANONICAL_MAX_N}")
    return n


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Stream one canonical representative per isomorphism class on n vertices.

    Deterministic order: ascending canonical key. The size is checked on the
    call, before any graph is asked for.
    """
    n = _checked_size(n)

    def stream() -> Iterator[Graph]:
        for _, rows, _ in _isomorphism_classes(n):
            g = Graph._from_valid_rows(n, rows)
            if not connected_only or is_connected(g):
                yield g

    return stream()


def enumeration_roots(n: int) -> tuple[_Class, ...]:
    """The roots of the classes on n vertices: the classes on n-2 (on none
    for n = 1), ascending key, in the order whose ``descendant_graph6``
    texts, concatenated, are ``enumerate_graphs(n)`` in graph6. The size is
    checked as there."""
    return _isomorphism_classes(max(_checked_size(n) - 2, 0))


def _descendants(parent: _Class, n: int) -> Iterator[_Class]:
    """The classes on n vertices that descend from the class ``parent`` on
    fewer, ascending key, generated depth-first: each child's descendants
    come before its next sibling's, so one list of siblings per level is
    held at a time and no level is kept."""
    size = len(parent[1]) + 1
    for child in _extensions(parent, size):
        if size == n:
            yield child
        else:
            yield from _descendants(child, n)


def descendant_graph6(root: _Class, n: int, connected_only: bool = False) -> str:
    """One graph6 line, newline included, per class on n vertices that
    descends from ``root``, one of ``enumeration_roots(n)``; connected ones
    only if asked. Each line is packed from the class's canonical key, which
    is its graph6 body. Nothing above the root's level is cached."""
    full = (1 << n) - 1
    return "".join(
        _graph6_line(n, key) + "\n"
        for key, rows, _ in _descendants(root, n)
        if not connected_only or _least_component(rows, full) == full
    )
