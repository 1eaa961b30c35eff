"""Constructors for the named graph families used throughout the test
harness, including the collinearity graph of the elliptic-quadric generalized
quadrangle over a small prime field together with its predicted spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import BudgetExceeded, ContractViolation, NumericError
from .graphs import Graph, _integer, complement, is_connected, is_regular, is_tree, join

GQ_MAX_Q = 3


def complete(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 1:
        raise ContractViolation("complete(n) needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def star(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    n = _integer(n, "n")
    if n < 1:
        raise ContractViolation("star(n) needs n >= 1")
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def path(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 1:
        raise ContractViolation("path(n) needs n >= 1")
    return Graph.from_edges(n, ((v, v + 1) for v in range(n - 1)))


def cycle(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 3:
        raise ContractViolation("cycle(n) needs n >= 3")
    return Graph.from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def star_plus_edge(n: int) -> Graph:
    """Star K_{1,n-1} plus one edge between the leaves 1 and 2.

    Its least eigenvalue is at most -sqrt(n-2), with equality only at n = 3.
    """
    n = _integer(n, "n")
    if n < 3:
        raise ContractViolation("star_plus_edge(n) needs n >= 3")
    edges = [(0, v) for v in range(1, n)]
    edges.append((1, 2))
    return Graph.from_edges(n, edges)


def cycle_with_triangles(k: int) -> Graph:
    """A k-cycle with a disjoint triangle glued onto each cycle vertex:
    3k vertices and 4k edges."""
    k = _integer(k, "k")
    if k < 3:
        raise ContractViolation("cycle_with_triangles(k) needs k >= 3")
    edges = [(v, (v + 1) % k) for v in range(k)]
    for v in range(k):
        a = k + 2 * v
        b = k + 2 * v + 1
        edges += [(v, a), (v, b), (a, b)]
    return Graph.from_edges(3 * k, edges)


def unicyclic_glue(tree: Graph, cycle_graph: Graph, attach_vertex: int) -> Graph:
    """Identify ``attach_vertex`` of a tree with vertex 0 of a cycle.

    The cycle keeps labels 0..k-1; the remaining tree vertices follow in
    ascending original order.
    """
    if not is_tree(tree):
        raise ContractViolation("first argument must be a tree")
    k = cycle_graph.n
    if k < 3 or not is_connected(cycle_graph) or set(cycle_graph.degrees()) != {2}:
        raise ContractViolation("second argument must be a cycle")
    attach_vertex = tree._vertex(attach_vertex)
    mapping = {attach_vertex: 0}
    nxt = k
    for v in range(tree.n):
        if v != attach_vertex:
            mapping[v] = nxt
            nxt += 1
    edges = cycle_graph.edges()
    edges += [(mapping[u], mapping[v]) for u, v in tree.edges()]
    return Graph.from_edges(k + tree.n - 1, edges)


def join_complement(h: Graph) -> Graph:
    """Join of two copies of the complement of a regular graph."""
    if not is_regular(h):
        raise ContractViolation("join_complement needs a regular graph")
    c = complement(h)
    return join(c, c)


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set, disjointness adjacency."""
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in combinations(range(10), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return Graph.from_edges(10, edges)


# ---------------------------------------------------------------------------
# Generalized quadrangle collinearity graph
# ---------------------------------------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class GqSpectrumParams:
    """Predicted spectrum k^1 r^f a^g of the order-(q, q^2) generalized
    quadrangle collinearity graph, with vertex/edge counts."""

    q: int
    k: int
    r: int
    a: int
    f: int
    g: int
    n_pred: int
    m_pred: int

    def spectrum_multiset(self) -> list[int]:
        """All predicted eigenvalues, descending with multiplicity."""
        return [self.k] + [self.r] * self.f + [self.a] * self.g


def gq_predicted_spectrum(q: int) -> GqSpectrumParams:
    """Spectrum parameters k = q(q^2+1), r = q-1, a = -q^2-1 with
    multiplicities f = q^2(q^2+1), g = q(q^2-q+1) on (q+1)(q^3+1) vertices."""
    q = _integer(q, "q")
    if not _is_prime(q):
        raise ContractViolation(f"q must be prime, got {q}")
    k = q * (q * q + 1)
    r = q - 1
    a = -(q * q) - 1
    f = q * q * (q * q + 1)
    g = q * (q * q - q + 1)
    n_pred = (q + 1) * (q**3 + 1)
    m_pred = n_pred * k // 2
    params = GqSpectrumParams(q, k, r, a, f, g, n_pred, m_pred)
    if n_pred != 1 + f + g:
        raise NumericError("multiplicities do not sum to the vertex count")
    if k + f * r + g * a != 0:
        raise NumericError("predicted spectrum has nonzero trace")
    if k * k + f * r * r + g * a * a != 2 * m_pred:
        raise NumericError("predicted spectrum square-sum differs from 2m")
    return params


def _irreducible_quadratic_coeffs(q: int) -> tuple[int, int]:
    """Smallest (b, c) making t^2 + b t + c rootless over the q-element field."""
    for b in range(q):
        for c in range(q):
            if all((t * t + b * t + c) % q != 0 for t in range(q)):
                return b, c
    raise AssertionError("irreducible quadratic exists over every finite field")


def gq_collinearity_graph(q: int) -> Graph:
    """Collinearity graph of the elliptic-quadric generalized quadrangle.

    Vertices are the projective points of the quadric
    x0*x1 + x2*x3 + p(x4, x5) = 0 in 5-dimensional projective space over the
    q-element field, with p an irreducible binary quadratic; two points are
    adjacent iff distinct and orthogonal under the polarization bilinear form.
    Points are normalized so that the first nonzero coordinate is 1.
    """
    params = gq_predicted_spectrum(q)
    if q > GQ_MAX_Q:
        raise BudgetExceeded(f"construction limited to q <= {GQ_MAX_Q}")
    b, c = _irreducible_quadratic_coeffs(q)

    def quad(x: tuple[int, ...]) -> int:
        return (x[0] * x[1] + x[2] * x[3] + x[4] * x[4] + b * x[4] * x[5] + c * x[5] * x[5]) % q

    points = []
    for vec in product(range(q), repeat=6):
        nz = next((coord for coord in vec if coord), None)
        if nz != 1:
            continue
        if quad(vec) == 0:
            points.append(vec)

    def bilinear(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        s = tuple((a_ + b_) % q for a_, b_ in zip(u, v))
        return (quad(s) - quad(u) - quad(v)) % q

    n = len(points)
    edges = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if bilinear(points[i], points[j]) == 0
    ]
    g = Graph.from_edges(n, edges)
    if g.n != params.n_pred:
        raise NumericError(f"quadric has {g.n} points, expected {params.n_pred}")
    if set(g.degrees()) != {params.k}:
        raise NumericError(f"graph is not {params.k}-regular")
    return g
