"""Seeded random-graph generators and tiny brute-force oracles shared by the
test modules. Everything here is deterministic given the seed."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from sqenergy.graphs import Graph, VertexSet, _least_component, canonical_key, is_connected
from sqenergy.oracles import find_induced_p3
from sqenergy.partitions import Partition


def gnp(rng: np.random.Generator, n: int, p: float) -> Graph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def random_graphs(seed: int, count: int, n_max: int, n_min: int = 1) -> list[Graph]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        p = float(rng.uniform(0.1, 0.9))
        out.append(gnp(rng, n, p))
    return out


def random_bipartite_graphs(seed: int, count: int, n_max: int) -> list[Graph]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = int(rng.integers(1, max(2, n_max // 2) + 1))
        b = int(rng.integers(1, n_max - a + 1))
        p = float(rng.uniform(0.2, 0.9))
        rows = [0] * (a + b)
        for i in range(a):
            for j in range(a, a + b):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        out.append(Graph(a + b, tuple(rows)))
    return out


def random_connected_with_p3(seed: int, count: int, n_lo: int, n_hi: int) -> list[Graph]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(0.2, 0.7))
        g = gnp(rng, n, p)
        if is_connected(g) and find_induced_p3(g) is not None:
            out.append(g)
    return out


def random_two_part_partition(rng: np.random.Generator, n: int) -> Partition:
    if n == 1:
        return Partition((VertexSet(1, 1),), ("block",))
    full = (1 << n) - 1
    while True:
        mask = int(rng.integers(1, full))
        if mask != full:
            break
    return Partition(
        (VertexSet(mask, n), VertexSet(full & ~mask, n)), ("block", "block")
    )


def no_isolated_random_graphs(seed: int, count: int, n_max: int) -> list[Graph]:
    """Random graphs with m >= 1 and no isolated vertices (resampled)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, n_max + 1))
        p = float(rng.uniform(0.1, 0.7))
        g = gnp(rng, n, p)
        if g.m >= 1 and all(g.adj[v] for v in range(g.n)):
            out.append(g)
    return out


def add_leaf(tree: Graph, v: int) -> Graph:
    return Graph.from_edges(tree.n + 1, tree.edges() + [(v, tree.n)])


def relabel(g: Graph, perm) -> Graph:
    """g with vertex i renamed perm[i], rebuilt from its renamed edges."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def components(g: Graph) -> list[VertexSet]:
    """The components of g in order of least vertex, peeled off one by one by
    the package's layer walk."""
    comps, rest = [], (1 << g.n) - 1
    while rest:
        comps.append(VertexSet(_least_component(g.adj, rest), g.n))
        rest &= ~comps[-1].members
    return comps


def all_trees(max_n: int) -> dict[int, list[Graph]]:
    """All trees up to isomorphism on 1..max_n vertices, by leaf augmentation."""
    levels: dict[int, dict[int, Graph]] = {1: {canonical_key(Graph(1, (0,))): Graph(1, (0,))}}
    for n in range(2, max_n + 1):
        cur: dict[int, Graph] = {}
        for tree in levels[n - 1].values():
            for v in range(tree.n):
                g = add_leaf(tree, v)
                key = canonical_key(g)
                if key not in cur:
                    cur[key] = g
        levels[n] = cur
    return {n: list(level.values()) for n, level in levels.items()}


# Brute-force oracles, deliberately independent of the package internals.


def brute_domination_number(g: Graph) -> int:
    full = (1 << g.n) - 1
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            covered = 0
            for v in subset:
                covered |= closed[v]
            if covered == full:
                return k
    raise AssertionError


def brute_independence_number(g: Graph) -> int:
    best = 0
    for k in range(g.n, 0, -1):
        for subset in combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return k
    return best


def is_bipartite(g: Graph) -> bool:
    """networkx's verdict, independent of the package's layer walk."""
    import networkx as nx

    ref = nx.empty_graph(g.n)
    ref.add_edges_from(g.edges())
    return nx.is_bipartite(ref)


def brute_triangle_count(g: Graph) -> int:
    return sum(
        g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
        for u, v, w in combinations(range(g.n), 3)
    )


def brute_max_cut(g: Graph) -> int:
    best = 0
    for mask in range(1 << max(0, g.n - 1)):
        side = mask << 1
        cut = 0
        for u, v in g.edges():
            if ((side >> u) & 1) != ((side >> v) & 1):
                cut += 1
        best = max(best, cut)
    return best


# Reference forms of the square energies on numpy alone: s+ = min ||A + M||^2
# and s- = min ||A - M||^2 over PSD M, and their Rayleigh duals.


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gram matrix F^T F of an n-by-n standard normal factor."""
    f = rng.standard_normal((n, n))
    m = f.T @ f
    return (m + m.T) / 2.0


def row_col_square_sum(mat: np.ndarray, i: int) -> float:
    """Sum of squared entries on row i or column i; (i, j) and (j, i) both
    count, (i, i) once."""
    return float(np.square(mat[i, :]).sum() + np.square(mat[:, i]).sum() - mat[i, i] ** 2)


def rayleigh_value(a: np.ndarray, mat: np.ndarray, sign: str) -> float:
    """max(+-<A, M>, 0)^2 / <M, M> for a nonzero M; at most s+ (sign "plus")
    or s- ("minus") when M is PSD, with equality at the matching split half."""
    ip = float((a * mat).sum())
    if sign == "minus":
        ip = -ip
    return max(ip, 0.0) ** 2 / float(np.square(mat).sum())


def projected_gradient_min(g: Graph, sign: str) -> float:
    """Minimize ||A +- M||_F^2 over the PSD cone by gradient steps of size 1/4,
    each followed by projection (eigenvalue clamping), from a seeded random
    PSD start, until the objective changes by at most 1e-10 * max(1, 2m).
    A step of 1/2 from any start lands at once on the PSD projection of -+A,
    the split half that the result is compared with, so this step is smaller
    and each run must take more than 2 steps."""
    tol = 1e-10 * max(1.0, 2.0 * g.m)
    a = g.adjacency_matrix()
    sgn = 1.0 if sign == "plus" else -1.0
    f = np.random.default_rng(0).standard_normal((g.n, g.n))
    m = f @ f.T / max(1, g.n)
    prev = float(np.square(a + sgn * m).sum())
    for steps in range(1, 10001):
        vals, vecs = np.linalg.eigh(m - 0.5 * sgn * (a + sgn * m))
        m = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        m = (m + m.T) / 2.0
        obj = float(np.square(a + sgn * m).sum())
        if abs(obj - prev) <= tol:
            assert steps > 2, f"projected gradient stopped after {steps} steps on {g}"
            return obj
        prev = obj
    raise AssertionError(f"projected gradient did not stabilize on {g}")
