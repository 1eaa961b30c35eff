"""Graph representation, graph6 I/O, algebra, and enumeration."""

from itertools import permutations

import numpy as np
import pytest

from _gen import gnp, random_graphs
from sqenergy.errors import BudgetExceeded, ContractViolation, Graph6Error
from sqenergy.graphs import (
    Graph,
    VertexSet,
    canonical_form,
    canonical_key,
    complement,
    connected_components,
    delete_vertex,
    disjoint_union,
    enumerate_graphs,
    induced_subgraph,
    is_connected,
    join,
    parse_graph6,
    relabel,
    write_graph6,
)
from sqenergy.families import complete, cycle, path, star


def test_graph_validation():
    with pytest.raises(ContractViolation):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ContractViolation):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ContractViolation):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ContractViolation):
        Graph.from_edges(2, [(0, 0)])
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.m == 2 and g.degrees() == (1, 2, 1)
    assert g.edges() == [(0, 1), (1, 2)]


def test_asymmetry_names_a_pair_above_the_diagonal():
    # Rows 0..2 as bitsets: an edge above the diagonal without its mirror,
    # then a bit below the diagonal without its mirror.
    for adj in ((0b100, 0, 0), (0, 0, 0b001)):
        with pytest.raises(ContractViolation, match=r"adjacency not symmetric at \(0, 2\)"):
            Graph(3, adj)


def test_vertex_set():
    s = VertexSet.of([0, 2, 3], 5)
    assert len(s) == 3 and s.vertices == (0, 2, 3)
    assert 2 in s and 1 not in s and list(s) == [0, 2, 3]
    with pytest.raises(ContractViolation):
        VertexSet(1 << 5, 5)


def test_graph6_known_encodings():
    k3 = complete(3)
    p3 = path(3)
    assert write_graph6(k3) == "Bw"
    assert write_graph6(p3) == "Bg"
    assert write_graph6(complete(5)) == "D~{"
    assert write_graph6(Graph(1, (0,))) == "@"
    assert parse_graph6("Bw") == k3
    assert parse_graph6("Bg") == p3
    assert parse_graph6("C?") == Graph(4, (0,) * 4)
    assert parse_graph6("D??") == Graph(5, (0,) * 5)


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6(chr(40) + "w")  # size byte below 63
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # long form prefix
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D?")  # n=5 needs two body bytes
    with pytest.raises(Graph6Error, match="garbage"):
        parse_graph6("Bw?")
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("B~")  # nonzero bits beyond the 3 used
    with pytest.raises(Graph6Error, match="out of range"):
        parse_graph6("B" + chr(20))
    with pytest.raises(Graph6Error):
        write_graph6(gnp(np.random.default_rng(0), 63, 0.1))
    offset_err = None
    try:
        parse_graph6("Bw?")
    except Graph6Error as exc:
        offset_err = exc.offset
    assert offset_err == 2


def test_graph6_roundtrip_small_corpus():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_roundtrip_random():
    for g in random_graphs(seed=11, count=50, n_max=30):
        assert parse_graph6(write_graph6(g)) == g


def test_induced_subgraph_examples():
    assert induced_subgraph(complete(4), VertexSet.of([0, 1, 2], 4)) == complete(3)
    p4 = path(4)
    assert induced_subgraph(p4, VertexSet.of([0, 3], 4)) == Graph(2, (0, 0))
    assert induced_subgraph(cycle(5), VertexSet.of([0, 1, 2], 5)) == path(3)
    with pytest.raises(ContractViolation):
        induced_subgraph(p4, VertexSet.of([0], 3))
    full = VertexSet.of(range(4), 4)
    assert induced_subgraph(p4, full) == p4


def test_delete_vertex_examples():
    assert delete_vertex(complete(4), 0) == complete(3)
    assert delete_vertex(star(5), 0) == Graph(4, (0,) * 4)
    assert delete_vertex(cycle(5), 0) == path(4)
    with pytest.raises(ContractViolation):
        delete_vertex(path(3), 3)
    # removing v is the same as inducing on the complement of {v}
    g = gnp(np.random.default_rng(3), 8, 0.4)
    keep = VertexSet.of([u for u in range(8) if u != 5], 8)
    assert delete_vertex(g, 5) == induced_subgraph(g, keep)


def test_algebra_examples():
    assert complement(complete(3)) == Graph(3, (0, 0, 0))
    assert join(Graph(1, (0,)), Graph(4, (0,) * 4)) == star(5)
    two_k2 = disjoint_union(complete(2), complete(2))
    assert two_k2.m == 2 and two_k2.n == 4
    for g in random_graphs(seed=5, count=20, n_max=10):
        assert complement(complement(g)) == g
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = gnp(rng, int(rng.integers(1, 7)), 0.5)
        h = gnp(rng, int(rng.integers(1, 7)), 0.5)
        assert join(g, h).m == g.m + h.m + g.n * h.n
        assert disjoint_union(g, h).m == g.m + h.m


def test_connected_components():
    two_k2 = disjoint_union(complete(2), complete(2))
    comps = connected_components(two_k2)
    assert [c.vertices for c in comps] == [(0, 1), (2, 3)]
    assert [c.vertices for c in connected_components(cycle(5))] == [(0, 1, 2, 3, 4)]
    assert [c.vertices for c in connected_components(Graph(3, (0, 0, 0)))] == [
        (0,),
        (1,),
        (2,),
    ]
    assert is_connected(cycle(5)) and not is_connected(two_k2)


def test_enumeration_counts(connected_corpus):
    assert [len(connected_corpus[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    assert [len(list(enumerate_graphs(n))) for n in range(1, 8)] == [
        1, 2, 4, 11, 34, 156, 1044,
    ]


def test_enumeration_distinct_and_deterministic():
    first = [write_graph6(g) for g in enumerate_graphs(6)]
    second = [write_graph6(g) for g in enumerate_graphs(6)]
    assert first == second
    assert len(set(first)) == len(first)
    with pytest.raises(ContractViolation):
        list(enumerate_graphs(0))
    with pytest.raises(BudgetExceeded):
        list(enumerate_graphs(9))


def _brute_canonical(g: Graph) -> tuple[int, ...]:
    best = None
    for perm in permutations(range(g.n)):
        bits = []
        for j in range(g.n):
            for i in range(j):
                bits.append(1 if g.has_edge(perm[i], perm[j]) else 0)
        best = min(best, tuple(bits)) if best is not None else tuple(bits)
    return best


def test_canonical_form_matches_brute_force():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            c = canonical_form(g)
            bits = []
            for j in range(n):
                for i in range(j):
                    bits.append(1 if c.has_edge(i, j) else 0)
            assert tuple(bits) == _brute_canonical(g)


def _symmetric_graphs_on_8():
    """Twin-rich and vertex-transitive graphs on 8 vertices, by name."""
    ring = [(i, (i + 1) % 8) for i in range(8)]
    matching = Graph.from_edges(8, [(2 * i, 2 * i + 1) for i in range(4)])
    return {
        "C8": cycle(8),
        "Q3": Graph.from_edges(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]),
        "Wagner": Graph.from_edges(8, ring + [(i, i + 4) for i in range(4)]),
        "K4,4": join(Graph(4, (0,) * 4), Graph(4, (0,) * 4)),
        "co-C8": complement(cycle(8)),
        "2K4": disjoint_union(complete(4), complete(4)),
        "2C4": disjoint_union(cycle(4), cycle(4)),
        "K2,2,2,2": complement(matching),
        "P8": path(8),
        "E8": Graph(8, (0,) * 8),
        "K8": complete(8),
    }


def _numpy_least_key(g: Graph) -> int:
    """Least column-major upper-triangle key over all n! vertex orders."""
    mat = np.array([[(row >> j) & 1 for j in range(g.n)] for row in g.adj], dtype=np.int64)
    perms = np.array(list(permutations(range(g.n))), dtype=np.int64)
    pairs = [(i, j) for j in range(g.n) for i in range(j)]
    bits = np.stack([mat[perms[:, i], perms[:, j]] for i, j in pairs], axis=1)
    weights = 1 << np.arange(len(pairs) - 1, -1, -1, dtype=np.int64)
    return int((bits @ weights).min())


def test_canonical_key_on_symmetric_graphs_matches_numpy_brute_force():
    rng = np.random.default_rng(8)
    for name, g in _symmetric_graphs_on_8().items():
        expected = _numpy_least_key(g)
        form = canonical_form(g)
        assert _numpy_least_key(form) == expected, name
        for _ in range(5):
            h = relabel(g, rng.permutation(8))
            assert canonical_key(h) == expected, name
            assert canonical_form(h) == form, name


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_enumeration_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    for n in range(1, 8):
        buckets: dict[str, list] = {}
        for g in enumerate_graphs(n):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
        for bucket in buckets.values():
            for a in range(len(bucket)):
                for b in range(a):
                    assert not nx.is_isomorphic(bucket[a], bucket[b])
        for ref in (a for a in atlas if a.number_of_nodes() == n):
            bucket = buckets.get(nx.weisfeiler_lehman_graph_hash(ref), [])
            assert any(nx.is_isomorphic(ref, h) for h in bucket), nx.to_graph6_bytes(ref)


def test_canonical_form_is_isomorphism_invariant():
    rng = np.random.default_rng(17)
    for g in random_graphs(seed=23, count=20, n_max=7):
        perm = list(rng.permutation(g.n))
        assert canonical_key(relabel(g, perm)) == canonical_key(g)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_bitset_matrix_conversions_match_loop_reference():
    rng = np.random.default_rng(5)
    graphs = [Graph(0, ()), Graph(1, (0,))] + [gnp(rng, n, 0.4) for n in (2, 7, 8, 9, 64, 65, 130)]
    for g in graphs:
        ref = np.zeros((g.n, g.n))
        for i, row in enumerate(g.adj):
            for j in range(g.n):
                ref[i, j] = (row >> j) & 1
        mat = g.adjacency_matrix()
        assert mat.dtype == np.float64 and np.array_equal(mat, ref)
        assert np.array_equal(g.adjacency_matrix(bool), ref.astype(bool))
        perm = rng.permutation(g.n)
        rows = [0] * g.n
        for i, row in enumerate(g.adj):
            for j in range(g.n):
                if (row >> j) & 1:
                    rows[perm[i]] |= 1 << int(perm[j])
        assert relabel(g, perm) == Graph(g.n, tuple(rows))
