"""Graph representation, graph6 I/O, algebra, and enumeration."""

import json
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from _gen import components, gnp, random_graphs, relabel
import sqenergy
from sqenergy.errors import BudgetExceeded, ContractViolation, Graph6Error
from sqenergy.graphs import (
    Graph,
    VertexSet,
    canonical_form,
    canonical_key,
    complement,
    disjoint_union,
    enumerate_graphs,
    induced_subgraph,
    is_connected,
    join,
    _bipartition_mask,
    _canonical_search,
    _graph6_header,
    _isomorphism_classes,
    _least_unbeaten_column,
    _orbit_least_columns,
    parse_graph6,
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
    with pytest.raises(ContractViolation, match="vertex count must be >= 0, got -1"):
        Graph(-1, ())
    with pytest.raises(ContractViolation, match="expected 2 adjacency rows, got 1"):
        Graph(2, (0,))
    with pytest.raises(ContractViolation, match=r"row 0 has bits outside 0\.\.1"):
        Graph(2, (4, 0))
    with pytest.raises(ContractViolation, match="ambient_n must be >= 0"):
        VertexSet(0, -1)
    for v in (-1, 3):
        with pytest.raises(ContractViolation, match=rf"vertex {v} outside 0\.\.2"):
            VertexSet.of([0, v], 3)
    assert VertexSet.of([2, 0], 3) == VertexSet(0b101, 3)
    # A vertex, member mask or vertex count that is not an integer is refused
    # by name, never truncated; numpy integers are integers.
    with pytest.raises(ContractViolation, match="^vertex must be an integer, got 1.5$"):
        VertexSet.of([1.5], 3)
    with pytest.raises(ContractViolation, match="^vertex must be an integer, got '1'$"):
        VertexSet.of(["1"], 3)
    for members, ambient_n, shown in ((1.5, 3, "members must be an integer, got 1.5"),
                                      (0, 2.5, "ambient_n must be an integer, got 2.5"),
                                      ("a", 3, "members must be an integer, got 'a'")):
        with pytest.raises(ContractViolation, match=f"^{shown}$"):
            VertexSet(members, ambient_n)
    with pytest.raises(ContractViolation, match="^ambient_n must be an integer, got 2.5$"):
        VertexSet.of([0], 2.5)
    assert VertexSet.of(np.array([2, 0]), 3) == VertexSet(0b101, 3)
    assert VertexSet(np.int64(5), np.int8(3)) == VertexSet(0b101, 3)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.m == 2 and g.degrees() == (1, 2, 1)
    assert g.edges() == [(0, 1), (1, 2)]


def test_edges_take_any_integer_type_and_refuse_other_endpoints():
    pairs = np.array([[0, 5], [1, 2]], dtype=np.int32)
    assert Graph.from_edges(8, pairs) == Graph.from_edges(8, [(0, 5), (1, 2)])
    # At n = 80 a fixed-width shift would overflow; the rows are Python ints.
    assert Graph.from_edges(80, np.array([[0, 79]])).edges() == [(0, 79)]
    with pytest.raises(ContractViolation, match=r"edge \(0, 1.0\) has a non-integer endpoint"):
        Graph.from_edges(3, [(0, 1.0)])
    with pytest.raises(ContractViolation, match="non-integer endpoint"):
        Graph.from_edges(3, [("0", 1)])
    for edge, shown in (((0, 1, 2), r"\(0, 1, 2\)"), (5, "5"), ((1,), r"\(1,\)")):
        with pytest.raises(ContractViolation, match=rf"^edge {shown} is not a pair of vertices$"):
            Graph.from_edges(3, [(0, 1), edge])
    # Edges are refused in input order, whatever the fault; then a self-loop
    # at its least vertex; then a negative vertex count.
    with pytest.raises(ContractViolation, match=r"edge \(0, 5\) out of range for n=3"):
        Graph.from_edges(3, [(0, 5), (0, 1, 2)])
    with pytest.raises(ContractViolation, match=r"edge \(0, 1, 2\) is not a pair"):
        Graph.from_edges(3, [(0, 1, 2), (0, 5)])
    with pytest.raises(ContractViolation, match="^self-loop at vertex 1$"):
        Graph.from_edges(4, [(3, 3), (1, 1)])
    with pytest.raises(ContractViolation, match="^self-loop at vertex 2$"):
        Graph.from_edges(4, [(2, 2), (0, 1), (1, 0)])
    with pytest.raises(ContractViolation, match="^vertex count must be >= 0, got -1$"):
        Graph.from_edges(-1, [])
    with pytest.raises(ContractViolation, match=r"^edge \(0, 1\) out of range for n=-1$"):
        Graph.from_edges(-1, [(0, 1)])


def test_graphs_built_from_valid_rows_equal_the_checked_constructor():
    rng = np.random.default_rng(31)
    built = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            built += [g, parse_graph6(write_graph6(g))]
    built.append(Graph.from_edges(0, []))
    for _ in range(60):
        n = int(rng.integers(1, 90))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        built.append(Graph.from_edges(n, [(u, v) for u, v in pairs.tolist() if u != v]))
    algebra = []
    for g, h in zip(built, built[1:] + built[:1]):
        algebra += [complement(g), join(g, h), disjoint_union(g, h)]
        kept = VertexSet.of(np.flatnonzero(rng.random(g.n) < 0.5).tolist(), g.n)
        algebra.append(induced_subgraph(g, kept))
        if g.n <= 8:
            algebra.append(canonical_form(g))
    for g in built + algebra:
        checked = Graph(g.n, g.adj)
        assert type(g.n) is int and checked == g and hash(checked) == hash(g), g


def test_a_float_vertex_count_is_refused():
    with pytest.raises(ContractViolation, match="vertex count must be an integer, got 2.0"):
        Graph(2.0, (0, 0))


def test_a_float_vertex_count_is_refused_by_from_edges():
    with pytest.raises(ContractViolation, match="vertex count must be an integer, got 3.0"):
        Graph.from_edges(3.0, [(0, 1)])


def test_a_numpy_vertex_count_builds_the_graph():
    g = Graph.from_edges(np.int64(70), [(0, 69)])
    assert type(g.n) is int and g == Graph.from_edges(70, [(0, 69)])
    assert g.edges() == [(0, 69)]


def test_a_graph_hashes_once_and_equal_graphs_hash_alike():
    g = cycle(5)
    assert hash(g) == hash((5, g.adj)) == hash(Graph(5, g.adj))
    assert vars(g)["_hash"] == hash(g)
    assert g == Graph(5, g.adj) and g != path(5)


def test_adjacency_must_be_a_tuple_of_ints():
    with pytest.raises(ContractViolation, match="adjacency rows must be a tuple, got list"):
        Graph(3, [2, 5, 2])
    with pytest.raises(ContractViolation, match="row 0 must be an int, got int64"):
        Graph(2, tuple(np.array([2, 1], dtype=np.int64)))
    with pytest.raises(ContractViolation, match="row 1 must be an int, got float"):
        Graph(2, (2, 1.0))


def test_asymmetry_names_a_pair_above_the_diagonal():
    # Rows 0..2 as bitsets: an edge above the diagonal without its mirror,
    # then a bit below the diagonal without its mirror.
    for adj in ((0b100, 0, 0), (0, 0, 0b001)):
        with pytest.raises(ContractViolation, match=r"adjacency not symmetric at \(0, 2\)"):
            Graph(3, adj)
    # Seeded graphs with one bit flipped, on either side of the diagonal.
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        g = gnp(rng, n, float(rng.uniform(0.1, 0.9)))
        i, j = (int(v) for v in rng.choice(n, 2, replace=False))
        rows = list(g.adj)
        rows[i] ^= 1 << j
        pair = rf"\({min(i, j)}, {max(i, j)}\)"
        with pytest.raises(ContractViolation, match=rf"adjacency not symmetric at {pair}$"):
            Graph(n, tuple(rows))


def test_vertex_set():
    s = VertexSet.of([0, 2, 3], 5)
    assert len(s) == 3 and s.vertices == (0, 2, 3)
    assert 2 in s and 1 not in s and list(s) == [0, 2, 3]
    with pytest.raises(ContractViolation):
        VertexSet(1 << 5, 5)


def test_vertex_queries_refuse_a_vertex_that_is_not_one():
    # A negative index would wrap to another row, a vertex past the end would
    # read as absent, and a float would raise a bare TypeError.
    g, s = path(3), VertexSet.of([0, 2], 3)
    for query in (lambda v: g.has_edge(v, 1), lambda v: g.has_edge(1, v), g.degree):
        for v in (-1, 3, 5):
            with pytest.raises(ContractViolation, match=rf"^vertex {v} out of range for n=3$"):
                query(v)
        for v, shown in ((1.0, "1.0"), (1.5, "1.5"), ("1", "'1'")):
            with pytest.raises(ContractViolation, match=f"^vertex must be an integer, got {shown}$"):
                query(v)
    for v in (-1, 3):
        with pytest.raises(ContractViolation, match=rf"^vertex {v} outside 0\.\.2$"):
            v in s
    with pytest.raises(ContractViolation, match="^vertex must be an integer, got 1.5$"):
        1.5 in s
    # numpy integers are integers.
    assert g.has_edge(np.int64(0), np.int8(1)) and not g.has_edge(0, np.int64(2))
    assert g.degree(np.int64(1)) == 2 and np.int64(2) in s and np.int64(1) not in s


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
    with pytest.raises(Graph6Error, match="truncated size header"):
        parse_graph6("~??")  # the long form needs three size bytes
    with pytest.raises(Graph6Error, match="size byte 40"):
        parse_graph6("~?(?")
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D?")  # n=5 needs two body bytes
    with pytest.raises(Graph6Error, match="garbage"):
        parse_graph6("Bw?")
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("B~")  # nonzero bits beyond the 3 used
    with pytest.raises(Graph6Error, match="out of range"):
        parse_graph6("B" + chr(20))
    offset_err = None
    try:
        parse_graph6("Bw?")
    except Graph6Error as exc:
        offset_err = exc.offset
    assert offset_err == 2
    # Padding bits all sit in the last byte; an out-of-range byte anywhere in
    # the body is reported first, at its own offset.
    long_empty = write_graph6(Graph(63, (0,) * 63))  # 1953 bits, 3 of padding
    cases = [
        ("B~", "nonzero padding bits", 1),
        ("D?@", "nonzero padding bits", 2),
        (long_empty[:-1] + "@", "nonzero padding bits", len(long_empty) - 1),
        ("D?" + chr(20), "body byte 20 out of range 63..126", 2),
        ("D" + chr(127) + "?", "body byte 127 out of range 63..126", 1),
        ("D" + chr(20) + "@", "body byte 20 out of range 63..126", 1),
        (long_empty[:9] + chr(200) + long_empty[10:], "body byte 200 out of range", 9),
    ]
    for line, message, offset in cases:
        with pytest.raises(Graph6Error, match=message) as info:
            parse_graph6(line)
        assert info.value.offset == offset, line


def test_graph6_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    for ref in nx.graph_atlas_g():
        g = Graph.from_edges(ref.number_of_nodes(), ref.edges())
        text = nx.to_graph6_bytes(ref, header=False).decode().rstrip("\n")
        assert write_graph6(g) == text
        assert parse_graph6(text) == g


@pytest.mark.parametrize("n", [8, 9, 11, 20, 23, 62, 63, 64, 100, 800, 1500])
def test_graph6_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    # Sparse at n = 1500, where networkx's edge handling dominates the test.
    g = gnp(np.random.default_rng(n), n, 0.3 if n <= 800 else 0.02)
    text = write_graph6(g)
    ref = nx.empty_graph(n)
    ref.add_edges_from(g.edges())
    assert (text + "\n").encode() == nx.to_graph6_bytes(ref, header=False)
    back = nx.from_graph6_bytes(text.encode())
    assert back.number_of_nodes() == n and sorted(back.edges()) == g.edges()
    assert parse_graph6(text) == g


@pytest.mark.parametrize("n", [0, 62, 63, 258047, 258048, 2**36 - 1])
def test_graph6_size_header_matches_networkx(n):
    graph6 = pytest.importorskip("networkx.readwrite.graph6")
    header = _graph6_header(n)
    assert header.encode() == bytes(63 + x for x in graph6.n_to_data(n))
    if n < 2:
        assert parse_graph6(header) == Graph(n, (0,) * n)
        return
    # The header alone leaves the body short by the size it encodes.
    nbytes = (n * (n - 1) // 2 + 5) // 6
    with pytest.raises(Graph6Error, match=f"expected {nbytes} bytes, got 0"):
        parse_graph6(header)


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
    comps = components(two_k2)
    assert [c.vertices for c in comps] == [(0, 1), (2, 3)]
    assert [c.vertices for c in components(cycle(5))] == [(0, 1, 2, 3, 4)]
    assert [c.vertices for c in components(Graph(3, (0, 0, 0)))] == [
        (0,),
        (1,),
        (2,),
    ]
    assert is_connected(cycle(5)) and not is_connected(two_k2)


def test_components_and_bipartition_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(88)
    graphs = random_graphs(seed=88, count=60, n_max=12)
    graphs += [disjoint_union(g, h) for g, h in zip(graphs[::2], graphs[1::2])]
    for _ in range(60):
        # Keep only the edges across a random split: bipartite, often disconnected.
        g = gnp(rng, int(rng.integers(1, 13)), 0.4)
        side = int(rng.integers(0, 1 << g.n))
        graphs.append(Graph.from_edges(g.n, [(u, v) for u, v in g.edges()
                                             if (side >> u & 1) != (side >> v & 1)]))
    outcomes = set()
    for g in graphs:
        ref = nx.empty_graph(g.n)
        ref.add_edges_from(g.edges())
        comps = [set(c.vertices) for c in components(g)]
        assert comps == sorted(nx.connected_components(ref), key=min)
        assert is_connected(g) == nx.is_connected(ref)
        color0 = _bipartition_mask(g.adj, (1 << g.n) - 1)
        assert (color0 is not None) == nx.is_bipartite(ref)
        if color0 is not None:
            color1 = ((1 << g.n) - 1) & ~color0
            assert all(not (g.adj[v] & color0) for v in range(g.n) if color0 >> v & 1)
            assert all(not (g.adj[v] & color1) for v in range(g.n) if color1 >> v & 1)
        outcomes.add((is_connected(g), color0 is not None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


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
    # The size is refused on the call, not on the first graph asked for.
    with pytest.raises(ContractViolation):
        enumerate_graphs(0)
    with pytest.raises(ContractViolation, match="^vertex count must be an integer, got 3.0$"):
        enumerate_graphs(3.0)
    with pytest.raises(BudgetExceeded):
        enumerate_graphs(9, connected_only=True)
    with pytest.raises(BudgetExceeded, match="canonical form supported for n <= 8"):
        canonical_key(path(9))


def _order_key(g: Graph) -> int:
    """Column-major upper-triangle key of the graph's own vertex order."""
    key = 0
    for j in range(g.n):
        for i in range(j):
            key = key << 1 | g.has_edge(i, j)
    return key


def test_swap_skipped_last_columns_are_never_canonical():
    for n in range(2, 8):
        skipped = 0
        for key, parent, _ in _isomorphism_classes(n - 1):
            cols = [
                sum(((parent[i] >> j) & 1) << (j - 1 - i) for i in range(j))
                for j in range(1, n - 1)
            ]
            least = _least_unbeaten_column(key, n)
            for c in range(1 << (n - 1)):
                beaten = any(c >> (n - 1 - j) < col for j, col in enumerate(cols, 1))
                assert beaten == (c < least), (n, key, c)
                if not beaten:
                    continue
                skipped += 1
                nbrs = sum(((c >> (n - 2 - i)) & 1) << i for i in range(n - 1))
                rows = tuple(row | ((nbrs >> i) & 1) << (n - 1) for i, row in enumerate(parent))
                assert _canonical_search(rows + (nbrs,), n)[0] < key << (n - 1) | c
        assert skipped > 0 or n == 2


def test_stored_automorphisms_fix_their_class_rows():
    with_autos = 0
    for n in range(1, 8):
        for _, rows, autos in _isomorphism_classes(n):
            g = Graph(n, rows)
            for sigma in autos:
                assert sigma != tuple(range(n))
                assert relabel(g, sigma) == g, (n, rows, sigma)
            with_autos += bool(autos)
    assert with_autos > 0


def _column_image(sigma: tuple[int, ...], c: int, width: int) -> int:
    """Last column of the new vertex once its neighbours i become sigma[i]."""
    return sum(1 << (width - 1 - sigma[i]) for i in range(width) if c >> (width - 1 - i) & 1)


def test_orbit_refused_last_columns_are_never_canonical():
    beyond_swap = 0
    for n in range(2, 8):
        for key, parent, autos in _isomorphism_classes(n - 1):
            kept = set(_orbit_least_columns(autos, n - 1))
            least = _least_unbeaten_column(key, n)
            for c in range(1 << (n - 1)):
                orbit, frontier = {c}, [c]
                while frontier:
                    images = {_column_image(s, x, n - 1) for x in frontier for s in autos}
                    frontier = list(images - orbit)
                    orbit |= images
                refused = min(orbit) < c
                assert refused == (c not in kept), (n, key, c)
                if not refused:
                    continue
                beyond_swap += c >= least
                nbrs = sum(((c >> (n - 2 - i)) & 1) << i for i in range(n - 1))
                rows = tuple(row | ((nbrs >> i) & 1) << (n - 1) for i, row in enumerate(parent))
                assert _canonical_search(rows + (nbrs,), n)[0] < key << (n - 1) | c
    assert beyond_swap > 0


def test_enumeration_at_n8_matches_oeis():
    keys = [_order_key(g) for g in enumerate_graphs(8)]
    assert len(keys) == 12346  # A000088
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert sum(1 for _ in enumerate_graphs(8, connected_only=True)) == 11117  # A001349


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


def _specified_search(adj: tuple[int, ...], n: int) -> tuple[int, list[tuple[int, ...]]]:
    """The canonical search's return value from its specification over all n!
    orders: the least column-major key; the orders reaching it in which no
    vertex has a lower twin later, ascending; then the first of them with each
    vertex that has a lower twin swapped with its least one."""
    mat = np.array([[(row >> j) & 1 for j in range(n)] for row in adj], dtype=np.int64)
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    keys = np.zeros(len(perms), dtype=np.int64)
    for j in range(n):
        for i in range(j):
            keys = keys << 1 | mat[perms[:, i], perms[:, j]]
    least = int(keys.min())
    lower_twins = [
        {w for w in range(u) if not (adj[u] ^ adj[w]) & ~(1 << u | 1 << w)} for u in range(n)
    ]
    orders = [
        order
        for order in map(tuple, perms[keys == least].tolist())
        if not any(lower_twins[v] & set(order[pos + 1:]) for pos, v in enumerate(order))
    ]
    for u, twins in enumerate(lower_twins):
        if twins:
            w = min(twins)
            orders.append(tuple(w if v == u else u if v == w else v for v in orders[0]))
    return least, orders


def test_canonical_search_returns_its_specified_key_and_orders():
    rng = np.random.default_rng(19)
    classes = [(n, rows) for n in range(1, 7) for _, rows, _ in _isomorphism_classes(n)]
    sevens = _isomorphism_classes(7)
    classes += [(7, sevens[i][1]) for i in rng.choice(len(sevens), size=12, replace=False)]
    for n, rows in classes:
        for _ in range(2):
            adj = relabel(Graph(n, rows), rng.permutation(n)).adj
            assert _canonical_search(adj, n) == _specified_search(adj, n), (n, adj)


def test_a_bounded_search_refuses_exactly_the_candidates_a_full_search_beats():
    # Every last column of every parent class on up to 6 vertices, as orderly
    # generation would build it before its two pre-tests.
    candidates = 0
    for n in range(2, 8):
        for key, parent, _ in _isomorphism_classes(n - 1):
            base = key << (n - 1)
            for c in range(1 << (n - 1)):
                nbrs = int(format(c, f"0{n - 1}b")[::-1], 2)
                rows = tuple(row | ((nbrs >> i) & 1) << (n - 1) for i, row in enumerate(parent))
                rows += (nbrs,)
                full = _canonical_search(rows, n)
                bounded = _canonical_search(rows, n, base | c)
                if full[0] == base | c:
                    assert bounded == full, (n, rows)
                else:
                    assert full[0] < base | c and bounded is None, (n, rows)
                candidates += 1
    assert candidates == 11290


def test_a_cold_generation_up_to_n7_searches_1548_candidates():
    # A fresh interpreter, so the cached classes of this one stay as they are.
    # The count goes through the module attribute, as the bench tracer's does.
    code = (
        "import json\n"
        "from sqenergy import graphs\n"
        "search, counts, rejected = graphs._canonical_search, [0] * 8, [0] * 8\n"
        "def counted(adj, n, target=None):\n"
        "    counts[n] += 1\n"
        "    found = search(adj, n, target)\n"
        "    rejected[n] += found is None\n"
        "    return found\n"
        "graphs._canonical_search = counted\n"
        "graphs._isomorphism_classes(7)\n"
        "print(json.dumps([counts[2:], rejected[2:]]))\n"
    )
    src = str(Path(sqenergy.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    counts, rejected = json.loads(done.stdout)
    assert counts == [2, 4, 11, 36, 184, 1311]
    assert sum(counts) == 1548
    # Every search that keeps no class stops at the first order that beats
    # its candidate: the searches less the classes on 2..7 vertices.
    assert rejected == [0, 0, 0, 2, 28, 267]


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
        perm = rng.permutation(g.n)
        rows = [0] * g.n
        for i, row in enumerate(g.adj):
            for j in range(g.n):
                if (row >> j) & 1:
                    rows[perm[i]] |= 1 << int(perm[j])
        assert relabel(g, perm) == Graph(g.n, tuple(rows))
