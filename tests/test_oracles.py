"""Exact combinatorial oracles: domination, maxcut, induced paths, and the
structural filter properties."""

import pytest

from _gen import (
    brute_domination_number,
    brute_independence_number,
    brute_max_cut,
    components,
    is_bipartite,
    random_graphs,
)
from sqenergy.errors import BudgetExceeded, ContractViolation
from sqenergy.families import complete, cycle, path, petersen, star
from sqenergy.graphs import (
    Graph,
    VertexSet,
    disjoint_union,
    enumerate_graphs,
    induced_subgraph,
    is_connected,
)
from sqenergy import oracles
from sqenergy.oracles import (
    check_bipartite_removal_property,
    check_p3_cut_vertex_property,
    cut_size,
    cut_vertices,
    domination_number,
    find_induced_p3,
    is_dominating,
    max_cut,
)
from sqenergy.spectral import graph_inertia


def test_domination_examples():
    assert domination_number(cycle(5)).gamma == 2
    cert = domination_number(star(7))
    assert cert.gamma == 1 and cert.witness.vertices == (0,)
    assert domination_number(petersen()).gamma == 3


def test_domination_cross_check_and_certificate():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            cert = domination_number(g)
            assert cert.gamma == brute_domination_number(g)
            assert is_dominating(g, cert.witness.members)
            # minimality: strictly smaller sets never dominate
            if cert.gamma:
                from itertools import combinations

                for sub in combinations(range(g.n), cert.gamma - 1):
                    assert not is_dominating(g, sum(1 << v for v in sub))


def test_domination_budget():
    with pytest.raises(BudgetExceeded):
        domination_number(Graph(25, (0,) * 25))


def test_combinatorial_inequalities(connected_corpus):
    for n in range(1, 8):
        for g in connected_corpus[n]:
            cert = domination_number(g)
            alpha = brute_independence_number(g)
            assert cert.gamma <= alpha
            inert = graph_inertia(g)
            assert max(inert.n_plus, inert.n_minus) <= g.n - alpha
            # minimum witnesses are irredundant: dropping any vertex breaks them
            for v in cert.witness.vertices:
                assert not is_dominating(g, cert.witness.members & ~(1 << v))


def test_domination_half_bound_without_isolated_vertices():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            if any(g.adj[v] == 0 for v in range(g.n)):
                continue
            assert 2 * domination_number(g).gamma <= g.n


def test_max_cut_examples():
    report = max_cut(complete(4))
    assert report.maxcut == 4 and report.surplus == 1.0
    report = max_cut(cycle(5))
    assert report.maxcut == 4 and report.surplus == 1.5
    report = max_cut(path(4))
    assert report.maxcut == 3 and report.surplus == 1.5
    with pytest.raises(BudgetExceeded):
        max_cut(Graph(25, (0,) * 25))


def test_max_cut_cross_check():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            report = max_cut(g)
            assert report.maxcut == brute_max_cut(g)
            assert cut_size(g, report.side.members) == report.maxcut
            assert report.surplus >= 0
    for g in random_graphs(seed=31, count=20, n_max=10):
        report = max_cut(g)
        assert report.maxcut == brute_max_cut(g)
        if is_bipartite(g):
            assert report.maxcut == g.m and report.surplus == g.m / 2.0


def test_find_induced_p3():
    assert find_induced_p3(path(3)) == (0, 1, 2)
    assert find_induced_p3(cycle(4)) == (0, 1, 2)
    assert find_induced_p3(disjoint_union(complete(4), complete(2))) is None
    # absent exactly on disjoint unions of cliques
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            triple = find_induced_p3(g)
            comps_are_cliques = all(
                induced_subgraph(g, c).m == len(c) * (len(c) - 1) // 2 for c in components(g)
            )
            assert (triple is None) == comps_are_cliques
            if triple is not None:
                u, v, w = triple
                assert g.has_edge(u, v) and g.has_edge(v, w) and not g.has_edge(u, w)


def test_cut_vertices():
    assert cut_vertices(path(3)) == [1]
    assert cut_vertices(cycle(5)) == []
    assert cut_vertices(star(5)) == [0]


def test_p3_cut_vertex_property():
    assert check_p3_cut_vertex_property(path(3)) is True
    assert check_p3_cut_vertex_property(cycle(5)) is False
    assert check_p3_cut_vertex_property(complete(4)) is True  # vacuous
    with pytest.raises(ContractViolation):
        check_p3_cut_vertex_property(disjoint_union(complete(2), complete(2)))


def test_p3_cut_vertex_check_stops_at_the_first_violation(monkeypatch):
    # C25 has 25 induced 3-paths and no cut vertex, so its first path decides.
    drawn = []
    real = oracles._induced_p3s

    def counted(g):
        for triple in real(g):
            drawn.append(triple)
            yield triple

    monkeypatch.setattr(oracles, "_induced_p3s", counted)
    assert check_p3_cut_vertex_property(cycle(25)) is False
    assert drawn == [(0, 1, 2)]


def test_bipartite_removal_property():
    assert check_bipartite_removal_property(cycle(4)) is True
    # 4-cycle qualifies; the leftover pendant vertex stays connected
    c6_pendant = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)]
    )
    assert check_bipartite_removal_property(c6_pendant) is False
    with pytest.raises(ContractViolation, match="property check requires a connected graph"):
        check_bipartite_removal_property(disjoint_union(path(2), path(2)))
    # forests never produce a bipartite subset with e >= |U|
    for n in range(2, 8):
        for g in enumerate_graphs(n, connected_only=True):
            if g.m == g.n - 1:
                assert check_bipartite_removal_property(g) is True
                assert not _brute_bipartite_subsets(g)


def test_bipartite_removal_budget_and_cap():
    with pytest.raises(BudgetExceeded, match=r"full subset scan limited to n <= 16$"):
        check_bipartite_removal_property(cycle(17))


def _brute_bipartite_subsets(g: Graph) -> list[tuple[VertexSet, bool]]:
    """Every vertex subset inducing a bipartite graph with at least as many
    edges as vertices, ascending mask, each with whether the rest is nonempty
    and connected: a walk over every mask of the graph."""
    full = (1 << g.n) - 1
    out = []
    for mask in range(1, full + 1):
        u = VertexSet(mask, g.n)
        h = induced_subgraph(g, u)
        if h.m >= len(u) and is_bipartite(h):
            rest = induced_subgraph(g, VertexSet(full & ~mask, g.n))
            out.append((u, rest.n > 0 and is_connected(rest)))
    return out


def test_bipartite_removal_matches_a_walk_over_every_mask():
    graphs = [g for g in random_graphs(seed=31, count=40, n_max=12, n_min=4) if is_connected(g)]
    graphs.append(path(12))
    assert len(graphs) >= 20 and max(g.n for g in graphs) == 12
    answers = []
    for g in graphs:
        no_bad_subset = not any(bad for _, bad in _brute_bipartite_subsets(g))
        assert check_bipartite_removal_property(g) is no_bad_subset, g
        answers.append(no_bad_subset)
    assert True in answers and False in answers
