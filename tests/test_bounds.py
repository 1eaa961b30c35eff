"""Bound certificates: per-inequality verdicts, the s+ certification
pipeline, and the informational checks."""

import math

import numpy as np
import pytest

from _gen import all_trees, is_bipartite, no_isolated_random_graphs
from sqenergy.bounds import (
    bound_alon_boppana,
    bound_dominating_vertex,
    bound_domination,
    bound_efgw,
    bound_inertia,
    bound_ratio,
    bound_regular,
    bound_surplus,
    bound_triangle,
    certify_s_plus_pipeline,
    conjecture_checks,
    energy_wall_check,
)
from sqenergy.errors import BudgetExceeded, ContractViolation
from sqenergy.families import (
    complete,
    cycle,
    cycle_with_triangles,
    gq_collinearity_graph,
    path,
    petersen,
    star,
    unicyclic_glue,
)
from sqenergy.graphs import (
    Graph,
    disjoint_union,
    is_clique,
    is_star,
    join,
    parse_graph6,
)
from sqenergy.spectral import square_energies


def test_efgw_examples():
    for tree in (path(5), star(6), path(2)):
        verdict = bound_efgw(tree)
        assert verdict.holds and verdict.slack == pytest.approx(0.0, abs=1e-9)
    kn = bound_efgw(complete(6))
    assert kn.holds and kn.lhs == pytest.approx(5.0)  # s- side is tight
    c5 = bound_efgw(cycle(5))
    assert c5.holds and c5.lhs == pytest.approx(7 - math.sqrt(5))
    with pytest.raises(ContractViolation):
        bound_efgw(disjoint_union(path(2), path(2)))


def test_domination_examples():
    verdict = bound_domination(petersen())
    assert verdict.holds and verdict.rhs == 7 and verdict.lhs == pytest.approx(14.0)
    assert verdict.witness["gamma"] == 3
    verdict = bound_domination(star(5))
    assert verdict.holds and verdict.slack == pytest.approx(0.0, abs=1e-9)
    verdict = bound_domination(disjoint_union(path(2), path(2)))
    assert verdict.holds and verdict.slack == pytest.approx(0.0, abs=1e-9)


def test_inertia_examples():
    verdict = bound_inertia(star(5))
    assert verdict.holds and verdict.rhs == 3 and verdict.lhs == pytest.approx(4.0)
    verdict = bound_inertia(complete(4))
    assert verdict.holds and verdict.slack == pytest.approx(0.0, abs=1e-9)
    verdict = bound_inertia(cycle(4))
    assert verdict.holds and verdict.rhs == 2
    with pytest.raises(ContractViolation):
        bound_inertia(Graph(2, (0, 0)))


def test_dominating_vertex_examples():
    verdict = bound_dominating_vertex(complete(5))
    assert verdict.holds and verdict.witness["classification"] == "clique"
    verdict = bound_dominating_vertex(star(6))
    assert verdict.holds and verdict.witness["classification"] == "star"
    friendship = join(Graph(1, (0,)), disjoint_union(complete(2), complete(2)))
    verdict = bound_dominating_vertex(friendship)
    assert verdict.holds and verdict.witness["classification"] == "strict"
    assert verdict.lhs == pytest.approx(4.4386, abs=1e-3)
    with pytest.raises(ContractViolation):
        bound_dominating_vertex(cycle(4))


def test_dominating_vertex_equality_classification(connected_corpus):
    for n in range(2, 8):
        for g in connected_corpus[n]:
            if g.degrees().count(g.n - 1) == 0:
                continue
            verdict = bound_dominating_vertex(g)
            assert verdict.holds
            equality = abs(verdict.slack) <= 1e-6
            assert equality == (is_star(g) or is_clique(g))


def test_triangle_examples():
    verdict = bound_triangle(complete(4))
    assert verdict.holds
    assert verdict.rhs == pytest.approx(6 ** (4 / 3) / (4 ** (1 / 3) * 3 ** (2 / 3)))
    gq = bound_triangle(gq_collinearity_graph(2))
    assert gq.holds and gq.lhs == pytest.approx(120.0, abs=1e-6)
    assert gq.rhs == pytest.approx(135 ** (4 / 3) / (27 ** (1 / 3) * 10 ** (2 / 3)), rel=1e-6)
    k2 = bound_triangle(complete(2))
    assert k2.holds and k2.lhs == pytest.approx(1.0)
    assert k2.rhs == pytest.approx(2 ** (-1 / 3))
    with pytest.raises(ContractViolation):
        bound_triangle(Graph(3, (0, 0, 0)))


def test_ratio_examples():
    gq = bound_ratio(gq_collinearity_graph(2))
    assert gq.holds and gq.rhs == pytest.approx(1.25, abs=1e-9)
    assert gq.lhs == pytest.approx(2 * 27**0.25)
    kn = bound_ratio(complete(7))
    assert kn.holds and kn.rhs == pytest.approx(1 / 6, abs=1e-9)
    c4 = bound_ratio(cycle(4))
    assert c4.holds and c4.rhs == pytest.approx(1.0)
    with pytest.raises(ContractViolation):
        bound_ratio(Graph(2, (0, 0)))


def test_regular_examples():
    pet = bound_regular(petersen())
    assert pet.holds and pet.rhs == pytest.approx((3 / 4) ** (2 / 3) * 10)
    for n in (4, 5, 8, 11):
        verdict = bound_regular(cycle(n))
        assert verdict.holds and verdict.rhs == pytest.approx(0.5 ** (2 / 3) * n)
    k4 = bound_regular(complete(4))
    assert k4.holds and k4.lhs == pytest.approx(9.0)
    with pytest.raises(ContractViolation):
        bound_regular(path(3))


def test_alon_boppana_examples():
    c50 = bound_alon_boppana(cycle(50))
    assert c50.applicable and c50.holds
    lam2 = 2 * math.cos(2 * math.pi / 50)
    assert c50.lhs == pytest.approx(lam2 * lam2, abs=1e-9)
    k4 = bound_alon_boppana(complete(4))
    assert not k4.applicable and k4.holds
    pet = bound_alon_boppana(petersen())
    assert not pet.applicable and pet.holds  # lambda_1 = 3 > sqrt(15) * 20^(-1/8)


def test_surplus_examples():
    k4 = bound_surplus(complete(4))
    assert k4.holds and k4.rhs == pytest.approx(1 / 6)
    c5 = bound_surplus(cycle(5))
    assert c5.holds and c5.rhs == pytest.approx(2.25 / 5)
    c6 = bound_surplus(cycle(6))
    assert c6.holds and c6.lhs == pytest.approx(6.0) and c6.rhs == pytest.approx(1.5)


@pytest.mark.parametrize("check", [bound_domination, bound_surplus, conjecture_checks])
def test_exact_search_budgets_must_be_integers(check):
    for bad in (2.5, 9.0, "9", None):
        with pytest.raises(ContractViolation, match=f"^budget n must be an integer, got {bad!r}$"):
            check(cycle(5), bad)
    with pytest.raises(BudgetExceeded, match=r"^exact search budget n <= 4, got n=5$"):
        check(cycle(5), 4)
    assert check(cycle(5), np.int64(5)) == check(cycle(5))


def test_pipeline_cases():
    k4 = certify_s_plus_pipeline(complete(4))
    assert k4.holds and k4.witness["case"] == "case-1"
    two_k2 = certify_s_plus_pipeline(disjoint_union(path(2), path(2)))
    assert two_k2.holds and two_k2.witness["case"] == "case-1"
    assert two_k2.rhs <= two_k2.lhs + 1e-9
    big_star = certify_s_plus_pipeline(star(41))
    assert big_star.holds and big_star.witness["case"] == "case-3"
    assert big_star.rhs == pytest.approx(10.0)  # (40/2)^2 / 40
    with pytest.raises(ContractViolation):
        certify_s_plus_pipeline(Graph(2, (0, 0)))


def test_pipeline_case_2_bounds_a_light_class_by_its_inner_degree():
    # K_{1,5} plus a disjoint K_2: the head class {7} holds no edge, and the
    # degree-1 class holds the K_2, whose inner degree 1 stands in for lambda_1.
    verdict = certify_s_plus_pipeline(parse_graph6("G???No"))
    assert verdict.witness["case"] == "case-2" and verdict.witness["class_index"] == 1
    assert verdict.rhs == pytest.approx(7 ** (-1 / 3))  # 1^(4/3) / (7^(1/3) * 1^(2/3))
    assert verdict.holds and verdict.lhs == pytest.approx(6.0)
    # C_40 with each vertex joined to one of four hubs: the cycle's class has
    # full degree 3 but inner degree 2, and only the inner one enters the rhs.
    edges = [(i, (i + 1) % 40) for i in range(40)] + [(i, 40 + i % 4) for i in range(40)]
    verdict = certify_s_plus_pipeline(Graph.from_edges(44, edges))
    assert verdict.witness["case"] == "case-2" and verdict.witness["class_edges"] == [0, 40, 0]
    assert verdict.rhs == pytest.approx(40 / 2 ** (2 / 3))  # 40^(4/3) / (40^(1/3) * 2^(2/3))
    assert verdict.holds and verdict.lhs == pytest.approx(80.0)  # bipartite: s+ = m


def test_pipeline_soundness_random():
    for g in no_isolated_random_graphs(seed=404, count=60, n_max=30):
        verdict = certify_s_plus_pipeline(g)
        assert verdict.holds
        assert verdict.rhs <= verdict.lhs + 1e-6
        assert verdict.witness["case"] in ("case-1", "case-2", "case-3")


def test_energy_wall_examples():
    k4 = energy_wall_check(complete(4))
    assert k4.informational and k4.lhs == pytest.approx(6.0) and k4.rhs == 2.0
    c4 = energy_wall_check(cycle(4))
    assert c4.lhs == pytest.approx(4.0) and c4.rhs == 2.0
    k2 = energy_wall_check(complete(2))
    assert k2.slack == pytest.approx(0.0, abs=1e-9)


def test_conjecture_checks():
    c6 = conjecture_checks(cycle(6))
    linear = next(v for v in c6 if v.bound_name == "surplus-linear-ratio")
    assert linear.informational
    assert linear.witness["ratio"] == pytest.approx(2.0)  # bipartite: s+ = m, surp = m/2
    checks = conjecture_checks(cycle_with_triangles(5))
    assert all(v.informational for v in checks)
    assert all(v.witness["surplus"] > 0 for v in checks)


def test_unicyclic_lower_bound(connected_corpus):
    # connected with m = n: min square energy stays above n - 2
    count = 0
    for n in range(3, 8):
        for g in connected_corpus[n]:
            if g.m != g.n:
                continue
            count += 1
            report = square_energies(g)
            assert min(report.s_plus, report.s_minus) >= g.n - 2 - 1e-6
    assert count == 1 + 2 + 5 + 13 + 33


def test_tree_glued_to_odd_cycle_strict():
    # sample here; the acceptance suite runs every tree with up to 8 vertices
    for tree in all_trees(5)[5]:
        for k in (5, 7):
            for attach in range(tree.n):
                g = unicyclic_glue(tree, cycle(k), attach)
                report = square_energies(g)
                assert min(report.s_plus, report.s_minus) > g.n - 1 + 1e-9


def test_bipartite_surplus_form(connected_corpus):
    for g in connected_corpus[6]:
        if not is_bipartite(g):
            continue
        verdict = bound_surplus(g)
        assert verdict.lhs == pytest.approx(g.m, abs=1e-6)
        assert verdict.rhs == pytest.approx(g.m / 4.0, abs=1e-9)
        assert verdict.holds
