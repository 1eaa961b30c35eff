"""Named graph family constructors and the generalized-quadrangle graph."""

import math
from collections import Counter

import numpy as np
import pytest

from _gen import brute_triangle_count, is_bipartite
from sqenergy.errors import BudgetExceeded, ContractViolation
from sqenergy.families import (
    complete,
    cycle,
    cycle_with_triangles,
    gq_collinearity_graph,
    gq_predicted_spectrum,
    join_complement,
    path,
    petersen,
    star,
    star_plus_edge,
    unicyclic_glue,
)
from sqenergy.graphs import VertexSet, disjoint_union, is_connected, is_regular
from sqenergy.partitions import Partition, certify_superadditivity
from sqenergy.spectral import numeric_tolerance, spectrum, square_energies


def test_basic_families():
    assert complete(4).m == 6
    assert star(5).degrees() == (4, 1, 1, 1, 1)
    assert path(4).m == 3 and cycle(4).m == 4
    pet = petersen()
    assert pet.n == 10 and pet.m == 15 and set(pet.degrees()) == {3}
    for builder in (complete, star, path):
        with pytest.raises(ContractViolation):
            builder(0)
    with pytest.raises(ContractViolation):
        cycle(2)
    with pytest.raises(ContractViolation, match=r"star_plus_edge\(n\) needs n >= 3"):
        star_plus_edge(2)


@pytest.mark.parametrize(
    "builder, param",
    [(complete, "n"), (star, "n"), (path, "n"), (cycle, "n"),
     (star_plus_edge, "n"), (cycle_with_triangles, "k")],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_family_sizes_must_be_integers(builder, param):
    for bad in (2.5, 5.0, "5", None):
        with pytest.raises(ContractViolation, match=f"^{param} must be an integer, got {bad!r}$"):
            builder(bad)
    assert builder(np.int64(5)) == builder(5)


def test_star_plus_edge_is_paw_at_4():
    paw = star_plus_edge(4)
    assert paw.n == 4 and paw.m == 4
    least = spectrum(paw).values[-1]
    assert least == pytest.approx(-1.4812, abs=1e-3)
    assert least < -math.sqrt(2)


def test_cycle_with_triangles_counts():
    g = cycle_with_triangles(5)
    assert g.n == 15 and g.m == 20
    assert is_connected(g)
    assert brute_triangle_count(g) == 5
    with pytest.raises(ContractViolation):
        cycle_with_triangles(2)


def test_cycle_with_triangles_partition_bound():
    # triangle parts push s+ to at least 4k
    for k in (3, 4, 5, 6):
        g = cycle_with_triangles(k)
        parts = tuple(
            VertexSet.of([v, k + 2 * v, k + 2 * v + 1], g.n) for v in range(k)
        )
        partition = Partition(parts, ("clique",) * k)
        report = certify_superadditivity(g, partition)
        assert report.holds
        assert sum(report.part_s_plus) == pytest.approx(4 * k, abs=1e-8)
        assert report.s_plus_total >= 4 * k - 1e-8


def test_unicyclic_glue():
    g = unicyclic_glue(path(3), cycle(5), 0)
    assert g.n == 7 and g.m == 7
    assert is_connected(g) and not is_bipartite(g)
    with pytest.raises(ContractViolation):
        unicyclic_glue(cycle(3), cycle(5), 0)  # not a tree
    with pytest.raises(ContractViolation):
        unicyclic_glue(path(3), path(4), 0)  # not a cycle
    # The attach vertex is a vertex of the tree, refused by name otherwise.
    for attach, shown in ((3, "vertex 3 out of range for n=3"),
                          (1.5, "vertex must be an integer, got 1.5"),
                          ("1", "vertex must be an integer, got '1'")):
        with pytest.raises(ContractViolation, match=f"^{shown}$"):
            unicyclic_glue(path(3), cycle(5), attach)


def test_join_complement():
    # complement of K_3 is empty, so the join is complete bipartite K_{3,3}
    g = join_complement(complete(3))
    assert np.allclose(spectrum(g).values, [3, 0, 0, 0, 0, -3])
    with pytest.raises(ContractViolation):
        join_complement(path(3))


def test_join_complement_spectrum_identity():
    # Apart from its top eigenvalue, the join's spectrum is {-lambda - 1} over
    # the base spectrum, doubled except for one copy of the top base value.
    for base in (petersen(), complete(4), cycle(5), disjoint_union(complete(2), complete(2))):
        assert is_regular(base)
        big = join_complement(base)
        actual = sorted(spectrum(big).values[1:])
        values = spectrum(base).values
        expected = [-lam - 1.0 for lam in values] * 2
        expected.remove(-values[0] - 1.0)
        assert len(actual) == len(expected) == 2 * base.n - 1
        deviation = max(abs(a - b) for a, b in zip(actual, sorted(expected)))
        assert deviation <= numeric_tolerance(big.n), base


def test_gq_predicted_spectrum_values():
    p2 = gq_predicted_spectrum(2)
    assert (p2.k, p2.r, p2.a, p2.f, p2.g) == (10, 1, -5, 20, 6)
    assert p2.n_pred == 27 and p2.m_pred == 135
    p3 = gq_predicted_spectrum(3)
    assert (p3.k, p3.r, p3.a, p3.f, p3.g) == (30, 2, -10, 90, 21)
    assert p3.n_pred == 112
    for q in (4, 1):
        with pytest.raises(ContractViolation, match=f"^q must be prime, got {q}$"):
            gq_predicted_spectrum(q)
    # A float q is refused, not carried into float parameters.
    with pytest.raises(ContractViolation, match="^q must be an integer, got 2.0$"):
        gq_predicted_spectrum(2.0)


def test_gq_predicted_identities_many_primes():
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        params = gq_predicted_spectrum(q)  # factory asserts the identities
        assert params.n_pred == 1 + params.f + params.g


def test_gq_graph_q2_structure():
    g = gq_collinearity_graph(2)
    assert g.n == 27 and set(g.degrees()) == {10}
    # strongly regular fingerprint: n*k*lambda/6 triangles with lambda = 1
    assert brute_triangle_count(g) == 45
    rounded = Counter(round(v) for v in spectrum(g).values)
    assert rounded == {10: 1, 1: 20, -5: 6}
    report = square_energies(g)
    assert report.s_plus == pytest.approx(120.0, abs=1e-6)
    assert report.s_minus == pytest.approx(150.0, abs=1e-6)


def test_gq_graph_q3_structure():
    g = gq_collinearity_graph(3)
    assert g.n == 112 and set(g.degrees()) == {30}
    rounded = Counter(round(v) for v in spectrum(g).values)
    assert rounded == {30: 1, 2: 90, -10: 21}


def test_gq_graph_guards():
    with pytest.raises(ContractViolation):
        gq_collinearity_graph(4)
    # 2.5 passes a trial-division primality test; it is refused as a non-integer.
    with pytest.raises(ContractViolation, match="^q must be an integer, got 2.5$"):
        gq_collinearity_graph(2.5)
    with pytest.raises(BudgetExceeded):
        gq_collinearity_graph(5)
