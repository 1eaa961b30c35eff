"""Constructive partitions and the superadditivity certificate."""

import numpy as np
import pytest

from _gen import gnp, random_two_part_partition
from sqenergy.errors import ContractViolation
from sqenergy.families import complete, cycle, path, petersen, star
from sqenergy.graphs import (
    Graph,
    VertexSet,
    disjoint_union,
    induced_subgraph,
    is_clique,
    is_star,
)
from sqenergy.oracles import DominationCertificate, domination_number
from sqenergy.partitions import (
    Partition,
    certify_superadditivity,
    degree_class_partition,
    degree_class_thresholds,
    domination_partition,
    star_clique_partition,
)
from sqenergy.spectral import square_energies


def test_partition_validation():
    with pytest.raises(ContractViolation):
        Partition((VertexSet.of([0], 2), VertexSet.of([0, 1], 2)), ("a", "b"))
    with pytest.raises(ContractViolation):
        Partition((VertexSet.of([0], 2),), ("a",))  # does not cover
    with pytest.raises(ContractViolation):
        Partition((VertexSet.of([], 2), VertexSet.of([0, 1], 2)), ("a", "b"))
    with pytest.raises(ContractViolation, match="parts and labels must have equal length"):
        Partition((VertexSet.of([0, 1], 2),), ("a", "b"))
    with pytest.raises(ContractViolation, match="parts disagree on the ambient vertex count"):
        Partition((VertexSet.of([0], 1), VertexSet.of([1], 2)), ("a", "b"))
    with pytest.raises(ContractViolation, match="degree classes need m >= 1"):
        degree_class_thresholds(0)
    # empty parts allowed only for degree classes
    Partition(
        (VertexSet.of([0, 1], 2), VertexSet.of([], 2)),
        ("degree-class-0", "degree-class-1"),
    )


def test_star_clique_examples():
    assert star_clique_partition(path(4)).as_lists() == [[0, 1], [2, 3]]
    assert star_clique_partition(star(6)).as_lists() == [[0, 1, 2, 3, 4, 5]]
    two_k3 = disjoint_union(complete(3), complete(3))
    assert star_clique_partition(two_k3).as_lists() == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(ContractViolation):
        star_clique_partition(Graph(3, (2, 1, 0)))  # vertex 2 isolated


def test_star_clique_structure_on_corpus(connected_corpus):
    for n in range(2, 8):
        for g in connected_corpus[n]:
            partition = star_clique_partition(g)
            for part in partition.parts:
                assert len(part) >= 2
                sub = induced_subgraph(g, part)
                assert is_star(sub) or is_clique(sub)


def test_domination_partition_examples():
    g = star(5)
    cert = domination_number(g)
    partition = domination_partition(g, cert)
    assert partition.as_lists() == [[0, 1, 2, 3, 4]]

    cert = DominationCertificate(2, VertexSet.of([0, 2], 4))
    assert domination_partition(cycle(4), cert).as_lists() == [[0, 1, 3], [2]]

    pet = petersen()
    cert = domination_number(pet)
    partition = domination_partition(pet, cert)
    assert len(partition.parts) == 3
    for part, dom in zip(partition.parts, cert.witness.vertices):
        sub = induced_subgraph(pet, part)
        idx = part.vertices.index(dom)
        assert sub.degree(idx) == sub.n - 1  # block has a dominating vertex

    with pytest.raises(ContractViolation):
        domination_partition(cycle(4), DominationCertificate(1, VertexSet.of([0], 4)))
    # A witness over more vertices than the graph fails on its size, before
    # any index into the graph's rows.
    with pytest.raises(ContractViolation, match="ambient size"):
        domination_partition(path(3), DominationCertificate(1, VertexSet(1 << 5, 6)))


def test_domination_partition_feeds_vertex_bound(connected_corpus):
    for n in range(1, 8):
        for g in connected_corpus[n]:
            cert = domination_number(g)
            partition = domination_partition(g, cert)
            assert sum(len(p) - 1 for p in partition.parts) == g.n - cert.gamma
            report = square_energies(g)
            assert min(report.s_plus, report.s_minus) >= g.n - cert.gamma - 1e-6


def test_degree_class_thresholds_m100():
    ranges = degree_class_thresholds(100)
    assert len(ranges) == 3
    assert ranges[0][0] == pytest.approx(3.598, abs=1e-3)
    assert ranges[1] == (pytest.approx(1.799, abs=1e-3), pytest.approx(3.598, abs=1e-3))
    assert ranges[2] == (1.0, pytest.approx(1.799, abs=1e-3))


def test_degree_class_examples():
    partition = degree_class_partition(complete(4))
    assert partition.as_lists()[0] == [0, 1, 2, 3]
    assert partition.labels[0] == "degree-class-0"
    assert degree_class_partition(path(2)).as_lists() == [[0, 1]]
    # m=100 star: center in the head class, leaves in the tail class
    s101 = star(101)
    partition = degree_class_partition(s101)
    assert [len(p) for p in partition.parts] == [1, 0, 100]
    with pytest.raises(ContractViolation):
        degree_class_partition(Graph(2, (0, 0)))


def test_degree_class_intervals_partition_degrees():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = gnp(rng, int(rng.integers(2, 16)), float(rng.uniform(0.2, 0.9)))
        if g.m < 1 or any(g.adj[v] == 0 for v in range(g.n)):
            continue
        ranges = degree_class_thresholds(g.m)
        # disjoint, decreasing, exhaustive over degrees >= 1
        for (lo1, up1), (lo2, up2) in zip(ranges, ranges[1:]):
            assert up2 == lo1 or (up2 <= lo1)
        assert ranges[-1][0] == 1.0 or ranges[-1][0] == pytest.approx(1.0)
        import math

        head = max(2.0, g.m ** (3.0 / 7.0))
        assert len(ranges) <= math.ceil(math.log2(math.log2(head))) + 2
        partition = degree_class_partition(g)
        seen = 0
        for part in partition.parts:
            assert not (seen & part.members)
            seen |= part.members
        assert seen == (1 << g.n) - 1


def test_superadditivity_examples():
    c5 = cycle(5)
    partition = Partition(
        (VertexSet.of([0, 1, 2], 5), VertexSet.of([3, 4], 5)), ("star", "clique")
    )
    report = certify_superadditivity(c5, partition)
    assert report.part_s_plus == (pytest.approx(2.0), pytest.approx(1.0))
    assert report.s_plus_total >= 3.0 and report.holds

    k4 = complete(4)
    partition = Partition(
        (VertexSet.of([0, 1], 4), VertexSet.of([2, 3], 4)), ("clique", "clique")
    )
    report = certify_superadditivity(k4, partition)
    assert report.s_minus_total == pytest.approx(3.0)
    assert sum(report.part_s_minus) == pytest.approx(2.0)
    assert report.holds

    trivial = Partition((VertexSet.of(range(4), 4),), ("clique",))
    report = certify_superadditivity(k4, trivial)
    assert report.slack_plus == pytest.approx(0.0, abs=1e-9)
    assert report.slack_minus == pytest.approx(0.0, abs=1e-9)

    with pytest.raises(ContractViolation):
        certify_superadditivity(cycle(5), trivial)


def test_superadditivity_random_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        g = gnp(rng, n, float(rng.uniform(0.1, 0.9)))
        partition = random_two_part_partition(rng, n)
        report = certify_superadditivity(g, partition)
        assert report.slack_plus >= -1e-8
        assert report.slack_minus >= -1e-8
