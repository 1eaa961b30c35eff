"""Semidefinite characterizations against the numpy reference forms, the
exact proof of the 3x3 PSD quartic by a sympy root count, and removal
witnesses."""

import math

import numpy as np
import pytest
import sympy

from _gen import (
    projected_gradient_min,
    random_connected_with_p3,
    random_graphs,
    random_psd,
    rayleigh_value,
    row_col_square_sum,
)
from sqenergy.bounds import BOUNDS, p3_removal_witness
from sqenergy.errors import ContractViolation
from sqenergy.families import complete, cycle, cycle_with_triangles, path
from sqenergy.graphs import VertexSet, enumerate_graphs, induced_subgraph
from sqenergy.oracles import find_induced_p3
from sqenergy.spectral import spectral_split, square_energies


def test_row_col_square_sum():
    a = path(3).adjacency_matrix()
    assert row_col_square_sum(a, 0) == pytest.approx(2.0)
    assert row_col_square_sum(a, 1) == pytest.approx(4.0)
    assert row_col_square_sum(np.zeros((4, 4)), 2) == 0.0
    # removing row/column i splits the squared norm exactly
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        mat = rng.standard_normal((n, n))
        mat = (mat + mat.T) / 2
        i = int(rng.integers(0, n))
        minor = np.delete(np.delete(mat, i, 0), i, 1)
        total = float(np.square(mat).sum())
        assert total == pytest.approx(
            float(np.square(minor).sum()) + row_col_square_sum(mat, i)
        )


def _sdp_min(g):
    [verdict] = BOUNDS["sdp-min"](g)
    return verdict


def test_min_characterization_examples():
    # The split halves attain the minimization form: ||A + A-||^2 = s+.
    for g, s_plus in ((complete(3), 4.0), (path(3), 2.0)):
        verdict = _sdp_min(g)
        assert verdict.holds and verdict.witness["equality_gap"] <= 1e-9
        a = g.adjacency_matrix()
        objective = float(np.square(a + spectral_split(g).a_minus).sum())
        assert objective == pytest.approx(square_energies(g).s_plus, abs=1e-9)
        assert objective == pytest.approx(s_plus, abs=1e-9)
        # M = 0 gives ||A||^2 = 2m >= s+
        assert float(np.square(a).sum()) >= s_plus - 1e-9


def test_min_characterization_random_sweep():
    for g in random_graphs(seed=77, count=200, n_max=10):
        verdict = _sdp_min(g)
        a, e, split = g.adjacency_matrix(), square_energies(g), spectral_split(g)
        gap = max(abs(float(np.square(a + split.a_minus).sum()) - e.s_plus),
                  abs(float(np.square(a - split.a_plus).sum()) - e.s_minus))
        assert verdict.holds, (g, gap)
        assert verdict.witness == {"equality_gap": gap}
        assert (verdict.lhs, verdict.rhs, verdict.slack) == (0.0, 0.0, 0.0)


def test_projected_gradient_examples():
    assert projected_gradient_min(complete(2), "plus") == pytest.approx(1.0, abs=1e-8)
    assert projected_gradient_min(complete(4), "minus") == pytest.approx(3.0, abs=1e-8)
    assert projected_gradient_min(cycle(5), "plus") == pytest.approx(
        7.0 - math.sqrt(5), abs=1e-6
    )


def test_projected_gradient_matches_eigensolver():
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            report = square_energies(g)
            tol = 1e-4 * max(1.0, 2.0 * g.m)
            assert abs(projected_gradient_min(g, "plus") - report.s_plus) <= tol
            assert abs(projected_gradient_min(g, "minus") - report.s_minus) <= tol


def test_rayleigh_examples():
    k4 = complete(4)
    a = k4.adjacency_matrix()
    split = spectral_split(k4)
    report = square_energies(k4)
    assert rayleigh_value(a, split.a_plus, "plus") == pytest.approx(report.s_plus)
    assert rayleigh_value(a, split.a_minus, "minus") == pytest.approx(3.0)
    assert rayleigh_value(a, np.eye(4), "plus") == 0.0  # zero trace


def test_rayleigh_never_exceeds():
    rng = np.random.default_rng(11)
    for g in random_graphs(seed=13, count=30, n_max=8):
        a = g.adjacency_matrix()
        report = square_energies(g)
        for _ in range(10):
            m = random_psd(rng, g.n)
            assert rayleigh_value(a, m, "plus") <= report.s_plus + 1e-8
            assert rayleigh_value(a, m, "minus") <= report.s_minus + 1e-8


def test_p3_psd_scan():
    # Some row/column square sum of A - M and of A + M exceeds 1 for PSD M,
    # A the 3-path adjacency matrix: the lemma whose quartic core the next
    # test proves.
    a = path(3).adjacency_matrix()
    rng = np.random.default_rng(3)
    for _ in range(500):
        m = random_psd(rng, 3)
        for mat in (a - m, a + m):
            assert max(row_col_square_sum(mat, i) for i in range(3)) > 1.0
    # M = 0: the middle row/column sum of A alone is 4 > 1
    assert max(row_col_square_sum(a, i) for i in range(3)) == pytest.approx(4.0)


def test_p3_psd_certificate_agrees_with_sympy():
    # The exact proof of the quartic core: margin(x) > 1/2 on [1/2, 1], since
    # 2 (margin - 1/2) is positive at both ends and has no real root between.
    x, half = sympy.Symbol("x"), sympy.Rational(1, 2)
    d = 1 - x
    margin = 16 * x**4 - 6 * (1 - 4 * d**2) * (1 - 2 * d**2)
    quartic = sympy.Poly(2 * (margin - half), x)
    assert quartic.all_coeffs() == [-64, 384, -504, 240, -37]
    assert (quartic.eval(half), quartic.eval(1)) == (1, 19)
    assert quartic.count_roots(half, 1) == 0


def test_p3_removal_witness_on_path():
    p3 = path(3)
    witness = p3_removal_witness(p3, (0, 1, 2))
    assert witness.vertex_minus == 1 and witness.drop_minus == pytest.approx(2.0)
    assert witness.vertex_plus == 1 and witness.drop_plus == pytest.approx(2.0)


def test_p3_removal_witness_on_cycle():
    witness = p3_removal_witness(cycle(5), (0, 1, 2))
    assert witness.drop_minus > 1.0 + 1e-9
    assert witness.drop_plus > 1.0 + 1e-9
    assert witness.vertex_minus in (0, 1, 2) and witness.vertex_plus in (0, 1, 2)


def test_p3_removal_witness_rejects_non_path():
    g = cycle_with_triangles(5)
    # the pendant triangle at cycle vertex 0 is (0, 5, 6): a triangle, not a path
    with pytest.raises(ContractViolation):
        p3_removal_witness(g, (0, 5, 6))
    with pytest.raises(ContractViolation):
        p3_removal_witness(complete(3), (0, 1, 2))


def test_p3_removal_sweep():
    for g in random_connected_with_p3(seed=2025, count=100, n_lo=5, n_hi=10):
        from sqenergy.oracles import find_induced_p3

        witness = p3_removal_witness(g, find_induced_p3(g))
        assert witness.drop_minus >= 1.0 + 1e-9
        assert witness.drop_plus >= 1.0 + 1e-9


def test_removal_drops_equal_those_of_the_vertex_deleted_graphs(connected_corpus):
    # The stacked submatrices give bitwise the energies of the deleted
    # graphs, on every connected graph with up to 7 vertices and on graphs
    # of 38-45 vertices, whose three submatrices take stacks of two and one.
    graphs = [g for n in range(3, 8) for g in connected_corpus[n]]
    graphs += random_connected_with_p3(seed=59, count=2, n_lo=38, n_hi=45)
    for g in graphs:
        triple = find_induced_p3(g)
        if triple is None:
            continue
        whole = square_energies(g)
        witness = p3_removal_witness(g, triple)
        drops = {}
        for u in triple:
            others = VertexSet.of([v for v in range(g.n) if v != u], g.n)
            rest = square_energies(induced_subgraph(g, others))
            drops[u] = (whole.s_minus - rest.s_minus, whole.s_plus - rest.s_plus)
        assert witness.drop_minus == drops[witness.vertex_minus][0]
        assert witness.drop_plus == drops[witness.vertex_plus][1]
        assert witness.drop_minus == max(d[0] for d in drops.values())
        assert witness.drop_plus == max(d[1] for d in drops.values())
