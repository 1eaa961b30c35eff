"""Semidefinite characterizations, the projected-gradient oracle, the 3x3 PSD
scan, and removal witnesses."""

import math

import numpy as np
import pytest

from _gen import random_connected_with_p3, random_graphs
import sqenergy.sdp as sdp
from sqenergy.errors import ContractViolation, ConvergenceError
from sqenergy.families import complete, cycle, cycle_with_triangles, path
from sqenergy.graphs import delete_vertex, enumerate_graphs
from sqenergy.oracles import find_induced_p3
from sqenergy.sdp import (
    PsdWitness,
    p3_psd_margin,
    p3_removal_witness,
    projected_gradient_min,
    random_psd,
    rayleigh_max_value,
    row_col_square_sum,
    scan_p3_psd_inequality,
    verify_min_characterization,
)
from sqenergy.spectral import spectral_split, square_energies


def test_row_col_square_sum():
    a = path(3).adjacency_matrix()
    assert row_col_square_sum(a, 0) == pytest.approx(2.0)
    assert row_col_square_sum(a, 1) == pytest.approx(4.0)
    assert row_col_square_sum(np.zeros((4, 4)), 2) == 0.0
    with pytest.raises(ContractViolation):
        row_col_square_sum(a, 3)
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


def test_min_characterization_examples():
    k3 = complete(3)
    report = verify_min_characterization(k3)
    assert report.ok
    assert report.split_plus_objective == pytest.approx(4.0, abs=1e-9)
    # M = 0 gives ||A||^2 = 2m >= s+
    a = k3.adjacency_matrix()
    assert float(np.square(a).sum()) >= report.s_plus - 1e-9

    p3 = path(3)
    report = verify_min_characterization(p3)
    assert report.ok and report.s_plus == pytest.approx(2.0)


def test_min_characterization_random_sweep():
    for g in random_graphs(seed=77, count=200, n_max=10):
        report = verify_min_characterization(g)
        assert report.ok, (g, report.equality_gap)


def test_projected_gradient_examples():
    assert projected_gradient_min(complete(2), "plus") == pytest.approx(1.0, abs=1e-8)
    assert projected_gradient_min(complete(4), "minus") == pytest.approx(3.0, abs=1e-8)
    assert projected_gradient_min(cycle(5), "plus") == pytest.approx(
        7.0 - math.sqrt(5), abs=1e-6
    )
    with pytest.raises(ContractViolation):
        projected_gradient_min(complete(2), "both")


def test_projected_gradient_reports_tail_when_iterations_run_out(monkeypatch):
    # One step takes K2's "plus" objective from ||A||^2 = 2 to s+ = 1, a change
    # far above the stopping threshold, so a one-step cap runs out.
    monkeypatch.setattr(sdp, "GRADIENT_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError, match="within 1 iterations") as info:
        projected_gradient_min(complete(2), "plus")
    assert info.value.trajectory_tail == pytest.approx((2.0, 1.0), abs=1e-12)


def test_projected_gradient_matches_eigensolver():
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            report = square_energies(g)
            tol = 1e-4 * max(1.0, 2.0 * g.m)
            assert abs(projected_gradient_min(g, "plus") - report.s_plus) <= tol
            assert abs(projected_gradient_min(g, "minus") - report.s_minus) <= tol


def test_rayleigh_examples():
    k4 = complete(4)
    split = spectral_split(k4)
    report = square_energies(k4)
    w_plus = PsdWitness.from_matrix(split.a_plus)
    w_minus = PsdWitness.from_matrix(split.a_minus)
    assert rayleigh_max_value(k4, w_plus, "plus") == pytest.approx(report.s_plus)
    assert rayleigh_max_value(k4, w_minus, "minus") == pytest.approx(3.0)
    identity = PsdWitness.from_matrix(np.eye(4))
    assert rayleigh_max_value(k4, identity, "plus") == 0.0  # zero trace
    with pytest.raises(ContractViolation):
        rayleigh_max_value(k4, PsdWitness(np.zeros((4, 4)), 0.0), "plus")
    with pytest.raises(ContractViolation):
        PsdWitness.from_matrix(-np.eye(3))
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractViolation, match="non-finite"):
            PsdWitness.from_matrix(np.array([[0.0, bad], [bad, 0.0]]))
    for size in (1, 2):  # a witness must match the graph's size, not broadcast
        with pytest.raises(ContractViolation, match="shape"):
            rayleigh_max_value(path(3), PsdWitness.from_matrix(np.eye(size)), "plus")


def test_rayleigh_never_exceeds():
    rng = np.random.default_rng(11)
    for g in random_graphs(seed=13, count=30, n_max=8):
        if g.n == 0:
            continue
        report = square_energies(g)
        for _ in range(10):
            w = PsdWitness.from_matrix(random_psd(rng, g.n))
            if float(np.square(w.mat).sum()) == 0.0:
                continue
            assert rayleigh_max_value(g, w, "plus") <= report.s_plus + 1e-8
            assert rayleigh_max_value(g, w, "minus") <= report.s_minus + 1e-8


def test_p3_psd_margin_values():
    assert p3_psd_margin(np.array(1.0)) == pytest.approx(10.0)
    assert p3_psd_margin(np.array(0.5)) == pytest.approx(1.0)


def test_p3_psd_scan():
    report = scan_p3_psd_inequality(grid_step=1e-3, random_trials=500, seed=3)
    assert report.ok
    assert 0.5 <= report.grid_min <= 0.6
    for grid_step, trials in [(1e-2, 1), (0.0, 1), (-1e-3, 1), (float("nan"), 1), (1e-3, -1)]:
        with pytest.raises(ContractViolation):
            scan_p3_psd_inequality(grid_step=grid_step, random_trials=trials, seed=0)
    with pytest.raises(ContractViolation, match="seed must be >= 0, got -1"):
        scan_p3_psd_inequality(grid_step=1e-3, random_trials=1, seed=-1)
    # M = 0: the middle row/column sum of A alone is 4 > 1
    a = path(3).adjacency_matrix()
    assert max(row_col_square_sum(a, i) for i in range(3)) == pytest.approx(4.0)


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
            rest = square_energies(delete_vertex(g, u))
            drops[u] = (whole.s_minus - rest.s_minus, whole.s_plus - rest.s_plus)
        assert witness.drop_minus == drops[witness.vertex_minus][0]
        assert witness.drop_plus == drops[witness.vertex_plus][1]
        assert witness.drop_minus == max(d[0] for d in drops.values())
        assert witness.drop_plus == max(d[1] for d in drops.values())
