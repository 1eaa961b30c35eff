"""Eigendecomposition kernel and spectrum-derived quantities."""

import gc
import json
import math
import weakref
from collections import Counter

import numpy as np
import pytest
import sympy

from _gen import brute_triangle_count, gnp, is_bipartite, random_bipartite_graphs, random_graphs
import sqenergy.spectral as spectral
from sqenergy.errors import ContractViolation, NumericError
from sqenergy.families import complete, cycle, path, petersen, star, star_plus_edge
from sqenergy.graphs import Graph, enumerate_graphs
from sqenergy.spectral import (
    Inertia,
    Spectrum,
    graph_inertia,
    numeric_tolerance,
    spectral_split,
    eigen_decompose_stack,
    spectrum,
    square_energies,
)


def _decompose(mat, m):
    """One matrix with m edges as a stack of one, its error raised."""
    [out] = eigen_decompose_stack(np.asarray(mat, dtype=np.float64)[None], [m])
    if isinstance(out, Exception):
        raise out
    return out


def test_eigen_examples():
    spec, _, report, _ = _decompose(complete(4).adjacency_matrix(), 6)
    assert np.allclose(spec.values, [3.0, -1.0, -1.0, -1.0])
    assert (report.s_plus, report.m) == (pytest.approx(9.0), 6)
    spec, _, _, _ = _decompose(complete(2).adjacency_matrix(), 1)
    assert np.allclose(spec.values, [1.0, -1.0])
    spec, _, _, _ = _decompose(path(3).adjacency_matrix(), 2)
    assert np.allclose(spec.values, [math.sqrt(2), 0.0, -math.sqrt(2)])


def test_eigen_contracts():
    with pytest.raises(ContractViolation, match="not symmetric"):
        _decompose([[0.0, 1.0], [0.0, 0.0]], 1)
    for shape in ((2, 3), (1, 2, 3)):
        with pytest.raises(ContractViolation, match="expected a stack of square matrices"):
            eigen_decompose_stack(np.zeros(shape), [0])
    for bad in (math.nan, math.inf):
        for mat in ([[0.0, bad], [bad, 0.0]], [[bad, 0.0], [0.0, 1.0]]):
            with pytest.raises(ContractViolation, match="non-finite"):
                _decompose(mat, 1)
    for g in random_graphs(seed=42, count=20, n_max=14):
        mat = g.adjacency_matrix()
        spec, vecs, _, _ = _decompose(mat, g.m)
        assert list(spec.values) == sorted(spec.values, reverse=True)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(g.n))) < 1e-10
        assert spec.residual_bound <= 1e-10 * max(1.0, np.linalg.norm(mat))


def test_a_nan_residual_fails_the_residual_check(monkeypatch):
    monkeypatch.setattr(
        np.linalg, "eigh", lambda mats: (np.full(mats.shape[:-1], np.nan), np.eye(2) + 0 * mats)
    )
    with pytest.raises(NumericError, match="residual nan exceeds"):
        _decompose(complete(2).adjacency_matrix(), 1)


def test_spectrum_examples():
    assert np.allclose(spectrum(complete(4)).values, [3, -1, -1, -1])
    assert np.allclose(spectrum(star(5)).values, [2, 0, 0, 0, -2])
    pet = spectrum(petersen())
    assert np.allclose(pet.values, [3] + [1] * 5 + [-2] * 4)


def test_petersen_char_poly_factors():
    # Independent oracle: exact characteristic polynomial factorization.
    lam = sympy.Symbol("x")
    mat = sympy.Matrix(petersen().adjacency_matrix().astype(int).tolist())
    poly = mat.charpoly(lam).as_expr()
    expected = (lam - 3) * (lam - 1) ** 5 * (lam + 2) ** 4
    assert sympy.expand(poly - expected) == 0


def test_square_energy_examples():
    k4 = square_energies(complete(4))
    assert abs(k4.s_plus - 9.0) < 1e-10 and abs(k4.s_minus - 3.0) < 1e-10
    s5 = square_energies(star(5))
    assert abs(s5.s_plus - 4.0) < 1e-10 and abs(s5.s_minus - 4.0) < 1e-10
    c5 = square_energies(cycle(5))
    assert abs(c5.s_plus - (7.0 - math.sqrt(5))) < 1e-10
    assert abs(c5.s_minus - (3.0 + math.sqrt(5))) < 1e-10
    empty = square_energies(Graph(0, ()))
    assert empty.s_plus == empty.s_minus == empty.energy == 0.0


def test_square_energies_refuse_a_negative_or_non_finite_band():
    # A negative band would count the eigenvalues inside it on both sides
    # (P4 at -1.0: s+ + s- = 6.76 where 2m = 6); NaN would count none.
    for band in (-1.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ContractViolation, match="zero_tolerance"):
            square_energies(path(4), band)
    assert square_energies(path(4), 0.0).s_plus == pytest.approx(3.0)


def test_square_energy_identities_random():
    for g in random_graphs(seed=101, count=100, n_max=12):
        report = square_energies(g)
        assert abs(report.s_plus + report.s_minus - 2 * g.m) <= 1e-8 * max(1, 2 * g.m)
    for g in random_bipartite_graphs(seed=102, count=200, n_max=14):
        report = square_energies(g)
        assert abs(report.s_plus - g.m) <= 1e-8 * max(1, g.m)
        assert abs(report.s_minus - g.m) <= 1e-8 * max(1, g.m)


def test_a_failing_solver_is_a_numeric_error(monkeypatch):
    def failing(mats):
        raise np.linalg.LinAlgError("no convergence")

    gc.collect()
    g = cycle(6)
    assert g not in spectral._MEMO
    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericError, match="^eigendecomposition failed for 6x6 matrix$"):
        square_energies(g)


def test_wrong_eigenvectors_fail_the_reconstruction_check(monkeypatch, tmp_path, capsys):
    # C5's eigenvector columns reversed: each half is still a certified PSD
    # matrix, so only the reconstruction of A can catch them.
    from sqenergy.cli import main

    g = cycle(5)
    spec, vecs, energies, counts = spectral._decomposition(g)
    monkeypatch.setitem(spectral._MEMO, g, (spec, vecs[:, ::-1], energies, counts))
    with pytest.raises(NumericError, match="^split does not reconstruct the adjacency matrix$"):
        spectral_split(g)
    out = tmp_path / "r.jsonl"
    assert main(["bounds", "family:cycle:n=5", "--set", "sdp-min", "--out", str(out)]) == 1
    [record] = [json.loads(line) for line in out.read_text().splitlines()]
    assert (record["name"], record["status"]) == ("sdp-min", "error")
    assert record["reason"] == "NumericError: split does not reconstruct the adjacency matrix"
    assert "errors: 1" in capsys.readouterr().err


def test_spectral_split_examples():
    split = spectral_split(Graph(3, (0, 0, 0)))
    assert np.all(split.a_plus == 0) and np.all(split.a_minus == 0)
    split = spectral_split(complete(2))
    assert np.allclose(split.a_plus, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(split.a_minus, [[0.5, -0.5], [-0.5, 0.5]])
    split = spectral_split(path(3))
    # bipartite: positive-part entries across the bipartition are A/2
    assert abs(split.a_plus[0, 1] - 0.5) < 1e-10
    assert abs(split.a_plus[1, 2] - 0.5) < 1e-10
    assert abs(split.a_minus[0, 1] + 0.5) < 1e-10


def test_spectral_split_invariants_random():
    for g in random_graphs(seed=103, count=40, n_max=10):
        split = spectral_split(g)
        tau = numeric_tolerance(g.n)
        report = square_energies(g)
        a = g.adjacency_matrix()
        if g.n:
            assert np.linalg.eigvalsh(split.a_plus)[0] >= -tau
            assert np.linalg.eigvalsh(split.a_minus)[0] >= -tau
        assert np.max(np.abs(split.a_plus - split.a_minus - a), initial=0.0) <= tau
        assert abs(float((split.a_plus * split.a_minus).sum())) <= tau
        assert abs(float(np.square(split.a_plus).sum()) - report.s_plus) <= tau
        assert abs(float(np.square(split.a_minus).sum()) - report.s_minus) <= tau


def _halves(g):
    """Each split half with the certificate of its columns and weights."""
    s, vecs, _, _ = spectral._decomposition(g)
    values = np.array(s.values)
    tau = numeric_tolerance(g.n)
    split = spectral_split(g)
    yield split.a_plus, spectral._psd_defect(vecs[:, values > tau], values[values > tau])
    yield split.a_minus, spectral._psd_defect(vecs[:, values < -tau], -values[values < -tau])


def test_the_psd_certificate_bounds_the_least_eigenvalue(connected_corpus):
    # numpy's eigensolver is the independent witness of each certificate.
    rng = np.random.default_rng(2024)
    seeded = [gnp(rng, n, p) for n in (20, 100, 400) for p in (0.05, 0.5)]
    for g in [h for graphs in connected_corpus.values() for h in graphs] + seeded:
        for half, defect in _halves(g):
            assert 0.0 <= defect <= numeric_tolerance(g.n)
            assert np.linalg.eigvalsh(half).min(initial=0.0) >= -defect


def test_empty_halves_have_zero_defect():
    for g in (Graph(0, ()), complete(1), Graph(5, (0,) * 5)):
        for half, defect in _halves(g):
            assert defect == 0.0 and not half.any()


@pytest.mark.parametrize("name", ["a_plus", "a_minus"])
def test_a_defect_above_the_tolerance_fails_the_split(name, monkeypatch):
    # K5: a_plus has one column of weight 4, a_minus four of weight 1, so
    # their defects are about 24u and 48u. A tolerance below a half's defect
    # (and above a_plus's for a_minus) must fail that half.
    g = complete(5)
    (_, d_plus), (_, d_minus) = _halves(g)
    assert 0.0 < d_plus < d_minus
    tau = d_plus / 2 if name == "a_plus" else (d_plus + d_minus) / 2
    monkeypatch.setattr(spectral, "numeric_tolerance", lambda n: tau)
    with pytest.raises(NumericError, match=f"^{name} is not PSD within tolerance$"):
        spectral_split(g)


def test_inertia_examples():
    i = graph_inertia(star(5))
    assert (i.n_plus, i.n_zero, i.n_minus) == (1, 3, 1)
    i = graph_inertia(complete(4))
    assert (i.n_plus, i.n_zero, i.n_minus) == (1, 0, 3)
    i = graph_inertia(cycle(4))
    assert (i.n_plus, i.n_zero, i.n_minus) == (1, 2, 1)


def test_triangle_count_spectral():
    # tr(A^3) / 6, a sixth of the third spectral moment, counts triangles.
    def spectral_count(g):
        return float(np.sum(np.power(np.array(spectrum(g).values), 3))) / 6.0

    for g, count in ((complete(3), 1), (complete(4), 4), (complete(6), 20),
                     (cycle(6), 0), (petersen(), 0)):
        assert brute_triangle_count(g) == count
        assert abs(spectral_count(g) - count) < 1e-9
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            got = spectral_count(g)
            assert abs(got - brute_triangle_count(g)) < 1e-6
            if is_bipartite(g):
                assert abs(got) < 1e-9


def test_star_plus_edge_least_eigenvalue():
    # least eigenvalue <= -sqrt(n-2), equality only at n=3
    assert abs(spectrum(star_plus_edge(3)).values[-1] + 1.0) < 1e-10
    for n in range(4, 13):
        least = spectrum(star_plus_edge(n)).values[-1]
        assert least < -math.sqrt(n - 2) - 1e-9


# The graph-level functions share one decomposition per live graph. A graph
# that some other test keeps alive may already hold one, so each test below
# builds its own graph.


def _fresh_graph(seed=17):
    return gnp(np.random.default_rng(seed), 14, 0.4)


def _graph_level_results(g):
    split = spectral_split(g)
    return spectrum(g), square_energies(g), graph_inertia(g), split.a_plus, split.a_minus


def _assert_same_results(got, want):
    assert got[:3] == want[:3]
    assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])


def test_graph_level_functions_share_one_eigensolve(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    g = _fresh_graph()
    _graph_level_results(g)
    # One decomposition; the split's halves are certified PSD without one.
    assert calls == {"eigh": 1}


def test_shared_decomposition_is_freed_with_its_graph():
    gc.disable()
    try:
        g = _fresh_graph()
        spectrum(g)
        probe = Graph(g.n, g.adj)  # equal, so it finds g's entry while g lives
        assert probe is not g and probe in spectral._decomposition.memo
        del g
        assert probe not in spectral._decomposition.memo
    finally:
        gc.enable()


def test_equal_graphs_give_equal_results():
    first, second = _fresh_graph(), _fresh_graph()
    assert first == second and first is not second
    _assert_same_results(_graph_level_results(first), _graph_level_results(second))


def test_shared_eigenvectors_are_read_only():
    g = _fresh_graph()
    _, vecs, _, _ = spectral._decomposition(g)
    assert not vecs.flags.writeable
    with pytest.raises(ValueError):
        vecs[0, 0] = 1.0
    split = spectral_split(g)
    assert split.a_plus.flags.writeable and split.a_minus.flags.writeable


def _counted_inertia(spec):
    """The eigenvalues of spec above, within and below the zero band."""
    values, tau = np.array(spec.values), numeric_tolerance(spec.n)
    n_plus, n_minus = int((values > tau).sum()), int((values < -tau).sum())
    return Inertia(n_plus, spec.n - n_plus - n_minus, n_minus)


def _formula_halves(g):
    """The split halves of g's matrix decomposed alone, by boolean column
    masks and sym(V W V^T)."""
    spec, vecs, _, _ = _decompose(g.adjacency_matrix(), g.m)
    values = np.array(spec.values)
    tau = numeric_tolerance(g.n)
    plus, minus = values > tau, values < -tau
    a_plus = (vecs[:, plus] * values[plus]) @ vecs[:, plus].T
    a_minus = (vecs[:, minus] * -values[minus]) @ vecs[:, minus].T
    return (a_plus + a_plus.T) / 2, (a_minus + a_minus.T) / 2


def test_graph_level_functions_equal_a_fresh_decomposition(connected_corpus):
    graphs = [g for n in range(1, 6) for g in connected_corpus[n]] + [petersen()]
    for g in graphs:
        spec, _, _, _ = _decompose(g.adjacency_matrix(), g.m)
        energies = square_energies(g, zero_tolerance=numeric_tolerance(g.n))
        want = (spec, energies, _counted_inertia(spec), *_formula_halves(g))
        _assert_same_results(_graph_level_results(g), want)


def _bits(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


def _decomposition_bits(spec, vecs, report, counts):
    return _bits(
        spec.values, [spec.residual_bound], vecs,
        [report.s_plus, report.s_minus, report.energy, report.m],
        [counts.n_plus, counts.n_zero, counts.n_minus],
    )


def test_a_stacked_decomposition_equals_stacks_of_one():
    # Every graph on up to 7 vertices and seeded graphs on 20..60 vertices,
    # one stack per vertex count: values, vectors, residual and report are
    # bitwise those of the matrix decomposed alone.
    rng = np.random.default_rng(41)
    groups = [list(enumerate_graphs(n)) for n in range(1, 8)]
    groups += [[gnp(rng, n, p) for p in (0.2, 0.5, 0.8)] for n in (20, 33, 47, 60)]
    for graphs in groups:
        mats = np.stack([g.adjacency_matrix() for g in graphs])
        stacked = spectral.eigen_decompose_stack(mats, [g.m for g in graphs])
        for g, mat, got in zip(graphs, mats, stacked):
            [alone] = spectral.eigen_decompose_stack(mat[None], [g.m])
            assert _decomposition_bits(*got) == _decomposition_bits(*alone)
            assert not got[1].flags.writeable


def test_seeded_decompositions_equal_a_graph_decomposed_alone():
    # 40 graphs on 12 vertices take two stacked eigensolves, of 28 and 12.
    rng = np.random.default_rng(43)
    graphs = [gnp(rng, 12, 0.5) for _ in range(40)]
    memo = spectral._decomposition.memo
    assert not any(g in memo for g in graphs)
    spectral.decompose_graphs(graphs, lambda g: True)
    assert all(g in memo for g in graphs)
    for g in graphs:
        want = spectral.eigen_decompose_stack(g.adjacency_matrix()[None], [g.m])[0]
        assert _decomposition_bits(*memo[g]) == _decomposition_bits(*want)
    # A graph alone at its size is left to its own call unless the caller
    # asks for it, and is then a stack of one, with the bits of that call.
    lone, other = gnp(rng, 65, 0.5), gnp(rng, 11, 0.5)
    assert spectral.decompose_graphs([lone, other], lambda g: False) == []
    assert lone not in memo and other not in memo
    spectral.decompose_graphs([lone, other], lambda g: g is lone)
    assert other not in memo
    want = spectral.eigen_decompose_stack(lone.adjacency_matrix()[None], [lone.m])[0]
    assert _decomposition_bits(*memo[lone]) == _decomposition_bits(*want)


def test_a_failing_matrix_in_a_stack_gets_its_own_error():
    mats = np.stack([complete(3).adjacency_matrix()] * 4)
    mats[1, 0, 2] = 0.5  # not symmetric
    mats[2, 1, 1] = np.nan
    outs = spectral.eigen_decompose_stack(mats, [3] * 4)
    assert isinstance(outs[1], ContractViolation) and "not symmetric" in str(outs[1])
    assert isinstance(outs[2], ContractViolation) and "non-finite" in str(outs[2])
    assert _decomposition_bits(*outs[0]) == _decomposition_bits(*outs[3])
    assert outs[0][0] == spectrum(complete(3))
    # A wrong edge count fails the square-sum check of that matrix only.
    outs = spectral.eigen_decompose_stack(mats[[0, 3]], [3, 4])
    assert isinstance(outs[1], NumericError) and "square-sum" in str(outs[1])
    assert outs[0][2] == square_energies(complete(3))


def test_a_stack_beyond_the_entry_cap_is_solved_in_sub_stacks(monkeypatch):
    # 100 random 7-vertex graphs passed whole: 4096 // 49 = 83 matrices share
    # one solver call and the other 17 the next, and each entry is bitwise
    # that of its own stack of one.
    rng = np.random.default_rng(97)
    graphs = [gnp(rng, 7, 0.5) for _ in range(100)]
    mats = np.stack([g.adjacency_matrix() for g in graphs])
    ms = [g.m for g in graphs]
    alone = [eigen_decompose_stack(mat[None], [m])[0] for mat, m in zip(mats, ms)]
    shapes, calls = [], []
    eigh, decompose = np.linalg.eigh, spectral.eigen_decompose_stack

    def recording(stack):
        shapes.append(stack.shape)
        return eigh(stack)

    def counting(*args):
        calls.append(len(args[0]))
        return decompose(*args)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(spectral, "eigen_decompose_stack", counting)
    stacked = spectral.eigen_decompose_stack(mats, ms)
    assert shapes == [(83, 7, 7), (17, 7, 7)]
    for got, want in zip(stacked, alone):
        assert _decomposition_bits(*got) == _decomposition_bits(*want)
    # A sub-stack that fails before its residual check is solved one matrix
    # a call by the same loop, which a wrapper of the routine sees once.
    mats[90, 0, 1] = 0.5
    shapes.clear()
    calls.clear()
    outs = spectral.eigen_decompose_stack(mats, ms)
    assert calls == [100]
    assert shapes == [(83, 7, 7)] + [(1, 7, 7)] * 16
    assert isinstance(outs[90], ContractViolation)
    for i, (got, want) in enumerate(zip(outs, alone)):
        if i != 90:
            assert _decomposition_bits(*got) == _decomposition_bits(*want)


def _random_bipartite(rng, n, p):
    half = n // 2
    edges = [(i, j) for i in range(half) for j in range(half, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_whole_stack_energies_equal_those_of_each_matrix_alone():
    # One stack per vertex count, at sizes where numpy sums pairwise, mixing
    # an empty graph (every eigenvalue in the zero band), K_n, bipartite
    # graphs and G(n, p): every report field equals (==) the 1-D energies of
    # that matrix's values.
    rng = np.random.default_rng(67)
    for n in (8, 9, 12, 16, 33, 64):
        graphs = [Graph(n, (0,) * n), complete(n), star(n), path(n)]
        graphs += [_random_bipartite(rng, n, p) for p in (0.3, 0.7)]
        graphs += [gnp(rng, n, p) for p in (0.1, 0.3, 0.5, 0.8)]
        mats = np.stack([g.adjacency_matrix() for g in graphs])
        outs = spectral.eigen_decompose_stack(mats, [g.m for g in graphs])
        tau = numeric_tolerance(n)
        for g, (spec, _, report, _) in zip(graphs, outs):
            want = spectral._energies(np.array(spec.values), tau, g.m)
            assert (report.s_plus, report.s_minus, report.energy, report.m) == (
                want.s_plus, want.s_minus, want.energy, want.m
            )


def _assert_formula_split(g, split):
    """Each half bitwise that of ``_formula_halves``, signed zeros included."""
    for got, want in zip((split.a_plus, split.a_minus), _formula_halves(g)):
        assert got.shape == want.shape == (g.n, g.n)
        assert _bits(got) == _bits(want)


def test_stacked_splits_of_every_connected_graph_up_to_7_equal_the_formula(
    connected_corpus, monkeypatch
):
    # Blocks of 64 graphs, decomposed as a sweep decomposes them and split by
    # one split_stack per stack; a graph that no stack takes is split alone.
    # An empty memo, so that graphs another test keeps alive are stacked too.
    monkeypatch.setattr(spectral, "_MEMO", weakref.WeakKeyDictionary())
    for n, graphs in connected_corpus.items():
        for start in range(0, len(graphs), 64):
            block = graphs[start:start + 64]
            stacked = {}
            for stack, mats, entries in spectral.decompose_graphs(block, lambda g: True):
                splits = spectral.split_stack(entries, lambda rows: mats[rows])
                stacked.update(zip(stack, splits))
            if len(block) > 1:
                assert len(stacked) == len(block)
            for g in block:
                _assert_formula_split(g, stacked.get(g) or spectral_split(g))


def test_random_stack_splits_up_to_64_vertices_equal_the_formula():
    # Stacks mixing repeated and distinct inertias, empty halves (the empty
    # graph, and K_n's one positive eigenvalue) and bipartite graphs.
    rng = np.random.default_rng(2025)
    for n in (8, 9, 12, 16, 23, 33, 47, 64):
        graphs = [Graph(n, (0,) * n), complete(n), star(n), path(n)]
        graphs += [_random_bipartite(rng, n, 0.5)]
        graphs += [gnp(rng, n, p) for p in (0.1, 0.3, 0.3, 0.5, 0.5, 0.8)]
        mats = np.stack([g.adjacency_matrix() for g in graphs])
        entries = eigen_decompose_stack(mats, [g.m for g in graphs])
        splits = spectral.split_stack(entries, lambda rows: mats[rows])
        for g, split in zip(graphs, splits):
            _assert_formula_split(g, split)


def test_a_split_too_large_to_stack_equals_the_formula():
    rng = np.random.default_rng(2026)
    for n in (65, 100, 200):
        assert 2 * n * n > spectral.STACK_MAX_ENTRIES  # one matrix a solver call
        for p in (0.1, 0.5):
            g = gnp(rng, n, p)
            _assert_formula_split(g, spectral_split(g))


def test_each_split_call_returns_new_writable_halves():
    g = gnp(np.random.default_rng(47), 9, 0.5)
    first, second = spectral_split(g), spectral_split(g)
    for a, b in ((first.a_plus, second.a_plus), (first.a_minus, second.a_minus)):
        assert a.flags.writeable and b.flags.writeable and not np.shares_memory(a, b)
        assert _bits(a) == _bits(b)
        a[0, 0] += 1.0
        assert _bits(a) != _bits(b)


def test_memo_inertia_equals_the_counted_inertia_and_refuses_a_narrow_band(monkeypatch):
    g = _fresh_graph(59)
    spec, vecs, energies, counts = spectral._decomposition(g)
    assert graph_inertia(g) is counts and counts == _counted_inertia(spec)
    wide = Spectrum(spec.values, residual_bound=1.0)
    monkeypatch.setitem(spectral._MEMO, g, (wide, vecs, energies, counts))
    with pytest.raises(ContractViolation, match="below solver residual"):
        graph_inertia(g)
