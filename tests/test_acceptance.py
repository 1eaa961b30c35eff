"""End-to-end acceptance suite.

Each criterion is one test that prints a PASS/FAIL line (run pytest with -s
to see them) and pins the stated tolerance with hard assertions. The
connected corpus (all isomorphism classes, n <= 7) is built once per session.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import sympy

from _gen import (
    all_trees,
    gnp,
    is_bipartite,
    no_isolated_random_graphs,
    projected_gradient_min,
    random_connected_with_p3,
    random_graphs,
    random_psd,
    random_two_part_partition,
    rayleigh_value,
    row_col_square_sum,
)
from sqenergy.bounds import (
    bound_domination,
    bound_efgw,
    bound_inertia,
    bound_ratio,
    bound_regular,
    bound_surplus,
    bound_triangle,
    certify_s_plus_pipeline,
)
from sqenergy.families import (
    cycle,
    cycle_with_triangles,
    gq_collinearity_graph,
    gq_predicted_spectrum,
    path,
    unicyclic_glue,
)
from sqenergy.graphs import is_regular
from sqenergy.oracles import find_induced_p3
from sqenergy.partitions import certify_superadditivity
from sqenergy.sdp import p3_removal_witness
from sqenergy.spectral import numeric_tolerance, spectral_split, spectrum, square_energies


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _all_corpus(connected_corpus):
    for n in range(1, 8):
        yield from connected_corpus[n]


def test_criterion_01_identity_suite(connected_corpus):
    start = time.monotonic()
    checked = 0
    bipartite_checked = 0
    graphs = list(_all_corpus(connected_corpus)) + random_graphs(
        seed=90021, count=500, n_max=20
    )
    for g in graphs:
        report = square_energies(g)
        assert abs(report.s_plus + report.s_minus - 2 * g.m) <= 1e-8 * max(1, 2 * g.m)
        checked += 1
        if is_bipartite(g):
            assert abs(report.s_plus - g.m) <= 1e-8 * max(1, g.m)
            assert abs(report.s_minus - g.m) <= 1e-8 * max(1, g.m)
            bipartite_checked += 1
    elapsed = time.monotonic() - start
    _report(
        "1 identity suite",
        True,
        f"{checked} graphs, {bipartite_checked} bipartite, {elapsed:.1f}s",
    )
    assert checked == 996 + 500


def test_criterion_02_conjecture_sweep(connected_corpus):
    start = time.monotonic()
    checked = 0
    for g in _all_corpus(connected_corpus):
        assert bound_efgw(g).slack >= -1e-6
        assert bound_domination(g).slack >= -1e-6
        if g.n >= 2:
            assert bound_inertia(g).slack >= -1e-6
        checked += 1
    elapsed = time.monotonic() - start
    _report("2 conjecture sweep", True, f"{checked} connected graphs, {elapsed:.1f}s")
    assert checked == 996


def test_criterion_03_superadditivity():
    rng = np.random.default_rng(515151)
    worst = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        g = gnp(rng, n, float(rng.uniform(0.1, 0.9)))
        partition = random_two_part_partition(rng, n)
        report = certify_superadditivity(g, partition)
        worst = min(worst, report.slack_plus, report.slack_minus)
        assert report.slack_plus >= -1e-8
        assert report.slack_minus >= -1e-8
    _report("3 superadditivity", True, f"1000 pairs, min slack {worst:.3e}")


def test_criterion_04_removal_witnesses():
    graphs = random_connected_with_p3(seed=626262, count=500, n_lo=5, n_hi=12)
    min_drop = math.inf
    for g in graphs:
        witness = p3_removal_witness(g, find_induced_p3(g))
        assert witness.drop_minus >= 1.0 + 1e-9
        assert witness.drop_plus >= 1.0 + 1e-9
        min_drop = min(min_drop, witness.drop_minus, witness.drop_plus)
    _report("4 removal witnesses", True, f"500 graphs, min drop {min_drop:.4f}")


def test_criterion_05_p3_psd_core():
    def margin(x):
        d = 1 - x
        return 16 * x**4 - 6 * (1 - 4 * d**2) * (1 - 2 * d**2)

    # Exact proof that margin(x) > 1/2 on [1/2, 1]: the quartic
    # 2 (margin - 1/2) is positive at both ends and has no root between.
    x, half = sympy.Symbol("x"), sympy.Rational(1, 2)
    quartic = sympy.Poly(2 * (margin(x) - half), x)
    ends = (quartic.eval(half), quartic.eval(1))
    roots = quartic.count_roots(half, 1)
    # The margin comes within 1/10 of its bound 1/2 inside [1/2, 1].
    near_min = margin(Fraction(16, 25))
    a = path(3).adjacency_matrix()
    rng = np.random.default_rng(737373)
    violations = 0
    for _ in range(10000):
        m = random_psd(rng, 3)
        for mat in (a - m, a + m):
            violations += not max(row_col_square_sum(mat, i) for i in range(3)) > 1.0
    ok = ends == (1, 19) and roots == 0 and near_min <= Fraction(3, 5) and not violations
    _report(
        "5 3x3 PSD core",
        ok,
        f"{roots} roots of {tuple(quartic.all_coeffs())} in [1/2, 1], margin "
        f"{float(near_min):.6f} at x=0.64, 10000 trials, {violations} violations",
    )
    assert ends == (1, 19) and roots == 0
    assert near_min <= Fraction(3, 5)
    assert not violations


def test_criterion_06_gq_spectra():
    start = time.monotonic()
    for q, s_pm in ((2, (120.0, 150.0)), (3, None)):
        params = gq_predicted_spectrum(q)
        g = gq_collinearity_graph(q)
        values = np.array(spectrum(g).values)
        predicted = np.array(sorted(params.spectrum_multiset(), reverse=True), dtype=float)
        assert values.shape == predicted.shape
        assert np.max(np.abs(values - predicted)) <= 1e-8
        if s_pm is not None:
            report = square_energies(g)
            assert abs(report.s_plus - s_pm[0]) <= 1e-6
            assert abs(report.s_minus - s_pm[1]) <= 1e-6
    elapsed = time.monotonic() - start
    _report("6 GQ spectra", True, f"q=2 and q=3 within 1e-8, {elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_07_numeric_regressions(connected_corpus):
    s5 = square_energies(cycle_with_triangles(5)).s_minus
    assert abs(s5 - 15.76) <= 0.01
    s33 = square_energies(cycle_with_triangles(33)).s_minus
    assert abs(s33 - 104.0) <= 1.0

    unicyclic = 0
    for n in range(3, 8):
        for g in connected_corpus[n]:
            if g.m != g.n:
                continue
            unicyclic += 1
            report = square_energies(g)
            assert min(report.s_plus, report.s_minus) >= g.n - 2 - 1e-6

    glued = 0
    trees = all_trees(8)
    for size in range(1, 9):
        for tree in trees[size]:
            for attach in range(tree.n):
                for k in (5, 7):
                    g = unicyclic_glue(tree, cycle(k), attach)
                    report = square_energies(g)
                    assert min(report.s_plus, report.s_minus) > g.n - 1 + 1e-9
                    glued += 1
    _report(
        "7 numeric regressions",
        True,
        f"s-(C5^3)={s5:.4f}, s-(C33^3)={s33:.2f}, "
        f"{unicyclic} unicyclic, {glued} glued instances",
    )


def test_criterion_08_sdp_characterizations(connected_corpus):
    rng = np.random.default_rng(848484)
    for g in _all_corpus(connected_corpus):
        a = g.adjacency_matrix()
        report = square_energies(g)
        split = spectral_split(g)
        assert abs(float(np.square(a + split.a_minus).sum()) - report.s_plus) <= 1e-8
        assert abs(float(np.square(a - split.a_plus).sum()) - report.s_minus) <= 1e-8
        for _ in range(20):
            m = random_psd(rng, g.n)
            assert float(np.square(a + m).sum()) >= report.s_plus - 1e-8
            assert float(np.square(a - m).sum()) >= report.s_minus - 1e-8
            assert rayleigh_value(a, m, "plus") <= report.s_plus + 1e-8
            assert rayleigh_value(a, m, "minus") <= report.s_minus + 1e-8
        tol = 1e-4 * max(1.0, 2.0 * g.m)
        assert abs(projected_gradient_min(g, "plus") - report.s_plus) <= tol
        assert abs(projected_gradient_min(g, "minus") - report.s_minus) <= tol
    _report("8 SDP characterizations", True, "996 graphs x 20 witnesses")


def test_criterion_09_surplus_and_triangle_bounds(connected_corpus):
    counts = Counter()
    for g in _all_corpus(connected_corpus):
        assert bound_surplus(g).slack >= -1e-6
        counts["surplus"] += 1
        if g.m >= 1:
            assert bound_triangle(g).slack >= -1e-6
            counts["triangle"] += 1
        if square_energies(g).s_plus > numeric_tolerance(g.n):
            assert bound_ratio(g).slack >= -1e-6
            counts["ratio"] += 1
        if is_regular(g) and g.n >= 2:
            assert bound_regular(g).slack >= -1e-6
            counts["regular"] += 1
    _report("9 surplus/triangle bounds", True, dict(counts).__repr__())


def test_criterion_10_pipeline_soundness(connected_corpus):
    checked = 0
    for g in _all_corpus(connected_corpus):
        if g.m < 1:
            continue
        verdict = certify_s_plus_pipeline(g)
        assert verdict.witness["case"] in ("case-1", "case-2", "case-3")
        assert verdict.rhs <= verdict.lhs + 1e-6
        checked += 1
    for g in no_isolated_random_graphs(seed=959595, count=200, n_max=40):
        verdict = certify_s_plus_pipeline(g)
        assert verdict.witness["case"] in ("case-1", "case-2", "case-3")
        assert verdict.rhs <= verdict.lhs + 1e-6
        checked += 1
    _report("10 pipeline soundness", True, f"{checked} graphs")
