"""Dense symmetric eigendecomposition and the spectrum-derived graph
quantities: positive/negative square energies, the PSD split of the adjacency
matrix, and inertia.

Conventions. Eigenvalues are sorted descending. ``numeric_tolerance(n)``,
``1e-8 * max(1, n)``, is the one absolute tolerance: downstream certificates
allow it as slack, and it is the half-width of the zero band. Eigenvalues
within the band count as zero: they enter the inertia's zero count and
neither square energy nor either half of the PSD split.
``square_energies`` alone accepts another band.

The split's halves are proved PSD, not measured: each is
sym(fl(V W V^T)) for float eigenvectors V and weights W > 0, and the exact
V W V^T is PSD for any V, so ``_psd_defect`` bounds its distance from PSD a
priori by Higham's gamma_k accounting (N. J. Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, section 3.1). The
assumption is IEEE float64 with round-to-nearest and a BLAS matmul in the
standard model of floating-point arithmetic. No eigensolve checks a half.

The graph-level functions ``spectrum``, ``square_energies``,
``spectral_split`` and ``graph_inertia`` share one checked decomposition per
live ``Graph``, a ``graphs.per_graph`` memo entry that also holds the
default-band ``square_energies`` report and the inertia, counted once with
it: the first call computes it, later calls on the same graph reuse it, and
it is freed with the graph, so a sweep and a library call on the same graph
decompose it once.

One routine, ``eigen_decompose_stack``, makes every checked decomposition of
an adjacency matrix and alone sizes solver calls: one call per sub-stack of
same-size matrices within ``STACK_MAX_ENTRIES`` entries, then the residual,
trace and square-sum checks, the default-band energies and the inertia in
array operations. A single matrix is a stack of one, and a stacked one gets
bitwise the values, vectors, residual and energies it would get alone.
One routine, ``split_stack``, makes and certifies every split in the same
way: the stack's matrices of one inertia share one matmul per half and one
certificate and reconstruction check in array operations, and a stacked
split is bitwise the lone one. ``spectral_split`` has one path, its graph's
own stack of one, and each call returns new arrays for the caller to keep.
A sweep seeds the memo with ``decompose_graphs``, one stack per vertex count
(a lone graph is a stack of one if its caller asks), and
``bounds.seed_block`` seeds what the selected bounds read from the stacks, so
no other module reads the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, ContractViolation, NumericError, SquareEnergyError
from .graphs import Graph, per_graph

SYMMETRY_TOL = 1e-12
RESIDUAL_SCALE = 1e-10
# Matrix entries, summed over a sub-stack, that one solver call takes: small
# matrices share a call, and one with more than 64 rows is solved alone.
STACK_MAX_ENTRIES = 64 * 64
# IEEE float64 unit roundoff and smallest subnormal, for the split's a priori
# PSD certificate.
UNIT_ROUNDOFF = 2.0**-53
SMALLEST_SUBNORMAL = 2.0**-1074


def numeric_tolerance(n: int) -> float:
    """Global absolute tolerance for spectral quantities on n vertices."""
    return 1e-8 * max(1, n)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending plus the solver residual bound
    max_i ||A v_i - lambda_i v_i||_2."""

    values: tuple[float, ...]
    residual_bound: float

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    """PSD pair with a_plus - a_minus equal to the adjacency matrix and
    <a_plus, a_minus> = 0. Each half's least eigenvalue is proved
    >= -numeric_tolerance(n) by an a priori rounding bound (IEEE float64,
    round-to-nearest, BLAS matmul in the standard model)."""

    a_plus: np.ndarray
    a_minus: np.ndarray


@dataclass(frozen=True)
class EnergyReport:
    s_plus: float
    s_minus: float
    energy: float
    m: int


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_zero: int
    n_minus: int


def eigen_decompose_stack(
    mats: np.ndarray, ms: Sequence[int]
) -> list[tuple | SquareEnergyError]:
    """Checked eigendecompositions of a stack of adjacency matrices, shape
    (k, n, n), matrix i having ms[i] edges. The one place that sizes solver
    calls: consecutive sub-stacks of ``max(1, STACK_MAX_ENTRIES // n^2)``
    matrices share a call, and a sub-stack that fails before its residual
    check is solved one matrix a call, so each failing matrix is named.

    Item i is matrix i's spectrum (descending), its orthonormal eigenvectors
    as read-only columns, its default-band ``EnergyReport`` and its
    ``Inertia``, both from the same counts of eigenvalues above and below the
    zero band, or the error that refuses it: ContractViolation for
    non-symmetric or non-finite input, and NumericError if the solver fails,
    the residual is not within ``1e-10 * max(1, ||mat||_F)``, or the trace is
    not zero or the square sum not 2 ms[i] within ``numeric_tolerance(n)``.
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ContractViolation(f"expected a stack of square matrices, got shape {mats.shape}")
    k, n = mats.shape[:2]
    size = max(1, STACK_MAX_ENTRIES // max(1, n * n))
    todo = [(start, min(start + size, k)) for start in reversed(range(0, k, size))]
    outs: list[tuple | SquareEnergyError] = []
    while todo:
        start, stop = todo.pop()
        try:
            outs += _decompose_checked(mats[start:stop], ms[start:stop])
        except SquareEnergyError as exc:
            if stop - start == 1:
                outs.append(exc)
            else:
                todo += [(i, i + 1) for i in reversed(range(start, stop))]
    return outs


def _decompose_checked(mats: np.ndarray, ms: Sequence[int]) -> list[tuple | SquareEnergyError]:
    """One sub-stack by one solver call; raises if it fails before its residual check."""
    n = mats.shape[1]
    if not np.isfinite(mats).all():
        raise ContractViolation("matrix has non-finite entries")
    if np.max(np.abs(mats - mats.transpose(0, 2, 1)), initial=0.0) > SYMMETRY_TOL:
        raise ContractViolation(f"matrix is not symmetric within {SYMMETRY_TOL:g}")
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for {n}x{n} matrix") from exc
    # A contiguous copy of the values, so that each row sum below is bitwise
    # the sum of that row alone.
    vals = np.ascontiguousarray(vals[:, ::-1])
    vecs = vecs[:, :, ::-1]
    residuals = np.max(
        np.linalg.norm(mats @ vecs - vecs * vals[:, None, :], axis=1), axis=1, initial=0.0
    )
    bounds = RESIDUAL_SCALE * np.maximum(1.0, np.sqrt(np.einsum("kij,kij->k", mats, mats)))
    failed: list[str | None] = [
        None if r <= b else f"residual {r:.3e} exceeds contract {b:.3e} for {n}x{n} matrix"
        for r, b in zip(residuals.tolist(), bounds.tolist())
    ]
    tau = numeric_tolerance(n)
    two_m = 2.0 * np.asarray(ms, dtype=np.float64)
    squares = np.square(vals)
    bad_trace = np.abs(vals.sum(axis=1)) > tau
    bad_square = np.abs(squares.sum(axis=1) - two_m) > tau * np.maximum(1.0, two_m)
    for i in np.flatnonzero(bad_trace | bad_square).tolist():
        if failed[i] is None:
            failed[i] = (
                "adjacency spectrum trace deviates from zero" if bad_trace[i]
                else "adjacency spectrum square-sum deviates from 2m"
            )
    vecs.setflags(write=False)
    n_plus = (vals > tau).sum(axis=1)
    n_minus = (vals < -tau).sum(axis=1)
    s_plus = _band_sums(squares, n_plus, head=True)
    s_minus = _band_sums(squares, n_minus, head=False)
    energies = np.abs(vals).sum(axis=1)
    outs: list[tuple | SquareEnergyError] = []
    for i, (values, residual, p, q) in enumerate(
        zip(vals.tolist(), residuals.tolist(), n_plus.tolist(), n_minus.tolist())
    ):
        if failed[i] is not None:
            outs.append(NumericError(failed[i]))
        else:
            report = EnergyReport(float(s_plus[i]), float(s_minus[i]), float(energies[i]), ms[i])
            counts = Inertia(p, n - p - q, q)
            outs.append((Spectrum(tuple(values), residual), vecs[i], report, counts))
    return outs


def _band_sums(squares: np.ndarray, counts: np.ndarray, head: bool) -> np.ndarray:
    """Each row's sum over its first (``head``) or last counts[i] entries.
    The rows of one count are summed together from a contiguous copy, so each
    sum is bitwise the 1-D sum of those entries alone; summing each whole row
    with the other entries zeroed is not, at 8 or more columns, where numpy
    sums pairwise."""
    n = squares.shape[1]
    out = np.empty(len(counts))
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        cols = slice(0, count) if head else slice(n - count, n)
        out[rows] = squares[rows, cols].sum(axis=1)
    return out


@per_graph
def _decomposition(g: Graph) -> tuple[Spectrum, np.ndarray, EnergyReport, Inertia]:
    """The decomposition of g's adjacency matrix, with the solver residual,
    the zero trace and the 2m square sum checked, and its default-band
    energies and inertia, once per live graph. Every caller shares the
    read-only vectors."""
    out = eigen_decompose_stack(g.adjacency_matrix()[None], [g.m])[0]
    if isinstance(out, SquareEnergyError):
        raise out
    return out


# The memo itself, which ``decompose_graphs`` seeds.
_MEMO = _decomposition.memo


def decompose_graphs(
    graphs: Iterable[Graph], lone: Callable[[Graph], bool]
) -> list[tuple[list[Graph], np.ndarray, list]]:
    """Seed the decomposition memo of the graphs not yet in it by one
    ``eigen_decompose_stack`` call per vertex count; a graph g alone at its
    size is a stack of one if ``lone(g)``. A graph left out, too large for a
    dense matrix, or failing a check, is left to its own first call. Returns
    each stack's graphs, matrices and entries."""
    by_n: dict[int, list[Graph]] = {}
    for g in graphs:
        if g not in _MEMO:
            by_n.setdefault(g.n, []).append(g)
    stacks = []
    for stack in by_n.values():
        if len(stack) < 2 and not lone(stack[0]):
            continue
        try:
            mats = np.stack([g.adjacency_matrix() for g in stack])
        except BudgetExceeded:
            continue
        entries = eigen_decompose_stack(mats, [g.m for g in stack])
        for g, out in zip(stack, entries):
            if not isinstance(out, SquareEnergyError):
                _MEMO[g] = out
        stacks.append((stack, mats, entries))
    return stacks


def spectrum(g: Graph) -> Spectrum:
    """Adjacency spectrum of a graph, sorted descending."""
    return _decomposition(g)[0]


def square_energies(g: Graph, zero_tolerance: float | None = None) -> EnergyReport:
    """Sum of squared positive / negative adjacency eigenvalues.

    Eigenvalues with |lambda| <= zero_tolerance (default: the zero band
    ``numeric_tolerance(n)``) count as zero and contribute to neither sum.
    A band that is negative or not finite is refused. The default-band report
    is computed once per live graph.
    """
    if zero_tolerance is not None and not 0.0 <= zero_tolerance < math.inf:
        raise ContractViolation(
            f"zero_tolerance must be finite and >= 0, got {zero_tolerance!r}"
        )
    spec, _, report, _ = _decomposition(g)
    if zero_tolerance is None:
        return report
    return _energies(np.array(spec.values), zero_tolerance, g.m)


def _energies(values: np.ndarray, zero_tolerance: float, m: int) -> EnergyReport:
    s_plus = float(np.square(values[values > zero_tolerance]).sum())
    s_minus = float(np.square(values[values < -zero_tolerance]).sum())
    return EnergyReport(s_plus, s_minus, float(np.abs(values).sum()), m)


def spectral_split(g: Graph) -> SpectralSplit:
    """PSD matrices built from the positive / negative spectral projectors,
    each certified PSD within ``numeric_tolerance(n)`` by ``_psd_defect``
    (no eigensolve), and checked to reconstruct the adjacency matrix, by
    g's own ``split_stack`` of one. The halves are the caller's: each call
    returns new arrays."""
    # The shared decomposition keeps no adjacency matrix; the last check
    # builds one, so it is not alive while the halves are built.
    [out] = split_stack([_decomposition(g)], lambda rows: g.adjacency_matrix()[None])
    if isinstance(out, SquareEnergyError):
        raise out
    return out


def split_stack(
    decompositions: Sequence[tuple], adjacency: Callable[[list[int]], np.ndarray]
) -> list[SpectralSplit | SquareEnergyError]:
    """The certified splits of same-size adjacency matrices from their
    checked decompositions (``eigen_decompose_stack`` items).
    ``adjacency(rows)`` stacks the matrices of those items; it is called
    once per group below, after the group's halves are built.

    The matrices are grouped by inertia (n+, n-): a group's positive halves
    come from each matrix's first n+ eigenvector columns and its negative
    halves from the last n-, so one stacked matmul builds each half of the
    group. Each matrix's columns are copied to the layout that ``vecs[:,
    mask]`` gives a matrix alone, so each half is bitwise what that matrix
    alone gets. Item i is matrix i's split, or the NumericError that refuses
    it: a half that ``_psd_defect`` does not certify PSD within
    ``numeric_tolerance(n)`` (a_plus checked first), or halves that do not
    reconstruct the matrix within it. That last check is what catches wrong
    eigenvectors: the certificate holds for any vectors.
    """
    n = decompositions[0][0].n if decompositions else 0
    tau = numeric_tolerance(n)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (_, _, _, counts) in enumerate(decompositions):
        groups.setdefault((counts.n_plus, counts.n_minus), []).append(i)
    outs: list = [None] * len(decompositions)
    for (p, q), rows in groups.items():
        vecs = [decompositions[i][1] for i in rows]
        values = np.array([decompositions[i][0].values for i in rows]).reshape(len(rows), n)
        a_plus, bad_plus = _certified_halves(vecs, values[:, :p], slice(0, p), tau)
        a_minus, bad_minus = _certified_halves(vecs, -values[:, n - q:], slice(n - q, n), tau)
        off = a_plus - a_minus
        off -= adjacency(rows)
        off = np.max(np.abs(off), axis=(1, 2), initial=0.0) > tau
        for j, i in enumerate(rows):
            if bad_plus[j]:
                outs[i] = NumericError("a_plus is not PSD within tolerance")
            elif bad_minus[j]:
                outs[i] = NumericError("a_minus is not PSD within tolerance")
            elif off[j]:
                outs[i] = NumericError("split does not reconstruct the adjacency matrix")
            else:
                outs[i] = SpectralSplit(a_plus[j], a_minus[j])
    return outs


def _certified_halves(
    vecs: Sequence[np.ndarray], weights: np.ndarray, cols: slice, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """sym(V W V^T) for each matrix's eigenvectors V, columns ``cols``, and
    weights W (one row each), with whether ``_psd_defect`` fails to certify
    it PSD within tau. Each matrix's columns are copied column-major, as
    boolean column indexing gives them, so each product is the BLAS call
    that matrix alone gets. The copies and unsymmetrized products are freed
    on return, before the next halves are built."""
    n = vecs[0].shape[0]
    columns = np.stack(
        [v[:, cols].T for v in vecs], out=np.empty((len(vecs), weights.shape[1], n))
    ).transpose(0, 2, 1)
    bad = _psd_defect(columns, weights) > tau
    half = np.matmul(
        np.multiply(columns, weights[:, None, :], out=np.empty_like(columns)),
        columns.transpose(0, 2, 1),
    )
    return (half + half.transpose(0, 2, 1)) / 2.0, bad


def _gamma(j: int) -> float:
    """Higham's gamma_j = j u / (1 - j u), u = 2^-53, for j u < 1: j
    roundings (1 + delta_i), |delta_i| <= u, compound to within gamma_j of 1,
    so a float sum of j rounded products, in any order, is within gamma_j
    times the sum of their absolute values."""
    ju = j * UNIT_ROUNDOFF
    return ju / (1.0 - ju)


def _psd_defect(cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """An a priori bound on how far below zero the least eigenvalue of the
    split half built from ``cols`` (n x k) and ``weights`` (k, all > 0) can
    lie: 0 for an empty half, which is exactly zero, and otherwise
    2 gamma_{k+2} sum_l w_l ||v_l||^2 + n (k+2) 2^-1074. A stack of column
    sets, shape (..., n, k), with weights (..., k) gets one bound each.

    The exact V W V^T is PSD for any float V. The matmul and the (X + X^T)/2
    step move each entry by at most gamma_{k+2} (|V| W |V|^T)_ij, so by Weyl
    the least eigenvalue is >= -||E||_F >= -gamma_{k+2} sum_l w_l ||v_l||^2.
    The factor 2 covers rounding in evaluating that sum and the last term
    gradual underflow."""
    n, k = cols.shape[-2:]
    if k == 0:
        return np.zeros(cols.shape[:-2])
    mass = (weights * np.square(cols).sum(axis=-2)).sum(axis=-1)
    return 2.0 * _gamma(k + 2) * mass + n * (k + 2) * SMALLEST_SUBNORMAL


def graph_inertia(g: Graph) -> Inertia:
    """The inertia in g's decomposition entry, counted with its energies.
    The zero band ``numeric_tolerance(n)`` is refused if narrower than the
    solver residual: the zero count would then mean nothing."""
    spec, _, _, counts = _decomposition(g)
    tau = numeric_tolerance(spec.n)
    if tau < spec.residual_bound:
        raise ContractViolation(
            f"zero band {tau:.3e} below solver residual {spec.residual_bound:.3e}"
        )
    return counts
