"""Per-graph evaluation context: the spectral quantities and exact oracle
results that the bounds read, each computed at most once per graph.

A sweep builds one ``GraphContext`` per graph and hands it to every selected
bound. A property is computed on first access and kept; one whose computation
raises is not kept, so the next access raises the same error again.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import oracles, spectral
from .errors import NumericError
from .graphs import Graph


class GraphContext:
    """One graph, the exact-search budget of its oracles and the seed of its
    randomized checks."""

    def __init__(self, g: Graph, budget_n: int = oracles.SEARCH_BUDGET_N, seed: int = 0):
        self.g = g
        self.budget_n = budget_n
        self.seed = seed

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix, read-only because every bound shares it."""
        mat = self.g.adjacency_matrix()
        mat.setflags(write=False)
        return mat

    @cached_property
    def decomposition(self) -> tuple[spectral.Spectrum, np.ndarray]:
        """Eigenvalues (descending) and eigenvectors, with the solver residual,
        the zero trace and the 2m square sum checked."""
        spec, vecs = spectral.eigen_decompose_symmetric(self.adjacency)
        m = self.g.m
        tau = spectral.numeric_tolerance(spec.n)
        values = np.array(spec.values)
        if values.size and abs(float(values.sum())) > tau:
            raise NumericError("adjacency spectrum trace deviates from zero")
        if abs(float(np.square(values).sum()) - 2.0 * m) > tau * max(1.0, 2.0 * m):
            raise NumericError("adjacency spectrum square-sum deviates from 2m")
        return spec, vecs

    @property
    def spectrum(self) -> spectral.Spectrum:
        return self.decomposition[0]

    @cached_property
    def energies(self) -> spectral.EnergyReport:
        return spectral.energy_report(self.spectrum, self.g.m)

    @cached_property
    def inertia(self) -> spectral.Inertia:
        return spectral.inertia(self.spectrum)

    @cached_property
    def split(self) -> spectral.SpectralSplit:
        return spectral.psd_split(*self.decomposition, lambda: self.adjacency)

    @cached_property
    def domination(self) -> oracles.DominationCertificate:
        return oracles.domination_number(self.g, self.budget_n)

    @cached_property
    def cut(self) -> oracles.CutReport:
        return oracles.max_cut(self.g, self.budget_n)

    @cached_property
    def first_p3(self) -> tuple[int, int, int] | None:
        return oracles.find_induced_p3(self.g)
