"""Per-graph evaluation context: the spectral quantities and exact oracle
results that the bounds read, each computed at most once per graph.

A sweep builds one ``GraphContext`` per graph and hands it to every selected
bound. A property is computed on first access and kept; one whose computation
raises is not kept, so the next access raises the same error again. The
spectral properties read the graph-level functions of ``spectral``, so they
share that module's one checked decomposition per live graph with every other
caller.
"""

from __future__ import annotations

from functools import cached_property

from . import oracles, spectral
from .graphs import Graph


class GraphContext:
    """One graph, the exact-search budget of its oracles and the seed of its
    randomized checks."""

    def __init__(self, g: Graph, budget_n: int = oracles.SEARCH_BUDGET_N, seed: int = 0):
        self.g = g
        self.budget_n = budget_n
        self.seed = seed

    @cached_property
    def spectrum(self) -> spectral.Spectrum:
        return spectral.spectrum(self.g)

    @cached_property
    def energies(self) -> spectral.EnergyReport:
        return spectral.square_energies(self.g)

    @cached_property
    def inertia(self) -> spectral.Inertia:
        return spectral.graph_inertia(self.g)

    @cached_property
    def split(self) -> spectral.SpectralSplit:
        return spectral.spectral_split(self.g)

    @cached_property
    def domination(self) -> oracles.DominationCertificate:
        return oracles.domination_number(self.g, self.budget_n)

    @cached_property
    def cut(self) -> oracles.CutReport:
        return oracles.max_cut(self.g, self.budget_n)

    @cached_property
    def first_p3(self) -> tuple[int, int, int] | None:
        return oracles.find_induced_p3(self.g)
