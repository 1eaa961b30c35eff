"""Semidefinite facts about the square energies that the bounds use.

The positive square energy is the minimum of ||A + M||_F^2 over PSD M
(attained at M = A-), and symmetrically s- minimizes ||A - M||_F^2 at
M = A+; the ``sdp-min`` bound checks that the spectral split attains both.
The dual view writes s+/s- as a Rayleigh-style maximum of
max(+-<A, M>, 0)^2 / <M, M> over nonzero PSD M. The quartic inequality
behind the 3x3 PSD row-sum bound is one fixed lemma, proved in exact
arithmetic by the test suite (a sympy root count in ``tests/test_sdp.py``).
This module finds the vertex of an induced 3-vertex path whose removal drops
each square energy most; whether those drops are large enough is the removal
bound's verdict in ``bounds``.
The removal witness builds no vertex-deleted graphs: the energies of G - u
come from the principal submatrix of the adjacency matrix without u, and a
``graphs.per_graph`` memo keeps them per graph and vertex. All of a stack's
submatrices go to one ``spectral.eigen_decompose_stack`` call, which sizes
the solver calls.
``decompose_deletions`` seeds that memo for a stack of graphs at once, as
``bounds.seed_block`` does for each sweep block that selects ``removal``; the
witness's own block of one, of the vertices still missing, is library-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation, SquareEnergyError
from .graphs import Graph, per_graph
from .oracles import induces_p3
from .spectral import EnergyReport, eigen_decompose_stack, square_energies


@dataclass(frozen=True)
class P3RemovalWitness:
    """Vertices of an induced 3-path whose removal drops s- (resp. s+) the
    most, with the achieved drops."""

    vertex_minus: int
    drop_minus: float
    vertex_plus: int
    drop_plus: float


@per_graph
def _deletion_energies(g: Graph) -> dict[int, EnergyReport]:
    """The checked default-band energies of g - u by vertex u, for the
    vertices asked for so far; ``decompose_deletions`` fills it."""
    return {}


def decompose_deletions(
    graphs: Sequence[Graph], mats: np.ndarray, vertices: Iterable[Iterable[int]]
) -> list[SquareEnergyError]:
    """Seed the energies of graphs[i] - u for each vertex u in vertices[i]
    not yet seeded, where mats[i] is the adjacency matrix of graphs[i]. No
    vertex-deleted graph is built: deleting u leaves the principal submatrix
    without u's row and column, with m - deg(u) edges, sliced from ``mats``
    all at once and decomposed by one ``eigen_decompose_stack`` call. A
    deletion that fails a check is not kept; its error is returned, in input
    order."""
    energies = [_deletion_energies(g) for g in graphs]
    wanted = [
        (i, u) for i, us in enumerate(vertices) for u in us if u not in energies[i]
    ]
    rows, us = np.array(wanted, dtype=np.intp).reshape(-1, 2).T
    # Row j of keep lists the vertices other than us[j], in order.
    cols = np.arange(mats.shape[1] - 1)
    keep = cols + (cols >= us[:, None])
    subs = mats[rows[:, None, None], keep[:, :, None], keep[:, None, :]]
    ms = [graphs[i].m - graphs[i].degree(u) for i, u in wanted]
    errors = []
    for (i, u), out in zip(wanted, eigen_decompose_stack(subs, ms)):
        if isinstance(out, SquareEnergyError):
            errors.append(out)
        else:
            energies[i][u] = out[2]
    return errors


def p3_removal_witness(g: Graph, triple: tuple[int, int, int]) -> P3RemovalWitness:
    """Search the three vertices of an induced 3-path for removal witnesses.

    For each sign independently, returns the vertex maximizing the square
    energy drop (ties to the least index) and that drop. Whether the drops
    exceed 1 is the caller's verdict; this function does not check it.
    """
    if not induces_p3(g, triple):
        raise ContractViolation(f"triple {triple} does not induce a 3-vertex path")
    whole = square_energies(g)
    rests = _deletion_energies(g)
    if any(u not in rests for u in triple):
        errors = decompose_deletions([g], g.adjacency_matrix()[None], [triple])
        if errors:
            raise errors[0]
    drops_plus = [(whole.s_plus - rests[u].s_plus, u) for u in triple]
    drops_minus = [(whole.s_minus - rests[u].s_minus, u) for u in triple]

    def best(drops: list[tuple[float, int]]) -> tuple[int, float]:
        drop, vertex = max(drops, key=lambda t: (t[0], -t[1]))
        return vertex, drop

    v_minus, d_minus = best(drops_minus)
    v_plus, d_plus = best(drops_plus)
    return P3RemovalWitness(v_minus, d_minus, v_plus, d_plus)
