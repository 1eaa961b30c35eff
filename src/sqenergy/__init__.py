"""Square-energy toolkit: graph spectra, positive/negative square energies,
P3 removal witnesses, constructive partitions, exact combinatorial oracles,
bound certificates, named graph families, and a sweep harness with a CLI.

``import sqenergy`` loads no submodule. Each public name below, and each
submodule (``sqenergy.spectral`` and so on), is imported on first access, so
a command that enumerates graphs never loads numpy.
"""

from importlib import import_module

# Each submodule with the public names it defines.
_NAMES = {
    "bounds": (
        "BOUNDS", "BoundVerdict", "P3RemovalWitness", "bound_alon_boppana",
        "bound_dominating_vertex", "bound_domination", "bound_efgw", "bound_inertia",
        "bound_ratio", "bound_regular", "bound_surplus", "bound_triangle",
        "certify_s_plus_pipeline", "conjecture_checks", "energy_wall_check",
        "p3_removal_witness",
    ),
    "errors": (
        "BudgetExceeded", "ContractViolation", "Graph6Error", "NumericError",
        "SquareEnergyError",
    ),
    "families": (
        "GqSpectrumParams", "complete", "cycle", "cycle_with_triangles",
        "gq_collinearity_graph", "gq_predicted_spectrum", "join_complement", "path",
        "petersen", "star", "star_plus_edge", "unicyclic_glue",
    ),
    "graphs": (
        "Graph", "VertexSet", "canonical_form", "canonical_key", "complement",
        "disjoint_union", "dominating_vertices", "enumerate_graphs", "induced_subgraph",
        "is_clique", "is_connected", "is_regular", "is_star", "is_tree", "join",
        "parse_graph6", "write_graph6",
    ),
    "harness": (
        "FilterOutcome", "RecordWriter", "RunConfig", "RunSummary", "build_family",
        "filter_minimal_counterexample_candidates", "parse_family_spec",
        "resolve_source", "run",
    ),
    "oracles": (
        "CutReport", "DominationCertificate", "check_bipartite_removal_property",
        "check_p3_cut_vertex_property", "cut_vertices", "domination_number",
        "find_induced_p3", "max_cut",
    ),
    "partitions": (
        "Partition", "SuperadditivityReport", "certify_superadditivity",
        "degree_class_partition", "domination_partition", "star_clique_partition",
    ),
    "spectral": (
        "EnergyReport", "Inertia", "SpectralSplit", "Spectrum", "graph_inertia",
        "numeric_tolerance", "spectral_split", "spectrum", "square_energies",
    ),
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = {*_NAMES, "cli"}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here too
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
