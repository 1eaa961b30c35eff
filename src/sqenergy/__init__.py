"""Square-energy toolkit: graph spectra, positive/negative square energies,
P3 removal witnesses, constructive partitions, exact combinatorial oracles,
bound certificates, named graph families, and a sweep harness with a CLI.
"""

from .bounds import (
    BOUNDS,
    BoundVerdict,
    bound_alon_boppana,
    bound_dominating_vertex,
    bound_domination,
    bound_efgw,
    bound_inertia,
    bound_ratio,
    bound_regular,
    bound_surplus,
    bound_triangle,
    certify_s_plus_pipeline,
    conjecture_checks,
    energy_wall_check,
)
from .errors import (
    BudgetExceeded,
    ContractViolation,
    Graph6Error,
    NumericError,
    SquareEnergyError,
)
from .families import (
    GqSpectrumParams,
    complete,
    cycle,
    cycle_with_triangles,
    gq_collinearity_graph,
    gq_predicted_spectrum,
    join_complement,
    path,
    petersen,
    star,
    star_plus_edge,
    unicyclic_glue,
)
from .graphs import (
    Graph,
    VertexSet,
    canonical_form,
    canonical_key,
    complement,
    disjoint_union,
    dominating_vertices,
    enumerate_graphs,
    induced_subgraph,
    is_clique,
    is_connected,
    is_regular,
    is_star,
    is_tree,
    join,
    parse_graph6,
    write_graph6,
)
from .harness import (
    FilterOutcome,
    RecordWriter,
    RunConfig,
    RunSummary,
    build_family,
    filter_minimal_counterexample_candidates,
    parse_family_spec,
    resolve_source,
    run,
)
from .oracles import (
    CutReport,
    DominationCertificate,
    check_bipartite_removal_property,
    check_p3_cut_vertex_property,
    cut_vertices,
    domination_number,
    find_induced_p3,
    max_cut,
)
from .partitions import (
    Partition,
    SuperadditivityReport,
    certify_superadditivity,
    degree_class_partition,
    domination_partition,
    star_clique_partition,
)
from .sdp import (
    P3RemovalWitness,
    p3_removal_witness,
)
from .spectral import (
    EnergyReport,
    Inertia,
    SpectralSplit,
    Spectrum,
    graph_inertia,
    numeric_tolerance,
    spectral_split,
    spectrum,
    square_energies,
)

__version__ = "0.1.0"
