"""What each entry point loads, and the package's public names.

``import sqenergy`` resolves its names on first access, and each CLI
subcommand imports only the modules it runs. The loading rules are checked
in a fresh interpreter, as this test process has loaded everything already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqenergy

SRC = str(Path(sqenergy.__file__).parents[1])

# The public names of ``sqenergy``, by the submodule that defines each.
PUBLIC = {
    "bounds": (
        "BOUNDS", "BoundVerdict", "bound_alon_boppana", "bound_dominating_vertex",
        "bound_domination", "bound_efgw", "bound_inertia", "bound_ratio", "bound_regular",
        "bound_surplus", "bound_triangle", "certify_s_plus_pipeline", "conjecture_checks",
        "energy_wall_check",
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
        "filter_minimal_counterexample_candidates", "parse_family_spec", "resolve_source",
        "run",
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
    "sdp": ("P3RemovalWitness", "p3_removal_witness"),
    "spectral": (
        "EnergyReport", "Inertia", "SpectralSplit", "Spectrum", "graph_inertia",
        "numeric_tolerance", "spectral_split", "spectrum", "square_energies",
    ),
}
SUBMODULES = (*PUBLIC, "cli")
POOL_MODULES = {"multiprocessing", "concurrent.futures"}


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``code``,
    among numpy, the pool modules and sqenergy's own."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m in {'numpy', 'multiprocessing', "
        "'concurrent.futures'} or m.split('.')[0] == 'sqenergy']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code + report], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_package_and_the_cli_loads_only_the_cli_and_its_errors():
    loaded = _loaded_after("import sqenergy, sqenergy.cli")
    assert loaded == {"sqenergy", "sqenergy.cli", "sqenergy.errors"}


def test_enumerate_runs_without_numpy():
    loaded = _loaded_after(
        "import os\n"
        "from sqenergy.cli import main\n"
        "assert main(['enumerate', '--n', '5', '--out', os.devnull]) == 0\n"
    )
    assert loaded == {"sqenergy", "sqenergy.cli", "sqenergy.errors", "sqenergy.graphs"}


@pytest.mark.parametrize(
    "source, jobs",
    # One job never starts a pool, nor do one block (21 graphs) or two (112
    # graphs) however many jobs: a pool takes at least three.
    [("enumerate:5:connected", "1"), ("enumerate:6:connected", "1"),
     ("enumerate:5:connected", "2"), ("enumerate:6:connected", "2")],
)
def test_a_sweep_that_starts_no_pool_loads_no_pool_module(source, jobs):
    loaded = _loaded_after(
        "import os\n"
        "from sqenergy.cli import main\n"
        f"argv = ['bounds', {source!r}, '--set', 'efgw', '--jobs', {jobs!r}, "
        "'--out', os.devnull]\n"
        "assert main(argv) == 0\n"
    )
    assert "numpy" in loaded and "sqenergy.harness" in loaded
    assert not loaded & POOL_MODULES


def test_a_per_graph_subcommand_loads_no_bound_module():
    loaded = _loaded_after(
        "import os\n"
        "from sqenergy.cli import main\n"
        "assert main(['spectrum', 'family:petersen', '--out', os.devnull]) == 0\n"
    )
    assert "sqenergy.harness" in loaded
    bound_modules = {"sqenergy.bounds", "sqenergy.sdp", "sqenergy.partitions", "sqenergy.oracles"}
    assert not loaded & bound_modules


def test_each_public_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"sqenergy.{module}")
        for name in names:
            assert getattr(sqenergy, name) is getattr(owner, name), name


def test_the_star_import_and_dir_give_the_public_names():
    public = {name for names in PUBLIC.values() for name in names}
    namespace: dict = {}
    exec("from sqenergy import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
    assert set(sqenergy.__all__) == public
    assert public <= set(dir(sqenergy))
    assert set(SUBMODULES) <= set(dir(sqenergy))


def test_a_bare_import_resolves_every_submodule():
    checks = "".join(
        f"assert sqenergy.{m} is importlib.import_module('sqenergy.{m}')\n" for m in SUBMODULES
    )
    loaded = _loaded_after("import importlib, sqenergy\n" + checks)
    assert {f"sqenergy.{m}" for m in SUBMODULES} <= loaded


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'sqenergy' has no attribute 'no_such_name'$"):
        sqenergy.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sqenergy import no_such_name", {})
