"""Command-line interface.

Subcommands: spectrum, energy, bounds, enumerate, decompose, gq, verify,
hunt. ``verify --n N`` is the sweep ``bounds enumerate:N:connected --set
efgw``; ``hunt --n N`` screens the connected graphs on N vertices with the
exact minimal-counterexample filter. Graph sources are
``family:<name>[:k=v,...]``, ``enumerate:<n>[:connected]``, a graph6 file
path, or ``-`` for graph6 lines on stdin. Exit codes: 0 clean, 2 when a
sweep found violations, 1 when it wrote error records but found no
violation, and 1 on operational errors.

At module level this imports only what argument parsing needs; each
subcommand imports its own modules when it runs. ``enumerate`` loads
``sqenergy.graphs`` alone and never numpy, and a sweep loads
``multiprocessing`` and ``concurrent.futures`` only on its way to a worker
pool, so ``--jobs 1`` and a one-block source load neither (see
``harness._block_outputs``).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, TextIO

from .errors import SquareEnergyError

if TYPE_CHECKING:
    from .graphs import Graph
    from .harness import RunSummary

# Shared options; each subcommand declares only the ones it reads.
_OPTIONS = {
    "--jobs": {
        "type": int,
        "help": "worker processes (default: the CPUs this process may use)",
    },
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--out": {"default": "-", "help": "output path, '-' for stdout"},
}


def _add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


def _print_summary(summary: RunSummary) -> None:
    print(
        f"graphs: {summary.graphs_processed}  records: {summary.records_written}  "
        f"skipped: {summary.skipped}  errors: {summary.errors}  "
        f"violations: {len(summary.violations)}  "
        f"wall: {summary.wall_time:.2f}s",
        file=sys.stderr,
    )
    for name in sorted(summary.minima):
        entry = summary.minima[name]
        print(
            f"  min slack {name}: {entry['slack']:.6g} at {entry['graph6']}",
            file=sys.stderr,
        )


@contextlib.contextmanager
def open_out(path: str | None) -> Iterator[TextIO]:
    """The record stream for an output path: stdout for None or '-'."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii", newline="") as handle:
            yield handle


def _per_graph(
    args: argparse.Namespace, graphs: Iterable[Graph], fields: Callable[[Graph], dict]
) -> int:
    """Write one record per graph: its common fields plus ``fields(g)``. An
    error in ``fields`` stops the run, its message prefixed with the graph's
    index and graph6."""
    from .graphs import write_graph6
    from .harness import RecordWriter, graph_fields

    with open_out(args.out) as out:
        writer = RecordWriter(out, args.format)
        for index, g in enumerate(graphs):
            try:
                extra = fields(g)
            except SquareEnergyError as exc:
                raise type(exc)(f"graph {index} ({write_graph6(g)}): {exc}") from exc
            writer.write({**graph_fields(index, g), **extra})
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .harness import resolve_source
    from .spectral import spectrum

    def fields(g: Graph) -> dict[str, Any]:
        spec = spectrum(g)
        return {"eigenvalues": list(spec.values), "residual_bound": spec.residual_bound}

    return _per_graph(args, resolve_source(args.source), fields)


def cmd_energy(args: argparse.Namespace) -> int:
    from .harness import resolve_source
    from .spectral import square_energies

    def fields(g: Graph) -> dict[str, Any]:
        report = square_energies(g)
        return {"s_plus": report.s_plus, "s_minus": report.s_minus, "energy": report.energy}

    return _per_graph(args, resolve_source(args.source), fields)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep(args: argparse.Namespace, source: str, bounds: tuple[str, ...]) -> int:
    from .harness import RecordWriter, RunConfig, resolve_source, run

    jobs = _usable_cpus() if args.jobs is None else args.jobs
    config = RunConfig(source, bounds, jobs)
    config.source = resolve_source(config.source)  # after the config's checks, before open_out
    with open_out(args.out) as stream:
        summary = run(config, RecordWriter(stream, args.format))
    _print_summary(summary)
    if summary.violations:
        return 2
    return 1 if summary.errors else 0


def cmd_bounds(args: argparse.Namespace) -> int:
    return _sweep(args, args.source, tuple(args.set.split(",")))


def cmd_verify(args: argparse.Namespace) -> int:
    return _sweep(args, f"enumerate:{args.n}:connected", ("efgw",))


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .graphs import enumerate_graphs, write_graph6

    graphs = enumerate_graphs(args.n, connected_only=args.connected)
    with open_out(args.out) as out:
        for g in graphs:
            out.write(write_graph6(g) + "\n")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    from .harness import resolve_source
    from .oracles import domination_number
    from .partitions import (
        certify_superadditivity,
        degree_class_partition,
        domination_partition,
        star_clique_partition,
    )

    def fields(g: Graph) -> dict[str, Any]:
        if args.method == "star-clique":
            partition = star_clique_partition(g)
        elif args.method == "domination":
            partition = domination_partition(g, domination_number(g))
        else:
            partition = degree_class_partition(g)
        certificate = certify_superadditivity(g, partition)
        return {
            "method": args.method,
            "parts": partition.as_lists(),
            "labels": list(partition.labels),
            "s_plus": certificate.s_plus_total,
            "s_minus": certificate.s_minus_total,
            "slack_plus": certificate.slack_plus,
            "slack_minus": certificate.slack_minus,
            "holds": certificate.holds,
        }

    return _per_graph(args, resolve_source(args.source), fields)


def cmd_gq(args: argparse.Namespace) -> int:
    from .families import gq_collinearity_graph, gq_predicted_spectrum
    from .graphs import write_graph6
    from .harness import RecordWriter
    from .spectral import spectrum, square_energies

    params = gq_predicted_spectrum(args.q)
    g = gq_collinearity_graph(args.q)
    spec = spectrum(g)
    energies = square_energies(g)
    predicted = sorted(params.spectrum_multiset(), reverse=True)
    deviation = max(abs(a - b) for a, b in zip(spec.values, predicted))
    with open_out(args.out) as out:
        RecordWriter(out, args.format).write(
            {
                "q": args.q,
                "n": g.n,
                "m": g.m,
                "k": params.k,
                "predicted": {
                    "k": params.k, "r": params.r, "a": params.a,
                    "f": params.f, "g": params.g,
                    "n": params.n_pred, "m": params.m_pred,
                },
                "spectrum_deviation": deviation,
                "s_plus": energies.s_plus,
                "s_minus": energies.s_minus,
                "graph6": write_graph6(g),
            }
        )
    return 0


def cmd_hunt(args: argparse.Namespace) -> int:
    from .bounds import bound_efgw
    from .graphs import enumerate_graphs
    from .harness import filter_minimal_counterexample_candidates

    graphs = enumerate_graphs(args.n, connected_only=True)
    outcome = filter_minimal_counterexample_candidates(graphs)
    verdicts = []

    def fields(g: Graph) -> dict[str, Any]:
        verdicts.append(bound_efgw(g))
        return {"min_square_energy": verdicts[-1].lhs, "efgw_slack": verdicts[-1].slack}

    _per_graph(args, outcome.survivors, fields)
    print(
        f"survivors: {len(outcome.survivors)}  rejected: {outcome.rejection_counts}",
        file=sys.stderr,
    )
    return 0 if all(v.holds for v in verdicts) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqenergy",
        description="Square-energy toolkit: spectra, bounds, partitions, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="adjacency spectra of the source graphs")
    p.add_argument("source")
    _add_options(p, "--format", "--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("energy", help="square energies of the source graphs")
    p.add_argument("source")
    _add_options(p, "--format", "--out")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("bounds", help="evaluate bound certificates over a source")
    p.add_argument("source")
    p.add_argument(
        "--set", default="all",
        help="comma-separated bound names or 'all'; README's 'Bound names for --set' "
        "lists them, as does the error for an unknown name",
    )
    _add_options(p, "--jobs", "--format", "--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("enumerate", help="stream graph6 lines, one per class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    _add_options(p, "--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="vertex partitions plus their certificates")
    p.add_argument("source")
    p.add_argument(
        "--method", choices=("star-clique", "domination", "degree-class"), required=True
    )
    _add_options(p, "--format", "--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gq", help="generalized-quadrangle graph summary")
    p.add_argument("--q", type=int, required=True)
    _add_options(p, "--format", "--out")
    p.set_defaults(func=cmd_gq)

    p = sub.add_parser(
        "verify",
        help="check efgw on all connected graphs on n vertices",
        description="Check efgw, min(s+, s-) >= n - 1, on every connected graph on "
        "n vertices. 'bounds enumerate:<n>:connected --set <names>' sweeps any other bound.",
    )
    p.add_argument("--n", type=int, required=True)
    _add_options(p, "--jobs", "--format", "--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hunt", help="filter minimal-counterexample candidates")
    p.add_argument("--n", type=int, required=True)
    _add_options(p, "--format", "--out")
    p.set_defaults(func=cmd_hunt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SquareEnergyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
