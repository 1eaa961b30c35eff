"""The process that makes the program's calls, so that its peak memory counts
only the program, never the input generator or the checker.

Usage (started by run.py, one JSON argument):

    python3 bench/worker.py '{"cli": [...] | null, "work": ..., "seconds": ..., "trace": 0|1, "warm_n": ...}'

``cli`` is the `sqenergy` command line each round runs; null runs the
library calls on the dense graphs in the work directory instead.

Protocol on the original stdout: the worker imports the program from the
checkout's ``src``, loads the inputs from the work directory, warms up BLAS,
prints ``READY`` and waits for a line on stdin. ``exit`` ends it there (a
set-up-only start); ``go`` runs rounds until ``seconds`` of timed work have
passed, writes the first round's outputs to the work directory and prints one
JSON line with the round times, per-round results and peak memory. With
trace 1 the same number of rounds then runs again under the tracer, or fewer
if they pass ``seconds`` first. The
program's own stdout is sent to stderr, which run.py keeps in a log.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import sqenergy
    import sqenergy.cli

    if not Path(sqenergy.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sqenergy imported from {sqenergy.__file__}, not from {ROOT / 'src'}")
    return sqenergy


def run_cli(argv: list[str]) -> int:
    from sqenergy import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash fails the round's operations; keep the traceback
        traceback.print_exc()
        return 1


class CliRounds:
    """One `sqenergy` command per round, writing its output to a file.

    Every round starts with the program's caches empty, as a fresh command
    would. A command that reads the work directory's ``input.g6`` has one
    operation per input graph; one that reads no input (enumeration) has one
    per line it writes.
    """

    def __init__(self, work: Path, argv: list[str]):
        self.work = work
        self.out = work / "out"
        self.argv = argv + ["--out", str(self.out)]
        source = work / "input.g6"
        self.inputs = len(source.read_text().splitlines()) if source.exists() else None

    def round(self):
        clear_caches()
        return run_cli(self.argv)

    def after(self, rc: int, index: int) -> dict:
        written = self.out.read_bytes() if self.out.exists() else b""
        graphs = len(written.splitlines()) if self.inputs is None else self.inputs
        if index == 0 and self.out.exists():
            self.out.replace(self.work / "first.out")
        else:
            self.out.unlink(missing_ok=True)
        return {"rc": rc, "graphs": graphs, "sha256": hashlib.sha256(written).hexdigest()}


class SpectraRounds:
    """Library calls on dense graphs: construction, energies, split, inertia."""

    def __init__(self, work: Path):
        import numpy as np

        self.work = work
        with np.load(work / "edges.npz") as data:
            self.n = int(data["n"])
            self.edges = [[tuple(map(int, e)) for e in data[f"edges{k}"]] for k in range(int(data["count"]))]

    def round(self):
        # Looked up on each round, so a traced round calls the traced functions.
        from sqenergy import Graph, graph_inertia, spectral_split, square_energies

        results = []
        for edges in self.edges:
            try:
                g = Graph.from_edges(self.n, edges)
                results.append((square_energies(g), spectral_split(g), graph_inertia(g)))
            except Exception as exc:  # one graph's failure fails that operation only
                traceback.print_exc()
                results.append(exc)
        return results

    def after(self, results, index: int) -> dict:
        import numpy as np

        digests = []
        for r in results:
            if isinstance(r, Exception):
                digests.append({"error": f"{type(r).__name__}: {r}"})
                continue
            energy, _, inertia = r
            digests.append({
                "m": energy.m, "s_plus": energy.s_plus, "s_minus": energy.s_minus,
                "energy": energy.energy, "n_plus": inertia.n_plus,
                "n_zero": inertia.n_zero, "n_minus": inertia.n_minus,
            })
        if index == 0:
            splits = {}
            for k, r in enumerate(results):
                if not isinstance(r, Exception):
                    splits[f"plus{k}"], splits[f"minus{k}"] = r[1].a_plus, r[1].a_minus
            np.savez(self.work / "first_split.npz", **splits)
        return {"rc": 0, "graphs": len(results), "digests": digests}


def clear_caches() -> None:
    """Empty every lru_cache of the program, so enumeration starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "sqenergy" or name.startswith("sqenergy."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def peak_rss_mib() -> float:
    """Peak resident memory of this process's own address space (Linux VmHWM).

    Not ru_maxrss: a child that subprocess starts by vfork inherits, at exec,
    the parent's peak in its ru_maxrss, so that figure would count run.py's
    input generator whenever it outgrew the program.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def timed_rounds(rounds, seconds: float, count: int | None = None, first: int = 0) -> tuple[list[float], list[dict], float]:
    """Run rounds until ``seconds`` of timed work or, sooner, ``count``
    rounds; round ``first`` + i is the i-th. Only the round itself is timed;
    reading back its output is not. Also returns the peak memory at the end
    of the first round, which, unlike the peak after all rounds, does not grow
    with the number of rounds a faster machine or program fits in."""
    times: list[float] = []
    results: list[dict] = []
    first_peak = 0.0
    while sum(times) < seconds and (count is None or len(times) < count):
        start = time.perf_counter()
        raw = rounds.round()
        times.append(time.perf_counter() - start)
        first_peak = first_peak or peak_rss_mib()
        results.append(rounds.after(raw, first + len(results)))
        del raw  # so one round's outputs are alive at a time
    return times, results, first_peak


def main() -> int:
    cfg = json.loads(sys.argv[1])
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import_program()
    import numpy as np

    work = Path(cfg["work"])
    rounds = CliRounds(work, cfg["cli"]) if cfg["cli"] else SpectraRounds(work)
    warm = np.random.default_rng(0).random((cfg["warm_n"], cfg["warm_n"]))
    np.linalg.eigh(warm + warm.T)
    print("READY", file=proto, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    times, results, peak_mib = timed_rounds(rounds, cfg["seconds"])
    report = {"round_s": times, "rounds": results, "peak_rss_mib": peak_mib}
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced_times, traced, _ = timed_rounds(rounds, cfg["seconds"], len(times), first=len(times))
        graphs = traced[0]["graphs"]
        metrics = tracer.report(len(traced_times), graphs)
        metrics["trace.graphs_per_s"] = sum(r["graphs"] for r in traced) / sum(traced_times)
        mean_traced = sum(traced_times) / len(traced_times)
        metrics["trace.overhead_pct"] = 100.0 * (mean_traced / (sum(times) / len(times)) - 1.0)
        report["traced_rounds"] = traced
        report["per_layer"] = metrics
    print(json.dumps(report), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
