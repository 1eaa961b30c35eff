"""Benchmark of sqenergy: three workloads, each checked against computations
made apart from the program.

One run of one workload (the last stdout line is the result JSON):

    python3 bench/run.py --workload bounds-all-n7 --seed 1 --seconds 10 --trace 0

Every workload once, or each several times with medians and quartiles
(``--label`` writes bench/results/BENCH_<label>.json with machine info):

    python3 bench/run.py --workload all --repeat 10 --seed 1 --label baseline

The checkers' own test, which feeds them corrupted outputs:

    python3 bench/run.py --selftest

A run generates its inputs from the seed once, then sets up
``SETUP_REPEATS`` times: it writes the inputs, starts the worker process
(worker.py), which imports the program from ``src``, reads the inputs and
warms up BLAS, and waits until the worker is ready. ``setup_s`` is the median
of those set-ups. Generation is left out of it: it is the benchmark's own
code, which no change to the program can move. The last worker then runs the
timed rounds; the others exit. The outputs are checked after the worker has
ended, so the checker's memory and time are not counted.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
WORKER_READY_TIMEOUT_S = 60
# Time a timed (or traced) section may run past --seconds: it ends after the
# round in progress, and a round of today's program takes up to ~15 s.
ROUND_ALLOWANCE_S = 120
# Time the parent may take outside the worker: generation and checks.
CHECK_ALLOWANCE_S = 300

END_TO_END_UNITS = {"setup_s": "s", "graphs_per_s": "graphs/s", "peak_rss_mb": "MiB"}

SPECTRA_N = 800
SPECTRA_DENSITIES = (0.05, 0.1, 0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    warm_n: int  # size of the BLAS warm-up eigensolve
    # What one worker round does: a `sqenergy` command line ("{work}" stands
    # for the work directory), or None for the library calls on dense graphs.
    cli: tuple[str, ...] | None
    generate: Callable[[int], object]  # seed -> the inputs, which the check also needs
    write: Callable[[object, Path], None]  # writes the inputs into the work directory
    check: Callable[[object, Path, dict], tuple[int, int, list[str], dict[int, str]]]


def worker_timeout(seconds: float, trace: int) -> float:
    """How long the worker may take from "go" to its report."""
    return (1 + trace) * (seconds + ROUND_ALLOWANCE_S)


def run_timeout(seconds: float, trace: int) -> float:
    """How long one whole run of run.py may take."""
    return SETUP_REPEATS * WORKER_READY_TIMEOUT_S + worker_timeout(seconds, trace) + CHECK_ALLOWANCE_S


# ---------------------------------------------------------------------------
# Inputs and checks per workload (reference.py holds the computations)
# ---------------------------------------------------------------------------


def gen_enumerate(seed: int):
    return None  # the input is n = 7 itself; the seed has nothing to vary


def write_nothing(_, work: Path) -> None:
    pass


def gen_bounds_all(seed: int):
    lines = reference.connected_atlas_lines(7)
    return [lines[i] for i in np.random.default_rng(seed).permutation(len(lines))]


def write_graph6(lines, work: Path) -> None:
    reference.write_lines(work / "input.g6", lines)


def gen_spectra(seed: int):
    return reference.dense_adjacency(seed, SPECTRA_N, SPECTRA_DENSITIES)


def write_edges(mats, work: Path) -> None:
    edges = {f"edges{k}": np.argwhere(np.triu(a)).astype(np.int32) for k, a in enumerate(mats)}
    np.savez(work / "edges.npz", n=SPECTRA_N, count=len(mats), **edges)


def _cli_tally(report: dict, first_digest: str, verdict) -> tuple[int, int]:
    """Operations attempted and failed over every round of a CLI workload. A
    round whose output differs from the checked first round fails whole."""
    attempted = failed = 0
    for r in report["rounds"] + report.get("traced_rounds", []):
        ops = max(r["graphs"], 1)
        attempted += ops
        if r["rc"] != 0 or r["sha256"] != first_digest:
            failed += ops
        else:
            failed += len(verdict.failed)
    return attempted, failed


def _check_cli(work: Path, report: dict, verdict_of) -> tuple:
    """Check the first round's output with ``verdict_of(text)`` and tally
    every round against it."""
    first = work / "first.out"
    if not first.exists():
        return _cli_tally(report, "", reference.Verdict()) + (["first round wrote no output"], {})
    data = first.read_bytes()
    verdict = verdict_of(data.decode("ascii", errors="replace"))
    return _cli_tally(report, hashlib.sha256(data).hexdigest(), verdict) + (verdict.problems, verdict.failed)


def check_enumerate(_, work: Path, report: dict):
    return _check_cli(work, report, lambda text: reference.check_enumeration(text.splitlines(), 7))


def check_bounds_all(lines, work: Path, report: dict):
    return _check_cli(work, report, lambda text: reference.check_bound_records(lines, text))


def check_spectra(mats, work: Path, report: dict):
    rounds = report["rounds"] + report.get("traced_rounds", [])
    with np.load(work / "first_split.npz") as data:
        splits = {k: data[k] for k in data.files}
    verdict = reference.check_spectra(mats, [r["digests"] for r in rounds], splits)
    attempted = sum(r["graphs"] for r in rounds)
    return attempted, len(verdict.failed), verdict.problems, verdict.failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enumerate-n7", 8, ("enumerate", "--n", "7"), gen_enumerate, write_nothing, check_enumerate),
        Workload("bounds-all-n7", 8, ("bounds", "{work}/input.g6", "--set", "all"),
                 gen_bounds_all, write_graph6, check_bounds_all),
        Workload("spectra-n800", SPECTRA_N, None, gen_spectra, write_edges, check_spectra),
    )
}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def start_worker(w: Workload, work: Path, seconds: float, trace: int, log) -> subprocess.Popen:
    cli = None if w.cli is None else [arg.format(work=work) for arg in w.cli]
    cfg = {"cli": cli, "work": str(work), "seconds": seconds, "trace": trace, "warm_n": w.warm_n}
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
    )


def wait_ready(proc: subprocess.Popen) -> None:
    ready, _, _ = select.select([proc.stdout], [], [], WORKER_READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not become ready (got {line!r})")


def run_once(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    work = HERE / ".work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log_path = work / "worker.log"
    proc = None
    try:
        with open(log_path, "w") as log:
            ctx = w.generate(seed)
            setups = []
            for attempt in range(SETUP_REPEATS):
                start = time.perf_counter()
                w.write(ctx, work)
                proc = start_worker(w, work, seconds, trace, log)
                wait_ready(proc)
                setups.append(time.perf_counter() - start)
                if attempt < SETUP_REPEATS - 1:
                    proc.communicate("exit\n", timeout=WORKER_READY_TIMEOUT_S)
            out, _ = proc.communicate("go\n", timeout=worker_timeout(seconds, trace))
            if proc.returncode != 0 or not out.strip():
                raise RuntimeError(f"worker exited with {proc.returncode}")
            report = json.loads(out.strip().splitlines()[-1])
        attempted, failed, problems, rejected = w.check(ctx, work, report)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"{w.name}: {exc}\n")
        if log_path.exists():
            sys.stderr.write(log_path.read_text()[-4000:])
        raise SystemExit(1)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    for index, why in sorted(rejected.items())[:10]:
        sys.stderr.write(f"{w.name}: rejected operation {index}: {why}\n")
    for problem in problems:
        sys.stderr.write(f"{w.name}: {problem}\n")
    values = {
        "setup_s": statistics.median(setups),
        "graphs_per_s": sum(r["graphs"] for r in report["rounds"]) / sum(report["round_s"]),
        "peak_rss_mb": report["peak_rss_mib"],
    }
    units = END_TO_END_UNITS
    if trace:
        import tracer

        values, units = report["per_layer"], tracer.metric_units()
    round_list = " ".join(f"{t:.2f}" for t in report["round_s"])
    print(f"{w.name} seed {seed}: {len(report['round_s'])} rounds ({round_list} s)")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  attempted {attempted}  failed {failed}  correct {not problems}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


# ---------------------------------------------------------------------------
# Repeats and machine info
# ---------------------------------------------------------------------------


def blas_info() -> dict:
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    np.linalg.eigh(np.eye(2))
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_library"] = Path(lib).name
                info["blas_threads"] = fn()
                return info
    return info


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu = next((l.split(":", 1)[1].strip() for l in cpuinfo if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **blas_info(),
    }


def repeat(names: list[str], repeats: int, seed: int, seconds: float, trace: int, label: str | None) -> int:
    summary = {}
    for name in names:
        runs = []
        for i in range(repeats):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed + i),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=run_timeout(seconds, trace))
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} seed {seed + i}: exit {done.returncode}")
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            metrics[metric] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0, "values": values,
            }
        summary[name] = {
            "seeds": [seed + i for i in range(repeats)],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        print(f"{name}: correct {summary[name]['correct']}, failed {sum(summary[name]['failed'])}"
              f" of {sum(summary[name]['attempted'])}")
        for metric, m in metrics.items():
            print(f"  {metric:<44} median {m['median']:>12.6g} q1 {m['q1']:>12.6g} q3 {m['q3']:>12.6g}"
                  f" spread {100 * m['spread']:6.2f}% {m['unit']}")
    if label:
        out = HERE / "results" / f"BENCH_{label}.json"
        out.parent.mkdir(exist_ok=True)
        doc = {"label": label, "seconds": seconds, "trace": trace, "machine": machine_info(), "workloads": summary}
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all",
                        help="'all' runs the workloads BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+repeat-1")
    parser.add_argument("--label", help="write bench/results/BENCH_<label>.json")
    parser.add_argument("--selftest", action="store_true", help="check that the checkers reject bad outputs")
    args = parser.parse_args()

    if not (ROOT / "src" / "sqenergy" / "__init__.py").is_file():
        sys.stderr.write(f"no program source at {ROOT / 'src' / 'sqenergy'}; run from a checkout of the repository\n")
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload == "all" or args.repeat > 1 or args.label:
        names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
        return repeat(names, args.repeat, args.seed, args.seconds, args.trace, args.label)
    result = run_once(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
