"""Benchmark of the integrable toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload markov --seed 1 --seconds 16 --trace 0

``--workload`` is one of markov, lattice, measure, verify, or ``all`` (each
workload in turn, in a fresh process). The program is imported from
``src/`` of the current directory and driven in-process through
``integrable.cli.main(argv)`` (``measure`` calls the library directly).
Every call's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run and the tracing overhead. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5  # fresh interpreters timed for setup_s, after one untimed


def _single_thread_blas() -> int:
    """Pin every BLAS pool to one thread (never more than nproc); must run
    before numpy is imported, and child processes inherit it. On a shared
    two-core machine a two-thread BLAS call varies by about 10% from run to
    run with the neighbours' load, a one-thread call by about 2%. Returns
    nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _blas_threads() -> int:
    """Threads the loaded OpenBLAS builds report (numpy's and scipy's),
    or the configured value when none can be queried."""
    import ctypes
    import glob

    import numpy
    import scipy

    counts = []
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            package.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    counts.append(int(fn()))
                    break
    return max(counts) if counts else int(os.environ["OPENBLAS_NUM_THREADS"])


def _import_program():
    """Import integrable from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "integrable", "cli.py")):
        raise SystemExit(f"perfbench: no program at {SRC}/integrable; "
                         "run from the repository root")
    sys.path.insert(0, SRC)
    import integrable
    import integrable.cli

    if os.path.dirname(os.path.abspath(integrable.__file__)) != os.path.join(SRC, "integrable"):
        raise SystemExit(f"perfbench: imported integrable from {integrable.__file__}")
    return integrable


SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import integrable.cli\n"
    "integrable.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def measure_setup(between) -> list:
    """Seconds a fresh interpreter spends importing integrable.cli and
    building its parser, one interpreter at a time. The first run is not
    timed: it may write the bytecode cache. ``between`` runs before each
    timed interpreter and after the last."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time what an installed CLI pays
    times = []
    for i in range(SETUP_RUNS + 1):
        if i:
            between()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    between()
    return times


def run_all(args, names) -> int:
    """Each workload in turn, each in a fresh process; prints their output
    and ends with one JSON object whose metric names are prefixed by the
    workload."""
    import json
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    nproc = _single_thread_blas()
    import workloads  # imports numpy

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)

    integrable = _import_program()
    import bench

    runner = bench.Runner(integrable, workloads.WORKLOADS[args.workload](args.seed),
                          nproc=nproc, blas_threads=_blas_threads())
    if args.trace:
        result = runner.traced(args.seconds, workloads.STRESSED[args.workload])
    else:
        result = runner.untraced(args.seconds, measure_setup)
    runner.print_result(result, trace=bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
