"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload edist-sparse --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs each partition untraced and traced and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record with
provenance goes to ``perfbench/out/``; nothing else in the repository is
written.  The benchmark imports the library from ``src/`` next to this
directory and exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("edist-sparse", "service-small")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's self-test only",
    )
    return parser.parse_args(argv)


def _spin(iterations: int) -> None:
    total = 0
    for i in range(iterations):
        total += i


def parallelism_probe(iterations: int = 300_000, repeats: int = 3) -> float:
    """Effective cores: 2 × (one CPU-bound process) / (two side by side).

    The median of ``repeats`` alternating measurements; well under a second.
    """
    context = multiprocessing.get_context("fork")

    def timed(count: int) -> float:
        procs = [context.Process(target=_spin, args=(iterations,)) for _ in range(count)]
        start = time.perf_counter()
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        return time.perf_counter() - start

    return statistics.median(2.0 * timed(1) / timed(2) for _ in range(repeats))


def stop_helper_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    Forked ranks and clients are joined where they start.  What is left is
    multiprocessing's resource tracker, which ``SharedMemory`` starts on first
    use and which would otherwise end only some time after this process.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` in the repository root only."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    try:
        return measure(parse_args(argv))
    finally:
        stop_helper_processes()


def measure(args: argparse.Namespace) -> int:
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import numpy
    import workloads
    import_s = time.perf_counter() - start
    if not Path(workloads.repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported repro from {workloads.repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "effective_parallelism": parallelism_probe(),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    print("provenance " + json.dumps(provenance), flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.make_workloads(args.size)[args.workload]
    setup_times = []
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), OUT, setup_times)
    finally:
        shutil.rmtree(OUT / f"ranks-{os.getpid()}", ignore_errors=True)

    metrics = dict(outcome.metrics)
    if not args.trace:
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    report = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "provenance": provenance,
        "samples": outcome.samples,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "problems": outcome.problems,
        **report,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in outcome.problems:
        print("problem: " + problem, file=sys.stderr)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
