"""Self-test of the benchmark.

Run from the repository root (it takes under a minute)::

    python3 perfbench/selftest.py

It checks that

* every workload, run at a tiny size with and without tracing, prints every
  metric named in BENCHMARK.json with its unit;
* a traced run reads non-zero on every layer its workload exercises, and 0
  on every layer it bypasses;
* the exact counts of a traced run repeat at a fixed seed;
* a corrupted assignment is counted as a failure;
* no run leaves a process running after it exits;
* the benchmark exits non-zero without a result when the library sources are
  missing.

The file name keeps it out of the default pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("core.golden_ratio.cycles", "core.mcmc.sweeps", "mpi.allgather.calls", "mpi.bytes_sent")
_KERNEL_LAYERS = (
    "core.mcmc.s", "core.mcmc.proposals_per_s", "core.mcmc.sweeps", "core.mcmc.proposals",
    "core.mcmc.accept_ratio", "core.merges.s", "core.merges.merges", "core.golden_ratio.cycles",
    "blockmodel.build_s", "blockmodel.dl_s", "blockmodel.dl_calls", "proc.cpu_s", "proc.parallelism",
)
_DISTRIBUTED_LAYERS = (
    "core.edist.mcmc_compute_s_max", "core.edist.mcmc_apply_s_max", "core.edist.merge_s_max",
    "core.edist.imbalance", "mpi.comm_s_max", "mpi.allgather.calls", "mpi.bcast.calls", "mpi.bytes_sent",
)
_SERVICE_LAYERS = (
    "service.submit_s_p50", "service.result_s_p50", "service.request_bytes", "service.result_bytes",
    "service.queue_wait_s_p50", "service.run_s_p50", "service.polls_per_job",
)
#: Per-layer metrics each workload exercises, which a traced run must read
#: non-zero, and those it bypasses, which must read 0.  A wrapper that
#: silently stopped intercepting would read 0 where it should not.
EXERCISED = {
    "edist-sparse": (_KERNEL_LAYERS + _DISTRIBUTED_LAYERS, _SERVICE_LAYERS),
    "service-small": (_KERNEL_LAYERS + _SERVICE_LAYERS, _DISTRIBUTED_LAYERS),
}


def run(workload: str, trace: int, root: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    """One tiny run in a session of its own, which must be empty once it exits."""
    command = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--size", "tiny",
    ]
    # Output goes to files, not pipes: a helper that inherited a pipe would
    # hold it open, and reading to its end would wait for the helper to exit.
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(command, cwd=root, stdout=stdout, stderr=stderr, text=True, start_new_session=True)
        proc.wait(timeout=300)
        left = session_processes(proc.pid)
        assert not left, f"{workload} trace={trace} left processes running: {left}"
        stdout.seek(0)
        stderr.seek(0)
        return subprocess.CompletedProcess(command, proc.returncode, stdout.read(), stderr.read())


def session_processes(session: int) -> list:
    """Command lines of the live processes in ``session`` (Linux ``/proc``)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # After the command name: state, ppid, pgrp, session, ...
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            found.append(cmdline.replace(b"\0", b" ").decode(errors="replace").strip())
    return found


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}, report.keys()
    assert isinstance(report["attempted"], int) and report["attempted"] >= 1
    assert isinstance(report["failed"], int)
    assert report["correct"] and report["failed"] == 0, report
    return report


def check_metrics_printed(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report = last_json(run(workload, trace))
            printed = report["metrics"]
            for metric in spec[key]:
                assert metric["name"] in printed, (workload, trace, metric["name"])
                assert printed[metric["name"]]["unit"] == metric["unit"], (workload, metric)
                assert isinstance(printed[metric["name"]]["value"], float)
            assert set(printed) == {m["name"] for m in spec[key]}, (workload, sorted(printed))
            if trace:
                exercised, bypassed = EXERCISED[workload]
                zero = [name for name in exercised if printed[name]["value"] == 0.0]
                assert not zero, f"{workload}: layers read 0 although exercised: {zero}"
                nonzero = [name for name in bypassed if printed[name]["value"] != 0.0]
                assert not nonzero, f"{workload}: bypassed layers read non-zero: {nonzero}"
            print(f"ok  {workload} trace={trace}: {len(printed)} metrics, attempted={report['attempted']}")


def check_exact_counts_repeat() -> None:
    first, second = (last_json(run("edist-sparse", 1))["metrics"] for _ in range(2))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], (name, first[name], second[name])
    print("ok  exact counts repeat at a fixed seed")


def check_corruption_detected() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from repro import challenge_graph, partition

    graph = challenge_graph("20k-hard", scale=0.008, seed=0)
    result = partition(graph, "sequential", "fast", seed=0)
    assignment = np.asarray(result.assignment)
    problems, _ = workloads.check_partition(graph, assignment, result.description_length, 0.5)
    assert problems == [], problems

    moved = assignment.copy()
    moved[0] = (moved[0] + 1) % (moved.max() + 1)
    corrupted = {
        "vertex moved": moved,
        "vertex missing": assignment[:-1],
        "one community": np.zeros_like(assignment),
    }
    for label, labels in corrupted.items():
        problems, _ = workloads.check_partition(graph, labels, result.description_length, 0.5)
        assert problems, f"corruption not detected: {label}"
    print("ok  corrupted assignments are counted as failures")


def check_fails_without_sources() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run("edist-sparse", 0, root=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  exits non-zero without the library sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_fails_without_sources()
    check_corruption_detected()
    check_metrics_printed(spec)
    check_exact_counts_repeat()
    return 0


if __name__ == "__main__":
    sys.exit(main())
