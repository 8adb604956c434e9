"""The benchmark's workloads, their correctness checks and their metrics.

Two workloads stress different layers of the library:

* ``edist-sparse`` — EDiSt on 2 forked ranks over sparse scaling graphs, the
  paper's algorithm on the paper's hard case.  The only workload that runs
  remote-move replay, the rank-0 DL broadcast and the collectives.
* ``service-small`` — many small jobs through the HTTP API of
  ``PartitionService``: request parsing, ingest, progress events, polling and
  result serialization around the same kernels, on the sequential driver.
  It bypasses ``mpi``.

Every workload builds its inputs from the seed alone, drives the library only
through its public surface, leaves ``matrix_backend`` at the library default
and uses the ``"fast"`` preset.  Timed partitions attach no observer and no
timeout.  The traced run (``--trace 1``) pairs each untraced partition with a
traced one and reports the per-layer metrics; see ``tracing.py``.
"""

from __future__ import annotations

import http.client
import importlib
import itertools
import json
import multiprocessing
import os
import resource
import statistics
import threading
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import partition
from repro.api.handle import RunHandle
from repro.blockmodel.blockmodel import Blockmodel
from repro.core.context import RunObserver
from repro.evaluation import normalized_mutual_information
from repro.graphs.generators import (
    DCSBMSpec,
    DegreeSequenceSpec,
    generate_dcsbm_graph,
    scaling_graph,
)
from repro.service import PartitionService
from repro.service.progress import ProgressTracker

from tracing import Tracer, layer_calls, layer_seconds, self_times

# ``repro.core`` re-exports functions named like these modules, so fetch the
# modules themselves.
sbp_module = importlib.import_module("repro.core.sbp")
edist_module = importlib.import_module("repro.core.edist")
communicator_module = importlib.import_module("repro.mpi.communicator")

#: End-to-end metrics (``--trace 0``) and their units; BENCHMARK.json lists
#: the same names.
END_TO_END = {
    "setup_s": "s",
    "partition_s": "s",
    "nmi": "ratio",
    "dl_norm": "ratio",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "ok_frac": "ratio",
}

#: Per-layer metrics (``--trace 1``).  A layer a workload does not exercise
#: reports 0: the prediction for it there is "no change".
PER_LAYER = {
    "core.mcmc.s": "s",
    "core.mcmc.proposals_per_s": "1/s",
    "core.mcmc.sweeps": "count",
    "core.mcmc.proposals": "count",
    "core.mcmc.accept_ratio": "ratio",
    "core.merges.s": "s",
    "core.merges.merges": "count",
    "core.golden_ratio.cycles": "count",
    "blockmodel.build_s": "s",
    "blockmodel.dl_s": "s",
    "blockmodel.dl_calls": "count",
    "core.edist.mcmc_compute_s_max": "s",
    "core.edist.mcmc_apply_s_max": "s",
    "core.edist.merge_s_max": "s",
    "core.edist.imbalance": "ratio",
    "mpi.comm_s_max": "s",
    "mpi.allgather.calls": "count",
    "mpi.bcast.calls": "count",
    "mpi.bytes_sent": "bytes",
    "proc.cpu_s": "s",
    "proc.parallelism": "ratio",
    "service.submit_s_p50": "s",
    "service.result_s_p50": "s",
    "service.request_bytes": "bytes",
    "service.result_bytes": "bytes",
    "service.queue_wait_s_p50": "s",
    "service.run_s_p50": "s",
    "service.polls_per_job": "count",
    "trace.overhead_frac": "ratio",
}

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: Service clients poll job status at this fixed interval (seconds).
POLL_INTERVAL_S = 0.025
#: Served results compared bit-for-bit with direct ``partition()`` calls.
SERVICE_REFERENCE_JOBS = 3
_TERMINAL = {"succeeded", "failed", "cancelled", "timeout"}


def instance_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th graph (and its partition) of a run."""
    return seed * 1000 + index


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def planted_description_length(graph) -> float:
    return Blockmodel.from_assignment(graph, graph.true_assignment, relabel=True).description_length()


def check_partition(graph, assignment, reported_dl: float, nmi_floor: float) -> Tuple[List[str], float]:
    """Problems with one partition, and its NMI against the planted labels.

    The assignment must label every vertex; its reported description length
    must equal one recomputed here from (graph, assignment); and the result
    must not be degenerate (one community, or NMI under ``nmi_floor``).
    """
    labels = np.asarray(assignment)
    if labels.shape != (graph.num_vertices,) or (labels.size and labels.min() < 0):
        return ["assignment does not label every vertex"], 0.0
    problems = []
    recomputed = Blockmodel.from_assignment(graph, labels, relabel=True).description_length()
    if recomputed != reported_dl:
        problems.append(f"reported DL {reported_dl!r} != recomputed {recomputed!r}")
    if np.unique(labels).size < 2:
        problems.append("one community")
    nmi = normalized_mutual_information(graph.true_assignment, labels)
    if nmi < nmi_floor:
        problems.append(f"NMI {nmi:.4f} below floor {nmi_floor}")
    return problems, nmi


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and of its largest child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def tail_latency(values: List[float]) -> float:
    """The 90th percentile, or the highest one with ten samples beyond it.

    A tail percentile with fewer samples beyond it than ten measures little
    but noise; with under 20 samples this is the median.
    """
    ordered = sorted(values)
    q = max(0.5, min(0.9, 1.0 - 10.0 / len(ordered)))
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class EventCounts(RunObserver):
    """Exact counts from run-lifecycle events, keyed by trace id."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[Optional[str], Dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def _bucket(self) -> Dict[str, int]:
        return self.counts[self.tracer.current_trace()]

    def on_cycle(self, event) -> None:
        self._bucket()["cycles"] += 1

    def on_merge_phase(self, event) -> None:
        self._bucket()["merges"] += event.num_blocks_before - event.num_blocks_after

    def on_mcmc_sweep(self, event) -> None:
        bucket = self._bucket()
        bucket["sweeps"] += 1
        bucket["proposals"] += event.proposed_moves
        bucket["accepted"] += event.accepted_moves


def wrap_layers(tracer: Tracer) -> None:
    """Install span wrappers on the public entry points of each layer."""
    tracer.wrap(Blockmodel, "from_graph", "blockmodel.build")
    tracer.wrap(Blockmodel, "from_assignment", "blockmodel.build")
    tracer.wrap(Blockmodel, "description_length", "blockmodel.dl")
    tracer.wrap(sbp_module, "mcmc_phase", "core.mcmc")
    tracer.wrap(sbp_module, "block_merge_phase", "core.merges")
    tracer.wrap(edist_module, "distributed_mcmc_phase", "core.mcmc")
    tracer.wrap(edist_module, "distributed_block_merge", "core.merges")
    tracer.wrap(communicator_module.SequencedCommunicator, "allgather", "mpi.allgather")
    tracer.wrap(communicator_module.SequencedCommunicator, "bcast", "mpi.bcast")
    tracer.wrap_rank_program(edist_module, "edist_rank_program", "core.edist.rank")


def span_layers(tracer: Tracer, trace: str) -> Dict[str, float]:
    """Per-layer self seconds and call counts of one trace."""
    timed = self_times(s for s in tracer.spans if s[2] == trace)
    pid = tracer.launcher_pid
    return {
        "core.mcmc.s": layer_seconds(timed, "core.mcmc", pid),
        "core.merges.s": layer_seconds(timed, "core.merges", pid),
        "blockmodel.build_s": layer_seconds(timed, "blockmodel.build", pid),
        "blockmodel.dl_s": layer_seconds(timed, "blockmodel.dl", pid),
        "blockmodel.dl_calls": layer_calls(timed, "blockmodel.dl"),
    }


def event_layers(counts: Dict[str, int]) -> Dict[str, float]:
    proposals = counts.get("proposals", 0)
    return {
        "core.mcmc.sweeps": counts.get("sweeps", 0),
        "core.mcmc.proposals": proposals,
        "core.mcmc.accept_ratio": counts.get("accepted", 0) / proposals if proposals else 0.0,
        "core.merges.merges": counts.get("merges", 0),
        "core.golden_ratio.cycles": counts.get("cycles", 0),
    }


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# edist-sparse: back-to-back partition() calls
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdistWorkload:
    """Back-to-back 2-rank EDiSt partitions of distinct sparse graphs from one seed."""

    name: str
    #: ``scaling_graph("2M", scale)``: the sparse family of the paper.
    scale: float
    nmi_floor: float
    pool_size: int
    #: ``nmi`` and ``dl_norm`` are medians over graphs 0..quality_graphs-1,
    #: which every run partitions, so a speed change cannot move them.
    quality_graphs: int

    def make_graph(self, seed: int, scale: Optional[float] = None):
        return scaling_graph("2M", scale=scale or self.scale, seed=seed)

    def setup(self, seed: int):
        pool = []
        for index in range(self.pool_size):
            graph = self.make_graph(instance_seed(seed, index))
            pool.append((graph, planted_description_length(graph)))
        # A reference partition warms every lazily initialised path and the
        # fork of the ranks before anything is timed.  Its graph is smaller,
        # so the quality floor of the measured graphs does not apply to it;
        # the other checks do.
        graph = self.make_graph(seed, scale=self.scale / 2)
        result = partition(graph, "edist", "fast", seed=seed, num_ranks=2, transport="processes")
        problems, _ = check_partition(graph, result.assignment, result.description_length, 0.0)
        return pool, problems

    def partition_once(self, graph, seed: int, observers=()):
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        result = partition(
            graph, "edist", "fast", seed=seed, num_ranks=2, transport="processes", observers=observers
        )
        wall = time.perf_counter() - start
        return result, wall, cpu_seconds() - cpu0

    def traced_partition(self, tracer: Tracer, counts: EventCounts, graph, seed: int, trace_id: str):
        tracer.trace_id = trace_id
        wrap_layers(tracer)
        try:
            with tracer.span("api.partition"):
                result, wall, _ = self.partition_once(graph, seed, observers=[counts])
        finally:
            tracer.unwrap_all()
            tracer.collect_rank_dumps()
            tracer.trace_id = None
        return result, wall

    def run(self, seed: int, seconds: float, trace: bool, out_dir: Path, setup_times: List[float]) -> Outcome:
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            pool, problems = self.setup(seed)
            setup_times.append(time.perf_counter() - start)

        tracer = Tracer(out_dir / f"ranks-{os.getpid()}")
        counts = EventCounts(tracer)
        rows: List[Dict[str, float]] = []
        layer_rows: List[Dict[str, float]] = []
        first_counts: Dict[str, float] = {}
        attempted, failed = 1, int(bool(problems))
        # Start a graph only if it should end by the deadline, so a run lasts
        # about ``seconds`` however long one partition takes; but an untraced
        # run always partitions the quality set.
        deadline = time.perf_counter() + seconds
        min_graphs = 1 if trace else self.quality_graphs
        iteration_s: List[float] = []
        index = 0
        while index < min_graphs or time.perf_counter() + statistics.median(iteration_s) <= deadline:
            iteration_start = time.perf_counter()
            graph, planted = pool[index % len(pool)]
            seed_i = instance_seed(seed, index % len(pool))
            trace_id = f"p{index}"
            # Traced and untraced partitions of a graph alternate in order,
            # so a drift in host speed does not bias the overhead.
            if trace and index % 2:
                traced, traced_wall = self.traced_partition(tracer, counts, graph, seed_i, trace_id)
            result, wall, cpu = self.partition_once(graph, seed_i)
            attempted += 1
            found, nmi = check_partition(graph, result.assignment, result.description_length, self.nmi_floor)
            if found:
                failed += 1
                problems += [f"{self.name} instance {index}: {p}" for p in found]
            rows.append({"wall": wall, "nmi": nmi, "dl_norm": result.description_length / planted})
            if trace:
                if index % 2 == 0:
                    traced, traced_wall = self.traced_partition(tracer, counts, graph, seed_i, trace_id)
                attempted += 1
                if not same_partition(traced, result.assignment, result.description_length):
                    failed += 1
                    problems.append(f"{self.name} instance {index}: observers changed the result")
                layer = span_layers(tracer, trace_id)
                layer.update(untraced_layers(result, wall, cpu))
                layer["core.mcmc.proposals_per_s"] = (
                    counts.counts[trace_id]["proposals"] / layer["core.mcmc.s"] if layer["core.mcmc.s"] else 0.0
                )
                layer["trace.overhead_frac"] = (traced_wall - wall) / wall
                layer_rows.append(layer)
                if index == 0:
                    first_counts = event_layers(counts.counts[trace_id])
                    first_counts.update(comm_counts(result))
                    first_counts["blockmodel.dl_calls"] = layer["blockmodel.dl_calls"]
            iteration_s.append(time.perf_counter() - iteration_start)
            index += 1

        walls = [row["wall"] for row in rows]
        quality = rows[: self.quality_graphs]
        metrics = {
            "partition_s": statistics.median(walls),
            "nmi": statistics.median(row["nmi"] for row in quality),
            "dl_norm": statistics.median(row["dl_norm"] for row in quality),
            "jobs_per_s": len(walls) / sum(walls),
            "job_latency_p50_s": statistics.median(walls),
            "job_latency_p90_s": tail_latency(walls),
            "ok_frac": (attempted - failed) / attempted,
        }
        if trace:
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(medians(layer_rows))
            metrics.update(first_counts)
            tracer.write(out_dir / f"{self.name}-seed{seed}.spans.jsonl")
        return Outcome(metrics, attempted, failed, problems, {"partitions": len(rows), "rows": rows})


def same_partition(result, assignment, description_length: float) -> bool:
    """Bit-identity of a result with a reference assignment and DL."""
    return (
        np.array_equal(np.asarray(result.assignment), np.asarray(assignment))
        and float(result.description_length).hex() == float(description_length).hex()
    )


def untraced_layers(result, wall: float, cpu: float) -> Dict[str, float]:
    """Layer numbers the untraced run reports itself: per-rank phases and CPU."""
    layers = {"proc.cpu_s": cpu, "proc.parallelism": cpu / wall}
    per_rank = result.metadata.get("per_rank_phase_seconds")
    if per_rank:
        def rank_max(*buckets: str) -> float:
            return max(sum(rank.get(b, 0.0) for b in buckets) for rank in per_rank)

        busy = [
            sum(rank.get(b, 0.0) for b in ("mcmc_compute", "mcmc_apply", "block_merge_compute", "block_merge_apply"))
            for rank in per_rank
        ]
        layers.update(
            {
                "core.edist.mcmc_compute_s_max": rank_max("mcmc_compute"),
                "core.edist.mcmc_apply_s_max": rank_max("mcmc_apply"),
                "core.edist.merge_s_max": rank_max("block_merge_compute", "block_merge_apply"),
                "core.edist.imbalance": max(busy) / statistics.mean(busy),
                "mpi.comm_s_max": rank_max("communication"),
            }
        )
    return layers


def comm_counts(result) -> Dict[str, float]:
    """Collective counts and bytes of an untraced run (observers add traffic)."""
    stats = result.comm_stats
    if stats is None:
        return {}
    return {
        "mpi.allgather.calls": stats.calls.get("allgather", 0),
        "mpi.bcast.calls": stats.calls.get("bcast", 0),
        "mpi.bytes_sent": stats.total_bytes_sent,
    }


# ----------------------------------------------------------------------
# service-small: a closed loop of HTTP clients
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    index: int
    job_id: str
    start: float
    end: float
    submit_s: float
    result_s: float
    polls: int
    request_bytes: int
    result_bytes: int
    status: Dict[str, object]
    result: Dict[str, object]


class JobBodies:
    """``POST /jobs`` bodies: job ``i`` partitions graph ``i mod len(graphs)`` with seed ``1000·seed + i``.

    Every job has its own id and seed, so no two requests are alike even if a
    run outlasts the pool of graphs.  Each graph's edge list is serialized once.
    """

    def __init__(self, seed: int, graphs: list) -> None:
        self.seed = seed
        self.graphs = graphs
        self._edges = [json.dumps(np.stack(graph.edge_arrays(), axis=1).tolist()) for graph in graphs]

    def graph(self, index: int):
        return self.graphs[index % len(self.graphs)]

    def job_id(self, index: int) -> str:
        return f"job-{self.seed}-{index}"

    def body(self, index: int) -> bytes:
        job_id = json.dumps(self.job_id(index))
        return (
            f'{{"job_id": {job_id}, "preset": "fast", "overrides": {{"seed": {instance_seed(self.seed, index)}}}, '
            f'"graph": {{"name": {job_id}, "num_vertices": {self.graph(index).num_vertices}, '
            f'"edges": {self._edges[index % len(self.graphs)]}}}}}'
        ).encode("utf-8")


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed loop of clients submitting distinct small jobs over HTTP."""

    name: str
    spec: DCSBMSpec
    clients: int
    #: One worker, kept busy by the clients.  Two workers share one
    #: interpreter lock, so their jobs only take turns; how much they overlap
    #: varies from run to run and moved the median run time of a job by up
    #: to half between runs of the same code.
    workers: int
    nmi_floor: float
    pool_size: int
    #: ``nmi`` and ``dl_norm`` are medians over jobs 0..quality_jobs-1, which
    #: every untraced run completes, so a speed change cannot move them.
    quality_jobs: int

    def setup(self, seed: int):
        graphs = [generate_dcsbm_graph(self.spec, instance_seed(seed, index)) for index in range(self.pool_size)]
        planted = [planted_description_length(graph) for graph in graphs]
        references = [
            partition(graph, "sequential", "fast", seed=instance_seed(seed, index))
            for index, graph in enumerate(graphs[:SERVICE_REFERENCE_JOBS])
        ]
        jobs = JobBodies(seed, graphs)
        service = PartitionService(max_workers=self.workers, record_runs=False).start()
        return jobs, planted, references, service

    def run(self, seed: int, seconds: float, trace: bool, out_dir: Path, setup_times: List[float]) -> Outcome:
        service = None
        for _ in range(SETUP_REPS):
            if service is not None:
                service.stop()
            start = time.perf_counter()
            jobs, planted, references, service = self.setup(seed)
            setup_times.append(time.perf_counter() - start)

        tracer = Tracer(out_dir / f"ranks-{os.getpid()}")
        counts = EventCounts(tracer)
        segments: List[Tuple[bool, float, float, List[JobRecord]]] = []
        cpu_untraced = 0.0
        first = 0
        try:
            # The traced run alternates traced and untraced segments, traced
            # first so that job 0's event counts are always traced.
            plan = [True, False, True, False] if trace else [False]
            for traced in plan:
                if traced:
                    wrap_layers(tracer)
                    tracer.wrap(RunHandle, "run", "api.run", trace_of=lambda handle: handle.graph.name)
                    for hook in ("on_cycle", "on_merge_phase", "on_mcmc_sweep"):
                        self._mirror_hook(tracer, hook, counts)
                cpu0 = cpu_seconds()
                start = time.perf_counter()
                try:
                    records, client_spans = self._closed_loop(
                        service.base_url, jobs, first, 0 if trace else self.quality_jobs, seconds / len(plan), traced
                    )
                finally:
                    tracer.unwrap_all()
                end = max([r.end for r in records], default=time.perf_counter())
                if not traced:
                    cpu_untraced += cpu_seconds() - cpu0
                tracer.spans.extend(client_spans)
                segments.append((traced, start, end, records))
                first += len(records)
        finally:
            service.stop()

        problems: List[str] = []
        attempted = failed = 0
        rows = []
        for _, _, _, records in segments:
            for record in records:
                attempted += 1
                graph = jobs.graph(record.index)
                found = self._check(record, references)
                nmi = 0.0
                if not found:
                    found, nmi = check_partition(
                        graph,
                        record.result["assignment"],
                        float.fromhex(record.result["description_length_hex"]),
                        self.nmi_floor,
                    )
                if found:
                    failed += 1
                    problems += [f"{self.name} {record.job_id}: {p}" for p in found]
                rows.append((record, nmi))

        untraced_records = [r for traced, _, _, records in segments if not traced for r in records]
        untraced_wall = sum(end - start for traced, start, end, _ in segments if not traced)
        if trace:
            traced_records = [r for traced, _, _, records in segments if traced for r in records]
            traced_wall = sum(end - start for traced, start, end, _ in segments if traced)
            metrics = self._layer_metrics(tracer, counts, traced_records, jobs.job_id(0))
            metrics["proc.cpu_s"] = cpu_untraced / max(len(untraced_records), 1)
            metrics["proc.parallelism"] = cpu_untraced / untraced_wall
            metrics["trace.overhead_frac"] = (
                (len(untraced_records) / untraced_wall) / (len(traced_records) / traced_wall) - 1.0
            )
            tracer.write(out_dir / f"{self.name}-seed{seed}.spans.jsonl")
        else:
            latencies = [r.end - r.start for r in untraced_records]
            run_s = [r.status["finished_at"] - r.status["started_at"] for r in untraced_records]
            quality = [(r, nmi) for r, nmi in rows if r.index < self.quality_jobs]
            dl_norms = [
                float.fromhex(r.result["description_length_hex"]) / planted[r.index % len(planted)] if r.result else 0.0
                for r, _ in quality
            ]
            metrics = {
                "partition_s": statistics.median(run_s),
                "nmi": statistics.median(nmi for _, nmi in quality),
                "dl_norm": statistics.median(dl_norms),
                "jobs_per_s": len(untraced_records) / untraced_wall,
                "job_latency_p50_s": statistics.median(latencies),
                "job_latency_p90_s": tail_latency(latencies),
                "ok_frac": (attempted - failed) / attempted,
            }
        samples = [
            {
                "latency": r.end - r.start,
                "queue_wait": r.status["started_at"] - r.status["submitted_at"],
                "run": r.status["finished_at"] - r.status["started_at"],
                "polls": r.polls,
                "nmi": nmi,
            }
            for r, nmi in rows
        ]
        return Outcome(metrics, attempted, failed, problems, {"jobs": attempted, "rows": samples})

    @staticmethod
    def _mirror_hook(tracer: Tracer, hook: str, counts: EventCounts) -> None:
        """Feed the events the service's own progress observer sees into ``counts``."""
        original = vars(ProgressTracker)[hook]

        def mirrored(self, event):
            getattr(counts, hook)(event)
            return original(self, event)

        tracer.patch(ProgressTracker, hook, mirrored)

    def _check(self, record: JobRecord, references) -> List[str]:
        if record.status.get("state") != "succeeded":
            return [f"job ended {record.status.get('state')!r}: {record.status.get('error')}"]
        if record.index < len(references):
            ref = references[record.index]
            if not same_partition(
                ref, record.result["assignment"], float.fromhex(record.result["description_length_hex"])
            ):
                return ["served result differs from the direct partition() of the same graph"]
        return []

    def _closed_loop(self, base_url, jobs, first: int, min_jobs: int, seconds: float, traced: bool):
        """Run the clients for ``seconds`` on jobs ``first``, ``first + 1``, ….

        The clients run in a forked process, as real clients would, so their
        HTTP and JSON work does not compete with the service for its
        interpreter lock.  They start new jobs until the deadline has passed
        and at least ``min_jobs`` have started.  Returns the job records and,
        when ``traced``, the client spans.
        """
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def clients() -> None:
            try:
                tracer = Tracer(Path(os.devnull)) if traced else None
                sender.send(("ok", self._clients(base_url, jobs, first, min_jobs, seconds, tracer)))
            except BaseException:  # noqa: BLE001 - re-raised in the parent
                sender.send(("error", traceback.format_exc()))

        process = context.Process(target=clients, name="perfbench-clients")
        process.start()
        sender.close()
        try:
            kind, payload = receiver.recv()
        finally:
            process.join()
            receiver.close()
        if kind != "ok":
            raise RuntimeError(f"service clients failed:\n{payload}")
        return payload

    def _clients(self, base_url, jobs, first, min_jobs, seconds, tracer):
        host, port = base_url.rsplit("//", 1)[1].split(":")
        deadline = time.perf_counter() + seconds
        next_index = itertools.count(first)
        index_lock = threading.Lock()
        records: List[JobRecord] = []
        errors: List[BaseException] = []

        def client() -> None:
            conn = http.client.HTTPConnection(host, int(port), timeout=120)
            try:
                while True:
                    with index_lock:
                        index = next(next_index)
                        if index - first >= min_jobs and time.perf_counter() >= deadline:
                            return
                    records.append(self._one_job(conn, index, jobs.job_id(index), jobs.body(index), tracer))
            except BaseException as exc:  # noqa: BLE001 - reported after join
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        records.sort(key=lambda record: record.index)
        return records, tracer.spans if tracer is not None else []

    @staticmethod
    def _one_job(conn, index: int, job_id: str, body: bytes, tracer: Optional[Tracer]) -> JobRecord:
        def call(span: str, method: str, path: str, payload: Optional[bytes] = None):
            start = time.perf_counter()
            with tracer.span(span, trace=job_id) if tracer is not None else nullcontext():
                raw = _request(conn, method, path, payload)
            return raw, time.perf_counter() - start

        start = time.perf_counter()
        _, submit_s = call("service.submit", "POST", "/jobs", body)
        polls = 0
        while True:
            time.sleep(POLL_INTERVAL_S)
            raw, _ = call("service.poll", "GET", f"/jobs/{job_id}")
            polls += 1
            status = json.loads(raw)
            if status["state"] in _TERMINAL:
                break
        raw, result_s = call("service.result", "GET", f"/jobs/{job_id}/result?include_graph=0")
        end = time.perf_counter()
        result = json.loads(raw) if status["state"] == "succeeded" else {}
        return JobRecord(index, job_id, start, end, submit_s, result_s, polls, len(body), len(raw), status, result)

    def _layer_metrics(self, tracer: Tracer, counts: EventCounts, records: List[JobRecord], first_job: str):
        metrics = {name: 0.0 for name in PER_LAYER}
        layer_rows = []
        for record in records:
            layer = span_layers(tracer, record.job_id)
            proposals = counts.counts[record.job_id]["proposals"]
            layer["core.mcmc.proposals_per_s"] = proposals / layer["core.mcmc.s"] if layer["core.mcmc.s"] else 0.0
            layer_rows.append(layer)
        metrics.update(medians(layer_rows))
        metrics.update(event_layers(counts.counts[first_job]))
        metrics["blockmodel.dl_calls"] = span_layers(tracer, first_job)["blockmodel.dl_calls"]
        metrics.update(
            {
                "service.submit_s_p50": statistics.median(r.submit_s for r in records),
                "service.result_s_p50": statistics.median(r.result_s for r in records),
                "service.request_bytes": statistics.median(r.request_bytes for r in records),
                "service.result_bytes": statistics.median(r.result_bytes for r in records),
                "service.queue_wait_s_p50": statistics.median(
                    r.status["started_at"] - r.status["submitted_at"] for r in records
                ),
                "service.run_s_p50": statistics.median(
                    r.status["finished_at"] - r.status["started_at"] for r in records
                ),
                "service.polls_per_job": statistics.mean(r.polls for r in records),
            }
        )
        return metrics


def _request(conn: http.client.HTTPConnection, method: str, path: str, payload: Optional[bytes]) -> bytes:
    headers = {"Content-Type": "application/json"} if payload is not None else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    if response.status >= 400:
        raise RuntimeError(f"{method} {path} -> {response.status}: {raw[:200]!r}")
    return raw


# ----------------------------------------------------------------------
# Registry of workloads at the two sizes
# ----------------------------------------------------------------------
def _service_spec(num_vertices: int) -> DCSBMSpec:
    return DCSBMSpec(
        num_vertices=num_vertices,
        num_communities=4,
        degree_spec=DegreeSequenceSpec(exponent=3.0, min_degree=10, max_degree=30, duplicate=True),
        intra_inter_ratio=3.0,
        block_size_alpha=5.0,
        name="service-small",
    )


def make_workloads(size: str) -> Dict[str, object]:
    """The workloads at ``size`` (``"full"`` for measurement, ``"tiny"`` for the self-test)."""
    tiny = size == "tiny"
    return {
        "edist-sparse": EdistWorkload(
            name="edist-sparse",
            scale=0.00008 if tiny else 0.0002,
            nmi_floor=0.0 if tiny else 0.7,
            pool_size=4 if tiny else 32,
            quality_graphs=2 if tiny else 12,
        ),
        "service-small": ServiceWorkload(
            name="service-small",
            spec=_service_spec(24 if tiny else 64),
            clients=2,
            workers=1,
            nmi_floor=0.0 if tiny else 0.6,
            pool_size=16 if tiny else 300,
            quality_jobs=4 if tiny else 100,
        ),
    }
