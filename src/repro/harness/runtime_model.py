"""An α-β critical-path runtime model for the simulated distributed runs.

The simulated MPI ranks may share one Python interpreter, so measured
wall-clock equals (roughly) the *sum* of every rank's work.  What the paper's
strong-scaling figures need is the time a real cluster would take:
the slowest rank's compute time per phase, plus the cost of the collectives.
The model therefore charges rank compute in *CPU* seconds, not wall seconds.

The model charges:

* **compute** — the maximum, over ranks, of the rank's measured compute
  seconds (its own share of proposals/moves), optionally divided by an
  intra-node thread speedup to represent the OpenMP parallelism the paper's
  implementation uses inside a rank.  Distributed runs charge the CPU
  seconds of each rank's own thread (``per_rank_phase_cpu_seconds``): ranks
  that share one interpreter take turns at its lock, so a rank's wall time
  also counts the other ranks' work.  Work a rank hands to other threads
  is not counted.  A sequential run is one rank, charged its wall phase
  seconds;
* **communication** — for every collective call, a latency term
  ``alpha · ceil(log2 R)`` plus a bandwidth term ``bytes / bandwidth`` using
  the per-rank payload bytes recorded by the communicator;
* **serial stages** — DC-SBP's partial-result combination and fine-tuning run
  on the root rank only and are charged at full (unscaled) cost, which is
  exactly the bottleneck the paper identifies.

Absolute seconds are not comparable to the paper's 128-core EPYC cluster and
are not claimed to be; the model is used to compare *algorithms and rank
counts under identical assumptions*, which is what the figures' shapes
(speedups, crossovers, level-off points) depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.results import SBPResult

__all__ = ["RuntimeModelParams", "modeled_runtime", "speedup_series"]

#: Phase-timer buckets that represent rank-local compute.
_COMPUTE_PHASES = (
    "block_merge_compute",
    "block_merge_apply",
    "mcmc_compute",
    "mcmc_apply",
    "subgraph_sbp",
    "block_merge",
    "mcmc",
)
#: Phase-timer buckets that run serially on the root rank (DC-SBP).
_SERIAL_PHASES = ("combine", "finetune")


@dataclass(frozen=True)
class RuntimeModelParams:
    """Cost-model constants.

    Attributes
    ----------
    alpha:
        Per-collective latency (seconds) per ``log2(ranks)`` step.  The
        default corresponds to a few tens of microseconds per hop, typical
        for an HDR InfiniBand cluster like the paper's tinkercliffs.
    bandwidth:
        Effective per-rank bandwidth in bytes/second for collective payloads.
    intra_node_speedup:
        Divisor applied to rank-local compute, representing the shared-memory
        (OpenMP / hybrid-MCMC) parallelism inside one rank.  1.0 models the
        pure-Python single-threaded rank.
    tasks_per_node:
        Number of MPI tasks co-located on one node (the paper uses 4); used
        only for reporting node counts.
    """

    alpha: float = 5.0e-5
    bandwidth: float = 2.0e9
    intra_node_speedup: float = 1.0
    tasks_per_node: int = 1


def _per_rank_compute_seconds(result: SBPResult) -> List[float]:
    """Rank-local compute seconds, one entry per rank (CPU seconds for ranks)."""
    per_rank: Optional[List[Dict[str, float]]] = None
    if isinstance(result.metadata, dict):
        per_rank = result.metadata.get("per_rank_phase_cpu_seconds")
    if not per_rank:
        # Sequential run: everything measured is one rank's compute.
        return [sum(result.phase_seconds.get(p, 0.0) for p in _COMPUTE_PHASES)]
    out = []
    for phases in per_rank:
        out.append(sum(phases.get(p, 0.0) for p in _COMPUTE_PHASES))
    return out


def _serial_seconds(result: SBPResult) -> float:
    per_rank = result.metadata.get("per_rank_phase_seconds") if isinstance(result.metadata, dict) else None
    if not per_rank:
        return sum(result.phase_seconds.get(p, 0.0) for p in _SERIAL_PHASES)
    return sum(phases.get(p, 0.0) for phases in per_rank for p in _SERIAL_PHASES)


def _communication_seconds(result: SBPResult, params: RuntimeModelParams) -> float:
    stats = result.comm_stats
    if stats is None or result.num_ranks <= 1:
        return 0.0
    hops = max(math.ceil(math.log2(max(result.num_ranks, 2))), 1)
    total_calls = stats.total_calls
    # comm_stats aggregates all ranks; a collective involves every rank, so the
    # number of distinct collective operations is calls / ranks.
    operations = total_calls / max(result.num_ranks, 1)
    latency = operations * hops * params.alpha
    # Bytes are summed over ranks; the bisection traffic per operation is the
    # per-rank payload, so divide by the rank count as well.
    volume = (stats.total_bytes_sent + stats.total_bytes_received) / 2.0
    bandwidth_time = (volume / max(result.num_ranks, 1)) / params.bandwidth
    return latency + bandwidth_time


def modeled_runtime(result: SBPResult, params: Optional[RuntimeModelParams] = None) -> float:
    """Modelled cluster runtime (seconds) for one run.

    ``max(per-rank compute) / intra_node_speedup + serial stages + comm``.
    """
    params = params or RuntimeModelParams()
    compute = max(_per_rank_compute_seconds(result)) / max(params.intra_node_speedup, 1e-9)
    serial = _serial_seconds(result)
    comm = _communication_seconds(result, params)
    return compute + serial + comm


def speedup_series(
    results: Sequence[SBPResult],
    baseline: Optional[SBPResult] = None,
    params: Optional[RuntimeModelParams] = None,
) -> List[Dict[str, object]]:
    """Build a strong-scaling table: modelled runtime and speedup per run.

    ``baseline`` defaults to the first result (usually the 1-rank run); the
    speedups reported are relative to its modelled runtime.
    """
    params = params or RuntimeModelParams()
    results = list(results)
    if not results:
        return []
    base = baseline or results[0]
    base_time = modeled_runtime(base, params)
    rows: List[Dict[str, object]] = []
    for result in results:
        modeled = modeled_runtime(result, params)
        rows.append(
            {
                "graph": result.graph.name,
                "algorithm": result.algorithm,
                "num_ranks": result.num_ranks,
                "num_nodes": max(result.num_ranks // max(params.tasks_per_node, 1), 1),
                "measured_seconds": result.runtime_seconds,
                "modeled_seconds": modeled,
                "speedup_vs_baseline": base_time / modeled if modeled > 0 else float("nan"),
            }
        )
    return rows
