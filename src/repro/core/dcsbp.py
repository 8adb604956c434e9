"""Divide-and-conquer distributed SBP (DC-SBP) — paper Alg. 3.

This is the baseline the paper compares EDiSt against (Uppal, Swope & Huang,
HPEC 2017):

1. vertices are dealt round-robin to the MPI ranks; each rank keeps only the
   edges internal to its share (crossing edges are dropped, which is what
   creates *island vertices* on sparse graphs);
2. every rank runs full SBP on its disconnected subgraph independently;
3. the per-rank partial results are gathered on the root rank and combined
   pairwise — every community of the second partial result is merged into
   the best community of the first by ΔDL — halving the number of partial
   results until at most ``dcsbp_combine_threshold`` (4) remain;
4. the survivors are merged into a single partition of the whole graph, and
   the root rank fine-tunes it by continuing SBP on the full graph.

The fine-tuning and combination run on the root alone, which is the serial
bottleneck the paper highlights; the per-rank subgraph runs and the
combination/fine-tuning are timed separately so the harness's runtime model
can expose it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel, resolve_merge_chain
from repro.core.config import SBPConfig
from repro.core.context import RunContext
from repro.core.merges import best_segmented_merges
from repro.core.results import SBPResult
from repro.core.sbp import stochastic_block_partition
from repro.graphs.graph import Graph
from repro.graphs.partition_ops import extract_subgraph, round_robin_assignment
from repro.mpi.communicator import Communicator
from repro.mpi.launcher import run_distributed
from repro.mpi.stats import CommStats
from repro.utils.rng import RngRegistry
from repro.utils.timing import PhaseTimer, Timer

__all__ = ["PartialResult", "merge_partial_pair", "dcsbp_rank_program", "divide_and_conquer_sbp"]


@dataclass
class PartialResult:
    """A community assignment covering a subset of the graph's vertices.

    ``vertices`` holds global vertex ids; ``assignment[i]`` is the community
    (local labels ``0..num_communities-1``) of ``vertices[i]``.
    """

    vertices: np.ndarray
    assignment: np.ndarray
    #: Wall-clock seconds the owning rank spent producing this result.
    subgraph_seconds: float = 0.0
    #: Number of island (edge-less) vertices in the owning rank's subgraph.
    num_island_vertices: int = 0

    @property
    def num_communities(self) -> int:
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.int64)
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.vertices.shape != self.assignment.shape:
            raise ValueError("vertices and assignment must have the same length")


def merge_partial_pair(
    graph: Graph,
    first: PartialResult,
    second: PartialResult,
    config: SBPConfig,
    rng: Optional[np.random.Generator] = None,
) -> PartialResult:
    """Merge the communities of ``second`` into those of ``first`` (Alg. 3, lines 14-21).

    A blockmodel is built over the union of the two vertex sets (using only
    the edges internal to that union) with the two results' communities given
    disjoint label ranges.  Every community from ``second`` is then merged
    into the ``first`` community that gives the best ΔDL.  When
    ``config.dcsbp_merge_candidates`` is set, only that many randomly chosen
    candidate targets are evaluated per community (a speed/quality knob the
    original implementation exposes through its sampling of merge targets).

    The combine blockmodel uses ``config.matrix_backend``; every
    community's candidate targets are scored in one batched
    :func:`delta_dl_for_merges` call.
    """
    union = np.concatenate([first.vertices, second.vertices])
    offset = first.num_communities
    labels = np.concatenate([first.assignment, second.assignment + offset])
    order = np.argsort(union, kind="stable")
    union_sorted = union[order]
    labels_sorted = labels[order]

    # Build the induced subgraph over the union and the matching local labels.
    owner = np.zeros(graph.num_vertices, dtype=np.int64)
    owner[union_sorted] = 1
    part = extract_subgraph(graph, owner, 1)
    local_labels = np.empty(part.subgraph.num_vertices, dtype=np.int64)
    local_labels[part.global_to_local[union_sorted]] = labels_sorted

    num_blocks = offset + second.num_communities
    blockmodel = Blockmodel.from_assignment(
        part.subgraph, local_labels, num_blocks=num_blocks, matrix_backend=config.matrix_backend
    )

    first_blocks = np.arange(offset, dtype=np.int64)
    merge_target = np.arange(num_blocks, dtype=np.int64)
    pair_targets: List[int] = []
    pair_segments: List[tuple] = []  # (block, start, end) into pair_targets
    for block in range(offset, num_blocks):
        if blockmodel.block_sizes[block] <= 0:
            continue
        candidates = first_blocks
        if config.dcsbp_merge_candidates is not None and rng is not None and first_blocks.size > config.dcsbp_merge_candidates:
            candidates = rng.choice(first_blocks, size=config.dcsbp_merge_candidates, replace=False)
        kept = [
            int(target)
            for target in candidates
            if not (blockmodel.block_sizes[int(target)] <= 0 and first_blocks.size > 1)
        ]
        start = len(pair_targets)
        pair_targets.extend(kept)
        pair_segments.append((block, start, len(pair_targets)))
    if pair_targets:
        for block, target, _delta in best_segmented_merges(blockmodel, pair_segments, pair_targets):
            merge_target[block] = target

    resolved = resolve_merge_chain(merge_target)
    merged_labels = resolved[local_labels]
    # Compact the surviving labels.
    _, merged_labels = np.unique(merged_labels, return_inverse=True)

    combined_vertices = part.local_to_global
    return PartialResult(
        vertices=combined_vertices,
        assignment=merged_labels.astype(np.int64),
        subgraph_seconds=first.subgraph_seconds + second.subgraph_seconds,
        num_island_vertices=first.num_island_vertices + second.num_island_vertices,
    )


def dcsbp_rank_program(
    comm: Communicator,
    graph: Graph,
    config: SBPConfig,
    run_context: Optional[RunContext] = None,
) -> Optional[dict]:
    """The per-rank DC-SBP program (paper Alg. 3).

    Every rank partitions its round-robin subgraph; the root combines the
    partial results, fine-tunes, and broadcasts the final assignment.  The
    return value (a dict of result pieces) is identical on every rank.

    Observer events fire from the root rank's fine-tuning stage only (whose
    history becomes the result's history); the per-rank subgraph runs share
    the context's stop state, so a cancellation or timeout winds down every
    worker, but they stay event-silent.
    """
    timers = PhaseTimer()
    root_ctx = run_context or RunContext()
    event_ctx = root_ctx if comm.rank == 0 else root_ctx.silent()
    rngs = RngRegistry(config.seed).child("dcsbp", comm.rank)

    # Line 1-3: independent SBP on the rank's round-robin subgraph.
    owner = round_robin_assignment(graph.num_vertices, comm.size)
    part = extract_subgraph(graph, owner, comm.rank)
    with timers.measure("subgraph_sbp"):
        sub_result = stochastic_block_partition(
            part.subgraph,
            config.with_seed(rngs.seed_for("subgraph")),
            algorithm_label="dcsbp-subgraph",
            run_context=root_ctx.silent(),
        )
    partial = PartialResult(
        vertices=part.local_to_global,
        assignment=sub_result.assignment.copy(),
        subgraph_seconds=timers.elapsed("subgraph_sbp"),
        num_island_vertices=part.num_island_vertices,
    )

    # Lines 5-13: ship partial results to the root.
    if comm.size > 1:
        if comm.rank == 0:
            partials: List[PartialResult] = [partial]
            for source in range(1, comm.size):
                partials.append(comm.recv(source=source, tag=1))
        else:
            comm.send(partial, dest=0, tag=1)
            partials = []
    else:
        partials = [partial]

    final_assignment: Optional[np.ndarray] = None
    finetune_cycles = 0
    finetune_history: list = []
    if comm.rank == 0:
        merge_rng = rngs.get("combine")
        # Lines 14-21: pairwise combination until at most the threshold remain.
        with timers.measure("combine"):
            while len(partials) > config.dcsbp_combine_threshold:
                next_round: List[PartialResult] = []
                for i in range(0, len(partials), 2):
                    if i + 1 < len(partials):
                        next_round.append(merge_partial_pair(graph, partials[i], partials[i + 1], config, merge_rng))
                    else:
                        next_round.append(partials[i])
                partials = next_round
            # Line 22: merge the survivors into one whole-graph partition.
            combined = partials[0]
            for other in partials[1:]:
                combined = merge_partial_pair(graph, combined, other, config, merge_rng)
            full_assignment = np.zeros(graph.num_vertices, dtype=np.int64)
            full_assignment[combined.vertices] = combined.assignment

        # Line 23: fine-tune on the whole graph, starting from the combination.
        with timers.measure("finetune"):
            initial = Blockmodel.from_assignment(
                graph, full_assignment, relabel=True, matrix_backend=config.matrix_backend
            )
            fine = stochastic_block_partition(
                graph,
                config.with_seed(rngs.seed_for("finetune")),
                initial_blockmodel=initial,
                algorithm_label="dcsbp-finetune",
                run_context=event_ctx,
            )
        final_assignment = fine.assignment
        finetune_cycles = fine.metadata.get("cycles", 0)
        finetune_history = fine.history

    if comm.size > 1:
        final_assignment = comm.bcast(final_assignment, root=0)
        island_total = comm.allreduce(partial.num_island_vertices)
    else:
        island_total = partial.num_island_vertices

    return {
        "assignment": final_assignment,
        "phase_seconds": timers.as_dict(),
        "phase_cpu_seconds": timers.cpu_dict(),
        "num_island_vertices": island_total,
        "finetune_cycles": finetune_cycles,
        "history": finetune_history,
        "stopped": root_ctx.stop_reason,
        "rank": comm.rank,
    }


def divide_and_conquer_sbp(
    graph: Graph,
    num_ranks: int,
    config: Optional[SBPConfig] = None,
    run_context: Optional[RunContext] = None,
) -> SBPResult:
    """Run DC-SBP over ``num_ranks`` simulated MPI ranks and collect the result."""
    config = config or SBPConfig()
    total = Timer()
    total.start()
    run = run_distributed(
        num_ranks, dcsbp_rank_program, graph, config,
        run_context=run_context, transport=config.transport,
    )
    total.stop()

    root = run.results[0]
    blockmodel = Blockmodel.from_assignment(
        graph, root["assignment"], relabel=True, matrix_backend=config.matrix_backend
    )

    per_rank_phases = [r["phase_seconds"] for r in run.results]
    phase_totals: dict = {}
    for phases in per_rank_phases:
        for name, secs in phases.items():
            phase_totals[name] = phase_totals.get(name, 0.0) + secs

    return SBPResult(
        graph=graph,
        blockmodel=blockmodel,
        description_length=blockmodel.description_length(),
        algorithm="dcsbp",
        num_ranks=num_ranks,
        runtime_seconds=total.elapsed,
        phase_seconds=phase_totals,
        history=root["history"],
        comm_stats=CommStats.aggregate(run.comm_stats),
        metadata={
            "per_rank_phase_seconds": per_rank_phases,
            "per_rank_phase_cpu_seconds": [r["phase_cpu_seconds"] for r in run.results],
            "num_island_vertices": root["num_island_vertices"],
            "island_fraction": root["num_island_vertices"] / max(graph.num_vertices, 1),
            "finetune_cycles": root["finetune_cycles"],
            **({"stopped": root["stopped"]} if root.get("stopped") else {}),
        },
    )
