"""EDiSt — exact distributed stochastic block partitioning (the paper's contribution).

Every rank holds the *whole* graph and a full replica of the blockmodel
(data duplication, Table I).  Work is divided by ownership:

* **Block-merge phase (Alg. 4)** — rank ``r`` proposes merges only for the
  communities ``c`` with ``c mod N == r``; the per-community best proposals
  are exchanged with an all-gather and every rank applies the same globally
  best merges, keeping the replicas identical.
* **MCMC phase (Alg. 5)** — vertices are dealt to ranks with the
  degree-sorted balanced assignment of Section III-B; each rank sweeps its
  own vertices (updating its local replica as it goes), then the accepted
  moves are exchanged with an all-gather and each rank applies the other
  ranks' moves.  The phase repeats until the change in description length
  falls below the threshold, evaluated identically on every rank.

Because every rank applies the same merges and the same final set of vertex
moves, the replicated blockmodels remain identical at every synchronisation
point, and the golden-ratio search (run redundantly on every rank) makes the
same decisions everywhere — no additional control-flow communication is
needed.  The cost is the periodic all-gather traffic and the duplicated
memory, which is the trade-off the paper analyses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel
from repro.core.config import SBPConfig
from repro.core.context import RunContext
from repro.core.golden_ratio import GoldenRatioSearch
from repro.core.mcmc import make_sweep_fn
from repro.core.merges import MergeProposal, propose_merges, select_and_apply_merges
from repro.core.results import IterationRecord, SBPResult
from repro.graphs.graph import Graph
from repro.graphs.partition_ops import degree_balanced_assignment
from repro.mpi.communicator import Communicator
from repro.mpi.launcher import run_distributed
from repro.mpi.stats import CommStats
from repro.utils.rng import RngRegistry
from repro.utils.timing import PhaseTimer, Timer

__all__ = ["distributed_block_merge", "distributed_mcmc_phase", "edist_rank_program", "edist"]

#: Safety cap on outer cycles (same role as in the sequential driver).
MAX_CYCLES = 200


def owned_blocks(num_blocks: int, rank: int, size: int) -> np.ndarray:
    """Alg. 4 line 4: rank ``r`` owns the communities ``c`` with ``c mod N == r``."""
    return np.arange(rank, num_blocks, size, dtype=np.int64)


def distributed_block_merge(
    comm: Communicator,
    blockmodel: Blockmodel,
    num_merges: int,
    config: SBPConfig,
    rng: np.random.Generator,
    timers: Optional[PhaseTimer] = None,
    run_context: Optional[RunContext] = None,
    cycle: int = 0,
) -> Blockmodel:
    """One distributed block-merge phase (Alg. 4).

    Proposals are computed for the locally owned communities only, exchanged
    via all-gather, and the same merges are applied on every rank.
    """
    timers = timers or PhaseTimer()
    ctx = run_context or RunContext()
    with timers.measure("block_merge_compute"):
        local = propose_merges(blockmodel, owned_blocks(blockmodel.num_blocks, comm.rank, comm.size), config, rng)
    with timers.measure("communication"):
        gathered: List[List[MergeProposal]] = comm.allgather(local)
    with timers.measure("block_merge_apply"):
        all_proposals = [p for rank_proposals in gathered for p in rank_proposals]
        merged = select_and_apply_merges(blockmodel, all_proposals, num_merges)
    ctx.emit_merge_phase(
        cycle=cycle,
        num_blocks_before=blockmodel.num_blocks,
        num_blocks_after=merged.num_blocks,
        num_merges_requested=num_merges,
    )
    return merged


def distributed_mcmc_phase(
    comm: Communicator,
    blockmodel: Blockmodel,
    config: SBPConfig,
    rng: np.random.Generator,
    vertex_owner: np.ndarray,
    timers: Optional[PhaseTimer] = None,
    run_context: Optional[RunContext] = None,
    lifecycle_sync: Optional[bool] = None,
) -> Tuple[Blockmodel, float, int, int]:
    """One distributed MCMC phase (Alg. 5).

    Returns ``(blockmodel, description_length, sweeps, accepted_moves)``.
    The blockmodel is mutated in place (it is this rank's replica).

    With ``lifecycle_sync`` (a live run context: observers, timeout, or a
    controlling handle), stop decisions are evaluated by rank 0 only and
    piggybacked on the per-sweep description-length broadcast, and global
    proposal counts ride along on the move all-gather — so every replica
    leaves the loop at the same sweep and sweep events carry globally
    consistent (accepted, proposed) pairs.  Without it, the communication
    profile is exactly the bare algorithm's, so benchmark runs measure the
    paper's traffic, not the plumbing's.
    """
    timers = timers or PhaseTimer()
    ctx = run_context or RunContext()
    if lifecycle_sync is None:
        lifecycle_sync = ctx.live
    sweep_fn = make_sweep_fn(config)
    my_vertices = np.flatnonzero(vertex_owner == comm.rank)

    current_dl = blockmodel.description_length()
    total_accepted = 0
    sweeps = 0
    for _ in range(config.max_mcmc_iterations):
        sweeps += 1
        with timers.measure("mcmc_compute"):
            sweep = sweep_fn(blockmodel, my_vertices, config, rng)
        with timers.measure("communication"):
            outbound = (sweep.moves, sweep.proposed_moves) if lifecycle_sync else sweep.moves
            gathered = comm.allgather(outbound)
        with timers.measure("mcmc_apply"):
            accepted_this_iteration = 0
            proposed_this_iteration = 0
            remote_moves: List[tuple] = []
            for source_rank, entry in enumerate(gathered):
                moves, proposed = entry if lifecycle_sync else (entry, 0)
                accepted_this_iteration += len(moves)
                proposed_this_iteration += int(proposed)
                if source_rank != comm.rank:  # own moves were applied during the sweep
                    remote_moves.extend(moves)
            # Alg. 5 line 18: moves already in effect change nothing.
            if remote_moves:
                vertices, blocks = zip(*remote_moves)
                blockmodel.apply_moves(vertices, blocks)
            total_accepted += accepted_this_iteration
        # Alg. 5 line 22 recomputes the MDL on every rank; all replicas are
        # identical at this point, so in the *simulated* (single-process)
        # communicator that redundant work would be serialised by the GIL.
        # Rank 0 computes it and broadcasts the scalar instead — the result
        # is bit-identical and the added broadcast is negligible traffic.
        with timers.measure("mcmc_compute"):
            if comm.rank == 0 or comm.size == 1:
                stop = ctx.should_stop() if lifecycle_sync else False
                payload = (blockmodel.description_length(), stop) if lifecycle_sync else blockmodel.description_length()
            else:
                payload = None
        if comm.size > 1:
            with timers.measure("communication"):
                payload = comm.bcast(payload, root=0)
        new_dl, stop = payload if lifecycle_sync else (payload, False)
        delta = new_dl - current_dl
        current_dl = new_dl
        ctx.emit_mcmc_sweep(
            sweep=sweeps,
            accepted_moves=accepted_this_iteration,
            proposed_moves=proposed_this_iteration,
            delta_dl=delta,
        )
        if stop or abs(delta) < config.mcmc_convergence_threshold * abs(current_dl):
            break
    return blockmodel, current_dl, sweeps, total_accepted


def edist_rank_program(
    comm: Communicator,
    graph: Graph,
    config: SBPConfig,
    run_context: Optional[RunContext] = None,
    lifecycle_sync: Optional[bool] = None,
) -> dict:
    """The per-rank EDiSt program: the full agglomerative loop of Fig. 1.

    Control flow (golden-ratio search) is replicated deterministically on
    every rank; only merge proposals and accepted vertex moves are
    communicated.  The shared :class:`RunContext` follows the same
    discipline: only rank 0 emits observer events, and — on lifecycle-active
    runs (``lifecycle_sync``, decided once at launch so every rank gates the
    same collectives) — the per-cycle stop decision (cancellation / timeout)
    is broadcast from rank 0 so that every replica leaves the loop at the
    same cycle.
    """
    timers = PhaseTimer()
    root_ctx = run_context or RunContext()
    if lifecycle_sync is None:
        lifecycle_sync = root_ctx.live
    ctx = root_ctx if comm.rank == 0 else root_ctx.silent()
    rngs = RngRegistry(config.seed).child("edist", comm.rank)
    vertex_owner = degree_balanced_assignment(graph, comm.size)

    current = Blockmodel.from_graph(graph, matrix_backend=config.matrix_backend)
    search = GoldenRatioSearch(config.block_reduction_rate, config.min_blocks, run_context=ctx)
    num_to_merge = max(int(round(current.num_blocks * config.block_reduction_rate)), 0)
    history: List[IterationRecord] = []

    cycle = 0
    while cycle < MAX_CYCLES:
        cycle += 1
        merged = distributed_block_merge(
            comm, current, num_to_merge, config, rngs.get("merge", cycle), timers,
            run_context=ctx, cycle=cycle,
        )
        merged, dl, sweeps, accepted = distributed_mcmc_phase(
            comm, merged, config, rngs.get("mcmc", cycle), vertex_owner, timers,
            run_context=ctx, lifecycle_sync=lifecycle_sync,
        )
        if config.validate:
            merged.check_consistency()
            # All replicas must agree after the synchronisation points.
            digests = comm.allgather(int(np.bitwise_xor.reduce(merged.assignment * 2654435761 % (2**31))))
            if len(set(digests)) != 1:
                raise AssertionError("EDiSt replicas diverged")
        if config.track_history:
            history.append(
                IterationRecord(
                    iteration=cycle,
                    num_blocks=merged.num_blocks,
                    description_length=dl,
                    mcmc_sweeps=sweeps,
                    accepted_moves=accepted,
                )
            )
        decision = search.update(merged, dl)
        ctx.emit_cycle(
            cycle=cycle,
            num_blocks=merged.num_blocks,
            description_length=dl,
            mcmc_sweeps=sweeps,
            accepted_moves=accepted,
            blockmodel=merged,
        )
        # The stop decision must be identical on every replica even though
        # observers (and hence cancellations) live on rank 0 and the timeout
        # clock may be read at slightly different moments per rank: rank 0
        # decides and broadcasts.  Lifecycle-inactive runs skip the exchange
        # — should_stop is constant False there — keeping the bare
        # algorithm's communication profile.
        stop = False
        if lifecycle_sync:
            stop = ctx.should_stop() if comm.rank == 0 else None
            if comm.size > 1:
                stop = comm.bcast(stop, root=0)
        if decision.done or stop:
            break
        current = decision.start.copy()
        num_to_merge = decision.num_blocks_to_merge

    best = search.best()
    return {
        "assignment": best.blockmodel.assignment.copy(),
        "description_length": best.description_length,
        "phase_seconds": timers.as_dict(),
        "phase_cpu_seconds": timers.cpu_dict(),
        "history": history,
        "cycles": cycle,
        "stopped": root_ctx.stop_reason,
        "rank": comm.rank,
    }


def edist(
    graph: Graph,
    num_ranks: int,
    config: Optional[SBPConfig] = None,
    run_context: Optional[RunContext] = None,
) -> SBPResult:
    """Run EDiSt over ``num_ranks`` simulated MPI ranks and collect the result."""
    config = config or SBPConfig()
    total = Timer()
    total.start()
    # Liveness is captured once, before any rank thread starts, so every
    # replica gates the lifecycle collectives identically even if a cancel
    # races the launch.
    lifecycle_sync = run_context.live if run_context is not None else False
    run = run_distributed(
        num_ranks, edist_rank_program, graph, config,
        run_context=run_context, lifecycle_sync=lifecycle_sync,
        transport=config.transport,
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
        algorithm="edist",
        num_ranks=num_ranks,
        runtime_seconds=total.elapsed,
        phase_seconds=phase_totals,
        history=root["history"],
        comm_stats=CommStats.aggregate(run.comm_stats),
        metadata={
            "per_rank_phase_seconds": per_rank_phases,
            "per_rank_phase_cpu_seconds": [r["phase_cpu_seconds"] for r in run.results],
            "cycles": root["cycles"],
            **({"stopped": root["stopped"]} if root.get("stopped") else {}),
        },
    )
