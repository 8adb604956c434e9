"""The block-merge phase (paper Alg. 1 and the distributed Alg. 4).

Each block proposes ``x`` candidate merge targets, keeps the one with the
best (most negative) ΔDL, and then the globally best proposals are applied —
chasing merge pointers so that merging into an already-merged block lands in
its final destination (the paper's optimisation (d)) — until the requested
number of merges has been performed (by default half of the blocks, Alg. 1
line 15).

The same proposal code serves the sequential algorithm (every block is
proposed locally) and EDiSt (each rank proposes only for the blocks it owns
and the proposals are exchanged with an all-gather before being applied by
every rank identically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel, resolve_merge_chain
from repro.blockmodel.deltas import delta_dl_for_merges
from repro.core.config import SBPConfig
from repro.utils.rng import BatchedDrawRNG

__all__ = [
    "MergeProposal",
    "propose_merges",
    "best_segmented_merges",
    "select_and_apply_merges",
    "block_merge_phase",
]


@dataclass(frozen=True)
class MergeProposal:
    """The best merge found for one block."""

    block: int
    target: int
    delta_dl: float


def _propose_merge_target(
    blockmodel: Blockmodel,
    block: int,
    rng,
    cumsum_cache: Optional[dict] = None,
) -> int:
    """Propose a candidate block to merge ``block`` into.

    Mirrors the vertex proposal: pick a block adjacent to ``block`` (call it
    ``t``); with probability ``B / (d_t + B)`` jump to a uniformly random
    other block, otherwise follow one of ``t``'s edges.  Falls back to a
    uniform random other block whenever the walk lands back on ``block`` or
    on an empty neighbourhood.  ``rng`` is a
    :class:`numpy.random.Generator` or a
    :class:`~repro.utils.rng.BatchedDrawRNG` serving bit-identical draws
    from bulk prefetches.  ``cumsum_cache`` is forwarded to
    :meth:`Blockmodel.sample_neighbor_block` (it memoizes the per-block
    cumulative sums across the phase's many proposals).
    """
    num_blocks = blockmodel.num_blocks
    if num_blocks <= 1:
        return block

    def random_other() -> int:
        offset = int(rng.integers(1, num_blocks))
        return (block + offset) % num_blocks

    t = blockmodel.sample_neighbor_block(block, rng, cumsum_cache)
    if t < 0:
        return random_other()
    d_t = int(blockmodel.block_out_degrees[t]) + int(blockmodel.block_in_degrees[t])
    if rng.random() < num_blocks / (d_t + num_blocks):
        return random_other()
    s = blockmodel.sample_neighbor_block(t, rng, cumsum_cache)
    if s < 0 or s == block:
        return random_other()
    return int(s)


def best_segmented_merges(
    blockmodel: Blockmodel,
    segments: Sequence[tuple],
    targets: Sequence[int],
) -> List[tuple]:
    """Score segmented merge candidates in one batch, keep each segment's best.

    ``segments`` is a list of ``(block, start, end)`` half-open ranges tiling
    ``targets`` in order: segment ``k`` proposes merging ``block`` into each
    of ``targets[start:end]``.  All candidates are scored with one
    :func:`delta_dl_for_merges` call; per segment the first minimum wins
    (``np.argmin`` keeps the first of equal minima, i.e. a strict ``<``
    update).  Returns ``(block, target, delta_dl)`` triples for every
    non-empty segment — used by :func:`propose_merges` and the DC-SBP
    combine step alike.
    """
    targets_arr = np.asarray(targets, dtype=np.int64)
    blocks_arr = np.asarray([seg[0] for seg in segments], dtype=np.int64)
    lengths = np.asarray([seg[2] - seg[1] for seg in segments], dtype=np.int64)
    from_blocks = np.repeat(blocks_arr, lengths)
    deltas = delta_dl_for_merges(blockmodel, from_blocks, targets_arr)
    best: List[tuple] = []
    for block, start, end in segments:
        if start == end:
            continue
        k = start + int(np.argmin(deltas[start:end]))
        best.append((block, int(targets_arr[k]), float(deltas[k])))
    return best


def propose_merges(
    blockmodel: Blockmodel,
    blocks: Iterable[int],
    config: SBPConfig,
    rng: np.random.Generator,
) -> List[MergeProposal]:
    """Best merge proposal for each of the given blocks (Alg. 1 lines 2-10).

    Empty blocks are skipped (nothing to merge).  The candidate targets are
    drawn first, per block and per proposal, and all of them are scored
    with one whole-batch :func:`delta_dl_for_merges` call through
    :func:`best_segmented_merges`, whose tie-breaking keeps the first of
    equal minima.

    The walk randoms are served from bulk bit-stream prefetches:
    :class:`~repro.utils.rng.BatchedDrawRNG` pulls thousands of raw words
    per ``random_raw`` call and replays NumPy's own word-to-value maps, so
    the drawn targets — and therefore the selections on the committed
    golden traces — stay bitwise identical to per-call ``Generator`` draws
    while eliminating the per-draw ``Generator`` dispatch overhead.
    """
    sizes = blockmodel.block_sizes
    cumsum_cache: dict = {}
    cand_targets: List[int] = []
    segments: List[tuple] = []  # (block, start, end) into cand_targets
    walk_rng = BatchedDrawRNG.wrap(rng)
    try:
        for block in blocks:
            block = int(block)
            if sizes[block] <= 0:
                continue
            start = len(cand_targets)
            for _ in range(config.merge_proposals_per_block):
                target = _propose_merge_target(blockmodel, block, walk_rng, cumsum_cache)
                if target == block:
                    continue
                cand_targets.append(target)
            segments.append((block, start, len(cand_targets)))
    finally:
        if isinstance(walk_rng, BatchedDrawRNG):
            walk_rng.sync()
    if not cand_targets:
        return []
    return [
        MergeProposal(block, target, delta)
        for block, target, delta in best_segmented_merges(blockmodel, segments, cand_targets)
    ]


def select_and_apply_merges(
    blockmodel: Blockmodel,
    proposals: Sequence[MergeProposal],
    num_merges: int,
) -> Blockmodel:
    """Apply the ``num_merges`` best proposals (Alg. 1 lines 11-15).

    Proposals are processed in ascending ΔDL order.  A pointer array tracks
    where each block has already been merged, so later proposals whose target
    has itself been merged follow the chain to the terminal block; proposals
    that would merge a block into itself (directly or through the chain) are
    skipped without counting towards ``num_merges``.
    """
    num_blocks = blockmodel.num_blocks
    merge_target = np.arange(num_blocks, dtype=np.int64)
    if num_merges <= 0 or not proposals:
        return blockmodel.copy()

    performed = 0
    # Ties are broken on (block, target) so that every EDiSt rank applies the
    # proposals in exactly the same order and the replicated blockmodels stay
    # bit-identical.
    for proposal in sorted(proposals, key=lambda p: (p.delta_dl, p.block, p.target)):
        if performed >= num_merges:
            break
        block = int(proposal.block)
        target = int(proposal.target)
        # Chase pointers for both endpoints.
        while merge_target[block] != block:
            block = int(merge_target[block])
        while merge_target[target] != target:
            target = int(merge_target[target])
        if block == target:
            continue
        merge_target[int(proposal.block)] = target
        merge_target[block] = target
        performed += 1

    resolved = resolve_merge_chain(merge_target)
    return blockmodel.apply_block_merges(resolved)


def block_merge_phase(
    blockmodel: Blockmodel,
    num_merges: int,
    config: SBPConfig,
    rng: np.random.Generator,
    blocks: Optional[Iterable[int]] = None,
) -> Blockmodel:
    """One complete (sequential) block-merge phase.

    Parameters
    ----------
    num_merges:
        How many blocks to remove; the SBP driver passes
        ``round(B * block_reduction_rate)`` for the standard halving.
    blocks:
        Restrict proposals to this subset of blocks (used by tests); by
        default every non-empty block proposes a merge.
    """
    if blocks is None:
        blocks = range(blockmodel.num_blocks)
    proposals = propose_merges(blockmodel, blocks, config, rng)
    return select_and_apply_merges(blockmodel, proposals, num_merges)
