"""Microbenchmark: dense vs sparse_csr backend block-merge-phase throughput.

Times one complete block-merge phase (propose x candidates per block, score
them with one batched ``delta_dl_for_merges`` call, select and apply) on a
1k-vertex DCSBM graph at several block counts, all within the ``"auto"``
policy's dense range (``DENSE_BLOCK_LIMIT``).  Both backends must select
the same merges, and dense storage, which ``"auto"`` picks at these block
counts, must stay within 2× of ``sparse_csr`` (measured: 0.75–1.05×;
``"auto"`` picks dense for the MCMC sweeps, which dominate a run).  Results
land in ``results/merge_throughput.{csv,json}``.
"""

import time

import numpy as np
from bench_utils import run_once

from repro.blockmodel.blockmodel import Blockmodel
from repro.core.config import SBPConfig
from repro.core.merges import block_merge_phase
from repro.graphs.generators.degree import DegreeSequenceSpec
from repro.graphs.generators.sbm import DCSBMSpec, generate_dcsbm_graph

NUM_VERTICES = 1000
BLOCK_COUNTS = (64, 256, 1000)


def _merge_phase_seconds(graph, num_blocks: int, backend: str, config: SBPConfig):
    """Best-of-3 seconds per block-merge phase for one backend, plus the
    merged blockmodel of the last repeat.

    Min-of-repeats timing so transient machine load can't skew the
    measured speedup (the assertion below gates the tier-1 run).
    """
    best = float("inf")
    for _ in range(3):
        blockmodel = Blockmodel.from_graph(graph, num_blocks=num_blocks, matrix_backend=backend)
        rng = np.random.default_rng(123)
        start = time.perf_counter()
        merged = block_merge_phase(blockmodel, num_blocks // 2, config, rng)
        best = min(best, time.perf_counter() - start)
    return best, merged


def run_merge_throughput():
    spec = DCSBMSpec(
        num_vertices=NUM_VERTICES,
        num_communities=8,
        degree_spec=DegreeSequenceSpec(exponent=3.0, min_degree=5, max_degree=40, duplicate=True),
        intra_inter_ratio=3.0,
        block_size_alpha=5.0,
        name="merge-bench-1k",
    )
    graph = generate_dcsbm_graph(spec, seed=11)
    config = SBPConfig(seed=0)
    rows = []
    for num_blocks in BLOCK_COUNTS:
        dense_seconds, dense_merged = _merge_phase_seconds(graph, num_blocks, "dense", config)
        sparse_seconds, sparse_merged = _merge_phase_seconds(graph, num_blocks, "sparse_csr", config)
        assert np.array_equal(dense_merged.assignment, sparse_merged.assignment)
        rows.append(
            {
                "num_vertices": NUM_VERTICES,
                "num_blocks": num_blocks,
                "merge_proposals_per_block": config.merge_proposals_per_block,
                "dense_ms_per_phase": round(dense_seconds * 1000, 2),
                "sparse_ms_per_phase": round(sparse_seconds * 1000, 2),
                "dense_phases_per_s": round(1.0 / dense_seconds, 2),
                "sparse_phases_per_s": round(1.0 / sparse_seconds, 2),
                "speedup": round(sparse_seconds / dense_seconds, 2),
            }
        )
    return rows


def test_merge_throughput(benchmark, report):
    rows = run_once(benchmark, run_merge_throughput)
    report(rows, "merge_throughput", "dense vs sparse_csr backend: block-merge phase throughput (1k vertices)")
    assert len(rows) == len(BLOCK_COUNTS)
    worst_speedup = min(r["speedup"] for r in rows)
    # Inside the "auto" policy's dense range, dense must not be a cliff.
    assert worst_speedup >= 0.5, f"dense merge phase {worst_speedup}x of sparse_csr, below the 0.5x bar"
