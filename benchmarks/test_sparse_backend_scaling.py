"""Scaling benchmark: ``dense`` vs true-sparse ``sparse_csr`` storage.

For a grid of block counts, times the two vectorized hot paths — the
batched merge-proposal phase and the batch-Gibbs MCMC sweep — and records
each backend's peak traced allocation (``tracemalloc``), demonstrating the
dense backend's O(B²) memory growth against the sparse backend's
O(nnz + B).  A final sparse-only row runs the merge phase at a block count
**beyond** ``MAX_DENSE_BLOCKS``, the regime the dense backend cannot enter
at all.

Results land in ``results/sparse_backend_scaling.{csv,json}``.  In smoke
mode (``REPRO_BENCH_MODE=smoke``, used by CI) the grid shrinks to one block
count plus the beyond-limit row so the sparse path is exercised on every
push without hours of runtime.
"""

import time
import tracemalloc

import numpy as np
from bench_utils import run_once

from repro.blockmodel.blockmodel import Blockmodel
from repro.blockmodel.dense_matrix import MAX_DENSE_BLOCKS
from repro.core.config import SBPConfig
from repro.core.hybrid_mcmc import batch_gibbs_sweep
from repro.core.merges import block_merge_phase
from repro.graphs.generators.degree import DegreeSequenceSpec
from repro.graphs.generators.sbm import DCSBMSpec, generate_dcsbm_graph
from repro.graphs.graph import Graph

NUM_VERTICES = 4096
#: Brackets ``DENSE_BLOCK_LIMIT`` (1024): the ``"auto"`` policy's switch point.
BLOCK_COUNTS = (256, 1024, 2048, 4096)
SMOKE_BLOCK_COUNTS = (512,)
#: Block count of the sparse-only row (beyond the dense backend's ceiling).
BEYOND_LIMIT_BLOCKS = MAX_DENSE_BLOCKS + 232


def _bench_graph() -> Graph:
    spec = DCSBMSpec(
        num_vertices=NUM_VERTICES,
        num_communities=8,
        degree_spec=DegreeSequenceSpec(exponent=3.0, min_degree=5, max_degree=40, duplicate=True),
        intra_inter_ratio=3.0,
        block_size_alpha=5.0,
        name="sparse-scaling-4k",
    )
    return generate_dcsbm_graph(spec, seed=11)


def _ring_graph(num_vertices: int) -> Graph:
    edges = [(v, (v + 1) % num_vertices) for v in range(num_vertices)]
    return Graph.from_edges(num_vertices, edges, name=f"ring-{num_vertices}")


def _measure(graph: Graph, num_blocks: int, backend: str, config: SBPConfig) -> dict:
    """Merge-phase and sweep seconds plus peak traced bytes for one backend."""
    vertices = np.arange(graph.num_vertices)
    num_merges = max(num_blocks // 4, 1)
    tracemalloc.start()
    try:
        blockmodel = Blockmodel.from_graph(graph, num_blocks=num_blocks, matrix_backend=backend)
        start = time.perf_counter()
        block_merge_phase(blockmodel, num_merges, config, np.random.default_rng(7))
        merge_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batch_gibbs_sweep(blockmodel, vertices, config, np.random.default_rng(7))
        sweep_seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "merge_seconds": merge_seconds,
        "sweep_seconds": sweep_seconds,
        "peak_mb": peak / 1e6,
    }


def run_sparse_backend_scaling(settings) -> list:
    config = SBPConfig.fast(seed=0).with_overrides(mcmc_variant="batch_gibbs")
    block_counts = SMOKE_BLOCK_COUNTS if settings.mode == "smoke" else BLOCK_COUNTS
    graph = _bench_graph()
    rows = []
    for num_blocks in block_counts:
        dense = _measure(graph, num_blocks, "dense", config)
        sparse = _measure(graph, num_blocks, "sparse_csr", config)
        rows.append(
            {
                "num_vertices": graph.num_vertices,
                "num_blocks": num_blocks,
                "dense_merge_ms": round(dense["merge_seconds"] * 1000, 2),
                "sparse_merge_ms": round(sparse["merge_seconds"] * 1000, 2),
                "dense_sweep_ms": round(dense["sweep_seconds"] * 1000, 2),
                "sparse_sweep_ms": round(sparse["sweep_seconds"] * 1000, 2),
                "dense_peak_mb": round(dense["peak_mb"], 2),
                "sparse_peak_mb": round(sparse["peak_mb"], 2),
            }
        )
    # The regime the dense backend cannot enter: B > MAX_DENSE_BLOCKS.
    big = _ring_graph(BEYOND_LIMIT_BLOCKS)
    beyond = _measure(big, BEYOND_LIMIT_BLOCKS, "sparse_csr", config)
    rows.append(
        {
            "num_vertices": big.num_vertices,
            "num_blocks": BEYOND_LIMIT_BLOCKS,
            "dense_merge_ms": None,  # dense backend rejects this block count
            "sparse_merge_ms": round(beyond["merge_seconds"] * 1000, 2),
            "dense_sweep_ms": None,
            "sparse_sweep_ms": round(beyond["sweep_seconds"] * 1000, 2),
            "dense_peak_mb": None,
            "sparse_peak_mb": round(beyond["peak_mb"], 2),
        }
    )
    return rows


def test_sparse_backend_scaling(benchmark, report, settings):
    rows = run_once(benchmark, run_sparse_backend_scaling, settings)
    report(
        rows,
        "sparse_backend_scaling",
        "sparse_csr vs dense: merge/sweep throughput and peak memory vs block count",
    )
    assert rows, "no measurements recorded"
    beyond = rows[-1]
    assert beyond["num_blocks"] > MAX_DENSE_BLOCKS
    assert beyond["sparse_merge_ms"] is not None and beyond["sparse_merge_ms"] > 0
    # The sparse backend's memory must stay far below a dense B×B allocation
    # (int64 at the beyond-limit block count would be ~8.7 GB).
    dense_equivalent_mb = BEYOND_LIMIT_BLOCKS * BEYOND_LIMIT_BLOCKS * 8 / 1e6
    assert beyond["sparse_peak_mb"] < dense_equivalent_mb / 8
    # At dense-representable block counts, the sparse backend must not pay
    # the dense quadratic memory bill: compare the largest measured grid B.
    largest = rows[-2]
    assert largest["sparse_peak_mb"] <= largest["dense_peak_mb"] * 2, (
        "sparse backend peak memory should not exceed the dense backend's "
        f"by 2x at B={largest['num_blocks']}: {largest}"
    )
