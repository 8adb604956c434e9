"""Microbenchmark: dense vs sparse_csr blockmodel backend sweep throughput.

Times the batch-Gibbs MCMC sweep on a 1k-vertex DCSBM graph at several block
counts, all within the ``"auto"`` policy's dense range
(``DENSE_BLOCK_LIMIT``), and reports the sweep throughput of both backends.
Both backends must end every timed run in the same state, and dense
storage, which ``"auto"`` picks at these block counts, must stay within 2×
of ``sparse_csr`` (measured: 1.0–1.15× faster; the default hybrid sweep,
whose sequential high-degree pass reads single entries, runs 2–4× faster
on dense storage).
"""

import time

import numpy as np
from bench_utils import run_once

from repro.blockmodel.blockmodel import Blockmodel
from repro.core.config import SBPConfig
from repro.core.hybrid_mcmc import batch_gibbs_sweep
from repro.graphs.generators.degree import DegreeSequenceSpec
from repro.graphs.generators.sbm import DCSBMSpec, generate_dcsbm_graph

NUM_VERTICES = 1000
BLOCK_COUNTS = (32, 128, 512)
SWEEPS = 3


def _sweep_seconds(graph, num_blocks: int, backend: str, config: SBPConfig):
    """Best-of-3 seconds per batch-Gibbs sweep for one backend, plus the
    blockmodel the last repeat ended in.

    Min-of-repeats timing so transient machine load can't skew the
    measured speedup (the assertion below gates the tier-1 run).
    """
    vertices = np.arange(graph.num_vertices)
    best = float("inf")
    for repeat in range(3):
        blockmodel = Blockmodel.from_graph(graph, num_blocks=num_blocks, matrix_backend=backend)
        rng = np.random.default_rng(123)
        start = time.perf_counter()
        for _ in range(SWEEPS):
            batch_gibbs_sweep(blockmodel, vertices, config, rng)
        best = min(best, (time.perf_counter() - start) / SWEEPS)
    return best, blockmodel


def run_backend_throughput():
    spec = DCSBMSpec(
        num_vertices=NUM_VERTICES,
        num_communities=8,
        degree_spec=DegreeSequenceSpec(exponent=3.0, min_degree=5, max_degree=40, duplicate=True),
        intra_inter_ratio=3.0,
        block_size_alpha=5.0,
        name="backend-bench-1k",
    )
    graph = generate_dcsbm_graph(spec, seed=11)
    config = SBPConfig(seed=0, mcmc_variant="batch_gibbs")
    rows = []
    for num_blocks in BLOCK_COUNTS:
        dense_seconds, dense_state = _sweep_seconds(graph, num_blocks, "dense", config)
        sparse_seconds, sparse_state = _sweep_seconds(graph, num_blocks, "sparse_csr", config)
        assert np.array_equal(dense_state.assignment, sparse_state.assignment)
        assert dense_state.matrix == sparse_state.matrix
        rows.append(
            {
                "num_vertices": NUM_VERTICES,
                "num_blocks": num_blocks,
                "dense_ms_per_sweep": round(dense_seconds * 1000, 2),
                "sparse_ms_per_sweep": round(sparse_seconds * 1000, 2),
                "dense_sweeps_per_s": round(1.0 / dense_seconds, 2),
                "sparse_sweeps_per_s": round(1.0 / sparse_seconds, 2),
                "speedup": round(sparse_seconds / dense_seconds, 2),
            }
        )
    return rows


def test_backend_throughput(benchmark, report):
    rows = run_once(benchmark, run_backend_throughput)
    report(rows, "backend_throughput", "dense vs sparse_csr backend: batch-Gibbs sweep throughput (1k vertices)")
    assert len(rows) == len(BLOCK_COUNTS)
    worst_speedup = min(r["speedup"] for r in rows)
    # Inside the "auto" policy's dense range, dense must not be a cliff.
    assert worst_speedup >= 0.5, f"dense sweep {worst_speedup}x of sparse_csr, below the 0.5x bar"
