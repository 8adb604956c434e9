"""Tests for the dense (numpy) blockmodel backend and vectorized kernels.

Covers the :class:`DenseBlockMatrix` storage class itself (the backend was
registered as ``"csr"`` before it was renamed ``"dense"``), the batched
``delta_dl_for_moves`` / ``hastings_corrections`` kernels against their
scalar counterparts, and dense runs checked against the from-scratch
oracle of :mod:`repro.core.reference` for every MCMC variant.
"""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import Blockmodel
from repro.blockmodel.dense_matrix import DenseBlockMatrix, MAX_DENSE_BLOCKS
from repro.blockmodel.deltas import delta_dl_for_move, delta_dl_for_moves
from repro.blockmodel.sparse_csr_matrix import SparseCSRBlockMatrix
from repro.core.config import SBPConfig
from repro.core.hybrid_mcmc import batch_gibbs_sweep
from repro.core.proposals import (
    acceptance_probabilities,
    acceptance_probability,
    hastings_correction,
    hastings_corrections,
)
from repro.core.reference import DenseBlockmodel
from repro.core.sbp import stochastic_block_partition
from repro.graphs.generators.degree import DegreeSequenceSpec
from repro.graphs.generators.sbm import DCSBMSpec, generate_dcsbm_graph
from repro.graphs.graph import Graph


@pytest.fixture(scope="module")
def equiv_graph() -> Graph:
    """The seeded 200-vertex SBM graph used by the backend equivalence tests."""
    spec = DCSBMSpec(
        num_vertices=200,
        num_communities=4,
        degree_spec=DegreeSequenceSpec(exponent=3.0, min_degree=5, max_degree=25, duplicate=True),
        intra_inter_ratio=3.5,
        block_size_alpha=5.0,
        name="equiv-200",
    )
    return generate_dcsbm_graph(spec, seed=42)


class TestCSRBlockMatrix:
    """The dense backend's storage class (named after its former ``"csr"`` name)."""

    def test_scalar_api_matches_numpy_reference(self):
        rng = np.random.default_rng(0)
        dense = rng.integers(0, 5, size=(6, 6))
        m = DenseBlockMatrix.from_dense(dense)
        assert m.total() == int(dense.sum())
        assert m.nnz() == int(np.count_nonzero(dense))
        for i in range(6):
            assert m.row(i) == {int(j): int(dense[i, j]) for j in np.flatnonzero(dense[i])}
            assert m.col(i) == {int(k): int(dense[k, i]) for k in np.flatnonzero(dense[:, i])}
            assert m.row_sum(i) == int(dense[i].sum())
            assert m.col_sum(i) == int(dense[:, i].sum())
        assert np.array_equal(m.row_sums(), dense.sum(axis=1))
        assert np.array_equal(m.col_sums(), dense.sum(axis=0))
        assert sorted(m.entries()) == [
            (int(i), int(j), int(dense[i, j])) for i, j in zip(*np.nonzero(dense))
        ]

    def test_cross_backend_equality(self):
        dense = np.array([[0, 2], [3, 1]])
        m = DenseBlockMatrix.from_dense(dense)
        ref = SparseCSRBlockMatrix.from_dense(dense)
        assert m == ref
        assert ref == m
        m.add(0, 0, 1)
        assert m != ref
        assert ref != m

    def test_add_and_set_maintain_cached_sums(self):
        m = DenseBlockMatrix(3)
        m.add(0, 1, 4)
        m.set(1, 2, 7)
        m.add(0, 1, -4)  # entry returns to zero
        m.set(2, 2, 3)
        m.set(2, 2, 0)
        m.check_consistent()
        assert m.get(0, 1) == 0
        assert m.row_sum(1) == 7
        assert m.col_sum(2) == 7

    def test_add_rejects_negative_total(self):
        m = DenseBlockMatrix(2)
        m.add(0, 1, 2)
        with pytest.raises(ValueError):
            m.add(0, 1, -3)

    def test_get_many_add_many(self):
        m = DenseBlockMatrix(4)
        rows = np.array([0, 1, 0, 3])
        cols = np.array([1, 2, 1, 0])
        m.add_many(rows, cols, np.array([2, 5, 3, 1]))
        # duplicates accumulate: (0, 1) received 2 + 3
        assert m.get(0, 1) == 5
        assert np.array_equal(m.get_many(rows, cols), np.array([5, 5, 5, 1]))
        m.check_consistent()

    def test_add_many_rejects_negative_and_rolls_back(self):
        m = DenseBlockMatrix(2)
        m.add(0, 1, 2)
        with pytest.raises(ValueError):
            m.add_many(np.array([0, 1]), np.array([1, 0]), np.array([-5, 1]))
        assert m.get(0, 1) == 2
        assert m.get(1, 0) == 0
        m.check_consistent()

    def test_copy_is_independent(self):
        m = DenseBlockMatrix(2)
        m.add(0, 1, 1)
        c = m.copy()
        c.add(0, 1, 5)
        assert m.get(0, 1) == 1
        assert c.get(0, 1) == 6
        m.check_consistent()
        c.check_consistent()

    def test_check_consistent_detects_corruption(self):
        m = DenseBlockMatrix(2)
        m.add(0, 1, 1)
        m.data[0, 1] = 9  # corrupt behind the cached sums
        with pytest.raises(AssertionError):
            m.check_consistent()

    def test_size_guard(self):
        with pytest.raises(ValueError):
            DenseBlockMatrix(MAX_DENSE_BLOCKS + 1)
        with pytest.raises(ValueError):
            DenseBlockMatrix(-1)


class TestBlockmodelBackendWiring:
    def test_from_graph_backends_agree(self, equiv_graph):
        bm_dense = Blockmodel.from_graph(equiv_graph, num_blocks=16, matrix_backend="dense")
        bm_sparse = Blockmodel.from_graph(equiv_graph, num_blocks=16, matrix_backend="sparse_csr")
        bm_auto = Blockmodel.from_graph(equiv_graph, num_blocks=16)
        assert bm_dense.matrix_backend == "dense"
        assert bm_sparse.matrix_backend == "sparse_csr"
        assert bm_auto.matrix_backend == "dense" and bm_auto.matrix_policy == "auto"
        assert bm_dense.matrix == bm_sparse.matrix == bm_auto.matrix
        reference = DenseBlockmodel(equiv_graph, bm_dense.assignment, 16)
        assert np.array_equal(bm_dense.matrix.to_dense(), reference.matrix)
        bm_dense.check_consistency()

    def test_unknown_backend_rejected(self, equiv_graph):
        with pytest.raises(ValueError):
            Blockmodel.from_graph(equiv_graph, matrix_backend="cupy")
        with pytest.raises(ValueError):
            SBPConfig(matrix_backend="cupy")

    def test_move_vertex_matches_reference_blockmodel(self, equiv_graph):
        bm = Blockmodel.from_graph(equiv_graph, num_blocks=8, matrix_backend="dense")
        reference = DenseBlockmodel(equiv_graph, bm.assignment, 8)
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = int(rng.integers(equiv_graph.num_vertices))
            t = int(rng.integers(8))
            bm.move_vertex(v, t)
            reference.move_vertex(v, t)
        assert np.array_equal(bm.matrix.to_dense(), reference.matrix)
        assert np.array_equal(bm.assignment, reference.assignment)
        bm.check_consistency()

    @pytest.mark.parametrize("count", [10, 120])
    def test_apply_moves_matches_moving_one_at_a_time(self, equiv_graph, count):
        """Both the incremental (few moves) and the rebuild (many moves) path
        end where sequential ``move_vertex`` calls do; a vertex's last move wins."""
        rng = np.random.default_rng(count)
        vertices = rng.integers(0, equiv_graph.num_vertices, size=count)
        targets = rng.integers(0, 8, size=count)
        batched = Blockmodel.from_graph(equiv_graph, num_blocks=8)
        sequential = batched.copy()
        batched.apply_moves(vertices, targets)
        for v, t in zip(vertices.tolist(), targets.tolist()):
            sequential.move_vertex(v, t)
        assert np.array_equal(batched.assignment, sequential.assignment)
        assert batched.matrix == sequential.matrix
        assert np.array_equal(batched.block_sizes, sequential.block_sizes)
        batched.check_consistency()

    def test_merges_preserve_backend(self, equiv_graph):
        bm = Blockmodel.from_graph(equiv_graph, num_blocks=8, matrix_backend="dense")
        merge_target = np.arange(8)
        merge_target[7] = 0
        merged = bm.apply_block_merges(merge_target)
        assert merged.matrix_backend == "dense"
        assert merged.num_blocks == 7
        merged.check_consistency()

    def test_refresh_derived_state(self, equiv_graph):
        bm = Blockmodel.from_graph(equiv_graph, num_blocks=8, matrix_backend="dense")
        rng = np.random.default_rng(2)
        bm.assignment[:] = rng.integers(0, 8, size=equiv_graph.num_vertices)
        bm.refresh_derived_state()
        bm.check_consistency()
        assert bm.matrix_backend == "dense"


class TestBatchedKernels:
    def test_delta_dl_for_moves_matches_scalar(self, equiv_graph):
        bm_dense = Blockmodel.from_graph(equiv_graph, num_blocks=12, matrix_backend="dense")
        rng = np.random.default_rng(3)
        vertices = rng.integers(0, equiv_graph.num_vertices, size=80)
        targets = rng.integers(0, 12, size=80)
        batch = delta_dl_for_moves(bm_dense, vertices, targets)
        for k, (v, t) in enumerate(zip(vertices.tolist(), targets.tolist())):
            scalar = delta_dl_for_move(bm_dense, v, t)
            assert batch.delta_dl[k] == pytest.approx(scalar.delta_dl, abs=1e-9)

    def test_hastings_corrections_match_scalar(self, equiv_graph):
        bm_dense = Blockmodel.from_graph(equiv_graph, num_blocks=12, matrix_backend="dense")
        rng = np.random.default_rng(4)
        vertices = rng.integers(0, equiv_graph.num_vertices, size=80)
        targets = rng.integers(0, 12, size=80)
        batch = delta_dl_for_moves(bm_dense, vertices, targets)
        corrections = hastings_corrections(bm_dense, batch)
        for k, (v, t) in enumerate(zip(vertices.tolist(), targets.tolist())):
            move = delta_dl_for_move(bm_dense, v, t)
            if move.from_block == move.to_block:
                assert corrections[k] == 1.0
                continue
            scalar = hastings_correction(bm_dense, move.counts, move.from_block, move.to_block)
            assert corrections[k] == pytest.approx(scalar, abs=1e-9)

    def test_batched_delta_matches_full_recomputation(self, equiv_graph):
        bm = Blockmodel.from_graph(equiv_graph, num_blocks=10, matrix_backend="dense")
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = int(rng.integers(equiv_graph.num_vertices))
            t = int(rng.integers(10))
            if t == bm.block_of(v):
                continue
            batch = delta_dl_for_moves(bm, np.array([v]), np.array([t]))
            before = bm.description_length()
            after_model = bm.copy()
            after_model.move_vertex(v, t)
            assert batch.delta_dl[0] == pytest.approx(after_model.description_length() - before, abs=1e-7)

    def test_acceptance_probabilities_match_scalar(self):
        class _Eval:
            def __init__(self, delta_dl, hastings):
                self.delta_dl = delta_dl
                self.hastings = hastings

        deltas = np.array([-5.0, 0.0, 2.5, -100.0, 300.0, 1.0])
        hastings = np.array([1.0, 0.5, 2.0, 1e-300, 1e-300, 0.0])
        batch = acceptance_probabilities(deltas, hastings, beta=3.0)
        for k in range(deltas.shape[0]):
            scalar = acceptance_probability(_Eval(float(deltas[k]), float(hastings[k])), beta=3.0)
            assert batch[k] == pytest.approx(scalar, rel=1e-12, abs=0.0)


class TestBackendEquivalence:
    @pytest.mark.parametrize("variant", ["metropolis_hastings", "batch_gibbs", "hybrid"])
    def test_identical_partitions_and_dl(self, equiv_graph, variant):
        """A forced-dense run matches the default run and the DL oracle."""
        config = SBPConfig.fast(seed=7).with_overrides(mcmc_variant=variant)
        result_auto = stochastic_block_partition(equiv_graph, config)
        result_dense = stochastic_block_partition(equiv_graph, config.with_overrides(matrix_backend="dense"))
        assert np.array_equal(result_auto.blockmodel.assignment, result_dense.blockmodel.assignment)
        assert result_dense.description_length == result_auto.description_length
        assert result_dense.blockmodel.matrix_backend == "dense"
        reference = DenseBlockmodel(equiv_graph, result_dense.blockmodel.assignment)
        assert result_dense.description_length == pytest.approx(reference.description_length(), rel=1e-9)

    def test_sweep_level_equivalence(self, equiv_graph):
        """Batch-Gibbs sweeps on the dense backend track the reference blockmodel."""
        config = SBPConfig(seed=0, mcmc_variant="batch_gibbs")
        bm = Blockmodel.from_graph(equiv_graph, num_blocks=16, matrix_backend="dense")
        reference = DenseBlockmodel(equiv_graph, bm.assignment, 16)
        vertices = np.arange(equiv_graph.num_vertices)
        for sweep in range(3):
            res = batch_gibbs_sweep(bm, vertices, config, np.random.default_rng(sweep))
            for v, target in res.moves:
                reference.move_vertex(v, target)
            assert np.array_equal(bm.assignment, reference.assignment)
            assert np.array_equal(bm.matrix.to_dense(), reference.matrix)
        bm.check_consistency()
