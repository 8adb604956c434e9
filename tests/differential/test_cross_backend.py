"""Full-pipeline differential tests: all registered backends, pairwise.

The acceptance criterion of the backend work: under a fixed seed the
default ``"auto"`` policy, the ``"dense"`` backend and the true-sparse
``"sparse_csr"`` backend must produce bit-identical partitions
and description lengths through sequential SBP, DC-SBP and EDiSt (threaded
communicator), with the per-cycle history — each entry a phase-boundary
observation — identical as well.  Every candidate backend is compared
against the common reference, which implies pairwise identity across the
whole set.
"""

import pytest

from repro.core.config import MCMCVariant
from repro.testing.differential import (
    ALL_BACKENDS,
    CANDIDATE_BACKENDS,
    assert_all_results_identical,
    run_backends,
    run_dcsbp,
    run_edist,
    run_sequential,
)


class TestSequential:
    @pytest.mark.parametrize("variant", MCMCVariant.ALL)
    def test_bit_identical_for_every_mcmc_variant(self, diff_graph_a, diff_config, variant):
        config = diff_config.with_overrides(mcmc_variant=variant)
        results = run_backends(run_sequential, diff_graph_a, config)
        assert set(results) == set(ALL_BACKENDS)
        assert_all_results_identical(results)

    def test_bit_identical_on_sparse_graph(self, diff_graph_b, diff_config):
        results = run_backends(run_sequential, diff_graph_b, diff_config)
        assert_all_results_identical(results)

    @pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
    def test_result_reports_requested_backend(self, diff_graph_a, diff_config, backend):
        config = diff_config.with_overrides(matrix_backend=backend)
        result = run_sequential(diff_graph_a, config)
        assert result.blockmodel.matrix_backend == backend


class TestDCSBP:
    @pytest.mark.parametrize("num_ranks", [1, 2])
    def test_bit_identical(self, diff_graph_a, diff_config, num_ranks):
        results = run_backends(run_dcsbp, diff_graph_a, diff_config, num_ranks=num_ranks)
        assert_all_results_identical(results)

    def test_bit_identical_with_candidate_sampling(self, diff_graph_b, diff_config):
        # The combine step's rng.choice candidate sampling must consume the
        # stream identically on every backend.
        config = diff_config.with_overrides(dcsbp_merge_candidates=3)
        results = run_backends(run_dcsbp, diff_graph_b, config, num_ranks=2)
        assert_all_results_identical(results)


class TestEDiSt:
    @pytest.mark.parametrize("num_ranks", [2, 3])
    def test_bit_identical(self, diff_graph_a, diff_config, num_ranks):
        config = diff_config.with_overrides(validate=True)  # replica-divergence check on
        results = run_backends(run_edist, diff_graph_a, config, num_ranks=num_ranks)
        assert_all_results_identical(results)

    def test_bit_identical_on_sparse_graph(self, diff_graph_b, diff_config):
        results = run_backends(run_edist, diff_graph_b, diff_config, num_ranks=2)
        assert_all_results_identical(results)
