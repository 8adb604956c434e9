"""Tests for the SBP building blocks: proposals, merges, MCMC, golden ratio."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.blockmodel.blockmodel import Blockmodel
from repro.core.config import MCMCVariant, SBPConfig
from repro.core.golden_ratio import GoldenRatioSearch
from repro.core.hybrid_mcmc import batch_gibbs_sweep, hybrid_sweep, split_by_degree
from repro.core.mcmc import SweepResult, make_sweep_fn, mcmc_phase, metropolis_hastings_sweep
from repro.graphs.graph import Graph
from repro.core.merges import MergeProposal, block_merge_phase, propose_merges, select_and_apply_merges
from repro.core.proposals import (
    acceptance_probability,
    evaluate_vertex_move,
    hastings_correction,
    propose_block_for_vertex,
)


class TestConfig:
    def test_defaults_valid(self):
        config = SBPConfig()
        assert config.beta == 3.0
        assert config.mcmc_variant == MCMCVariant.HYBRID

    def test_fast_preset(self):
        config = SBPConfig.fast(seed=1)
        assert config.seed == 1
        assert config.max_mcmc_iterations < SBPConfig().max_mcmc_iterations

    def test_with_overrides_and_seed(self):
        config = SBPConfig().with_overrides(beta=2.0).with_seed(99)
        assert config.beta == 2.0 and config.seed == 99

    @pytest.mark.parametrize("bad", [
        dict(block_reduction_rate=0.0),
        dict(block_reduction_rate=1.0),
        dict(merge_proposals_per_block=0),
        dict(max_mcmc_iterations=0),
        dict(mcmc_convergence_threshold=-1),
        dict(min_blocks=0),
        dict(mcmc_variant="bogus"),
        dict(hybrid_high_degree_fraction=1.5),
        dict(hybrid_batch_size=0),
        dict(dcsbp_combine_threshold=0),
        dict(beta=0),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            SBPConfig(**bad)


class TestProposals:
    def test_proposed_block_in_range(self, planted_graph, rng):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        for v in range(0, planted_graph.num_vertices, 9):
            proposal = propose_block_for_vertex(bm, v, rng)
            assert 0 <= proposal < bm.num_blocks

    def test_isolated_vertex_gets_uniform_proposal(self, rng):
        from repro.graphs.graph import Graph

        g = Graph.from_edges(4, [(0, 1)])
        bm = Blockmodel.from_assignment(g, np.array([0, 0, 1, 1]))
        proposals = {propose_block_for_vertex(bm, 3, rng) for _ in range(30)}
        assert proposals.issubset({0, 1})

    def test_single_block_model_proposes_block_zero(self, planted_graph, rng):
        bm = Blockmodel.from_assignment(planted_graph, np.zeros(planted_graph.num_vertices, dtype=int))
        assert propose_block_for_vertex(bm, 0, rng) == 0

    def test_hastings_correction_positive(self, planted_graph, rng):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        for _ in range(20):
            v = int(rng.integers(planted_graph.num_vertices))
            target = int(rng.integers(bm.num_blocks))
            counts = bm.vertex_block_counts(v)
            assert hastings_correction(bm, counts, bm.block_of(v), target) > 0

    def test_hastings_correction_same_block_is_one(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        counts = bm.vertex_block_counts(0)
        assert hastings_correction(bm, counts, 0, 0) == 1.0

    def test_evaluate_move_carries_counts(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        evaluation = evaluate_vertex_move(bm, 3, (bm.block_of(3) + 1) % bm.num_blocks)
        assert evaluation.move.counts is not None
        assert evaluation.hastings > 0

    def test_acceptance_probability_bounds(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        evaluation = evaluate_vertex_move(bm, 0, (bm.block_of(0) + 1) % bm.num_blocks)
        p = acceptance_probability(evaluation, beta=3.0)
        assert 0.0 <= p <= 1.0

    def test_acceptance_probability_improving_move_is_one(self, planted_graph):
        # Corrupt one vertex, then moving it back to its true block must be accepted.
        assignment = planted_graph.true_assignment.copy()
        v = 5
        true_block = assignment[v]
        assignment[v] = (true_block + 1) % 4
        bm = Blockmodel.from_assignment(planted_graph, assignment, num_blocks=4)
        evaluation = evaluate_vertex_move(bm, v, int(true_block))
        assert evaluation.delta_dl < 0
        assert acceptance_probability(evaluation, beta=3.0) == pytest.approx(1.0)


class TestBlockMergePhase:
    def test_propose_merges_one_per_nonempty_block(self, planted_graph, rng, fast_config):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        proposals = propose_merges(bm, range(bm.num_blocks), fast_config, rng)
        assert len(proposals) == bm.num_blocks
        assert all(p.target != p.block for p in proposals)

    def test_propose_merges_skips_empty_blocks(self, planted_graph, rng, fast_config):
        assignment = planted_graph.true_assignment.copy()
        bm = Blockmodel.from_assignment(planted_graph, assignment, num_blocks=6)  # blocks 4, 5 empty
        proposals = propose_merges(bm, range(6), fast_config, rng)
        assert {p.block for p in proposals} == {0, 1, 2, 3}

    def test_propose_merges_subset_only(self, planted_graph, rng, fast_config):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        proposals = propose_merges(bm, [1, 3], fast_config, rng)
        assert {p.block for p in proposals} == {1, 3}

    def test_select_and_apply_respects_merge_count(self, planted_graph, rng, fast_config):
        bm = Blockmodel.from_graph(planted_graph, num_blocks=20)
        proposals = propose_merges(bm, range(20), fast_config, rng)
        merged = select_and_apply_merges(bm, proposals, num_merges=10)
        assert merged.num_blocks == 10
        merged.check_consistency()

    def test_select_and_apply_zero_merges_is_copy(self, planted_graph, rng, fast_config):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        merged = select_and_apply_merges(bm, [], num_merges=0)
        assert merged.num_blocks == bm.num_blocks
        assert merged is not bm

    def test_pointer_chasing_handles_chained_targets(self, planted_graph):
        bm = Blockmodel.from_graph(planted_graph, num_blocks=6)
        proposals = [
            MergeProposal(0, 1, -10.0),
            MergeProposal(1, 2, -9.0),
            MergeProposal(2, 0, -8.0),  # would form a cycle; must be skipped
            MergeProposal(3, 4, -7.0),
        ]
        merged = select_and_apply_merges(bm, proposals, num_merges=3)
        merged.check_consistency()
        assert merged.num_blocks == 3

    def test_block_merge_phase_halves_blocks(self, planted_graph, rng, fast_config):
        bm = Blockmodel.from_graph(planted_graph, num_blocks=16)
        merged = block_merge_phase(bm, num_merges=8, config=fast_config, rng=rng)
        assert merged.num_blocks == 8

    def test_merging_artificial_split_restores_truth_blocks(self, planted_graph, rng, fast_config):
        # Split each true block in two; one merge phase should mostly undo it.
        doubled = planted_graph.true_assignment * 2 + (np.arange(planted_graph.num_vertices) % 2)
        bm = Blockmodel.from_assignment(planted_graph, doubled, relabel=True)
        merged = block_merge_phase(bm, num_merges=4, config=fast_config, rng=rng)
        from repro.evaluation import normalized_mutual_information

        assert merged.num_blocks == bm.num_blocks - 4
        assert normalized_mutual_information(planted_graph.true_assignment, merged.assignment) > 0.8


class TestMCMC:
    def test_mh_sweep_reduces_dl_from_corrupted_start(self, planted_graph, rng, fast_config):
        assignment = planted_graph.true_assignment.copy()
        corrupt = rng.choice(planted_graph.num_vertices, size=30, replace=False)
        assignment[corrupt] = rng.integers(0, 4, size=30)
        bm = Blockmodel.from_assignment(planted_graph, assignment, num_blocks=4)
        before = bm.description_length()
        result = metropolis_hastings_sweep(bm, np.arange(planted_graph.num_vertices), fast_config, rng)
        assert bm.description_length() < before
        assert result.accepted_moves > 0
        assert len(result.moves) == result.accepted_moves
        bm.check_consistency()

    def test_sweep_delta_tracks_actual_dl_change_for_mh(self, planted_graph, rng, fast_config):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        before = bm.description_length()
        result = metropolis_hastings_sweep(bm, np.arange(planted_graph.num_vertices), fast_config, rng)
        after = bm.description_length()
        assert result.delta_dl == pytest.approx(after - before, abs=1e-6)

    def test_hybrid_sweep_keeps_state_consistent(self, hard_graph, rng, fast_config):
        bm = Blockmodel.from_graph(hard_graph, num_blocks=12)
        hybrid_sweep(bm, np.arange(hard_graph.num_vertices), fast_config, rng)
        bm.check_consistency()

    def test_batch_gibbs_sweep_keeps_state_consistent(self, hard_graph, rng, fast_config):
        bm = Blockmodel.from_graph(hard_graph, num_blocks=12)
        batch_gibbs_sweep(bm, np.arange(hard_graph.num_vertices), fast_config, rng)
        bm.check_consistency()

    def test_split_by_degree(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        vertices = np.arange(planted_graph.num_vertices)
        high, low = split_by_degree(bm, vertices, 0.25)
        assert high.size + low.size == vertices.size
        assert planted_graph.degrees[high].min() >= planted_graph.degrees[low].max() - 1

    def test_split_by_degree_extremes(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        vertices = np.arange(20)
        high, low = split_by_degree(bm, vertices, 0.0)
        assert high.size == 0 and low.size == 20
        high, low = split_by_degree(bm, vertices, 1.0)
        assert high.size == 20 and low.size == 0

    @pytest.mark.parametrize("variant", MCMCVariant.ALL)
    def test_mcmc_phase_converges_for_all_variants(self, planted_graph, rng, variant):
        config = SBPConfig.fast(seed=3).with_overrides(mcmc_variant=variant, max_mcmc_iterations=10)
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        start_dl = bm.description_length()
        result = mcmc_phase(bm, config, rng)
        assert result.sweeps <= 10
        assert result.description_length <= start_dl + 1e-6
        bm.check_consistency()

    def test_make_sweep_fn_dispatch(self):
        assert make_sweep_fn(SBPConfig(mcmc_variant=MCMCVariant.METROPOLIS_HASTINGS)) is metropolis_hastings_sweep
        assert make_sweep_fn(SBPConfig(mcmc_variant=MCMCVariant.HYBRID)) is hybrid_sweep
        assert make_sweep_fn(SBPConfig(mcmc_variant=MCMCVariant.BATCH_GIBBS)) is batch_gibbs_sweep

    def test_mcmc_phase_restricted_vertices_only_moves_those(self, planted_graph, rng, fast_config):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        frozen = np.arange(80, planted_graph.num_vertices)
        before = bm.assignment[frozen].copy()
        mcmc_phase(bm, fast_config, rng, vertices=np.arange(80))
        assert np.array_equal(bm.assignment[frozen], before)


class TestGoldenRatioSearch:
    def _entry(self, planted_graph, num_blocks, dl):
        bm = Blockmodel.from_graph(planted_graph, num_blocks=num_blocks)
        return bm, dl

    def test_exploration_keeps_halving(self, planted_graph):
        search = GoldenRatioSearch(reduction_rate=0.5)
        bm, dl = self._entry(planted_graph, 64, 1000.0)
        decision = search.update(bm, dl)
        assert not decision.done
        assert decision.target_blocks == 32
        assert decision.num_blocks_to_merge == 32

    def test_bracket_established_when_dl_increases(self, planted_graph):
        search = GoldenRatioSearch()
        search.update(*self._entry(planted_graph, 64, 1000.0))
        decision = search.update(*self._entry(planted_graph, 32, 1200.0))
        assert search.bracket_established
        assert not decision.done
        assert 32 < decision.target_blocks < 64

    def test_converges_to_best_entry(self, planted_graph):
        search = GoldenRatioSearch()
        search.update(*self._entry(planted_graph, 16, 500.0))
        search.update(*self._entry(planted_graph, 8, 400.0))
        search.update(*self._entry(planted_graph, 4, 450.0))
        # Bracket is (16, 8, 4); keep feeding until done.
        decision = search.update(*self._entry(planted_graph, 6, 420.0))
        for _ in range(10):
            if decision.done:
                break
            decision = search.update(*self._entry(planted_graph, decision.target_blocks, 430.0))
        assert decision.done
        assert search.best().description_length == 400.0

    def test_best_requires_an_update(self, planted_graph):
        search = GoldenRatioSearch()
        with pytest.raises(RuntimeError):
            search.best()

    def test_min_blocks_floor(self, planted_graph):
        search = GoldenRatioSearch(reduction_rate=0.5, min_blocks=4)
        decision = search.update(*self._entry(planted_graph, 8, 100.0))
        assert decision.target_blocks >= 4

    def test_invalid_reduction_rate(self):
        with pytest.raises(ValueError):
            GoldenRatioSearch(reduction_rate=1.0)

    def test_done_when_target_not_below_current(self, planted_graph):
        search = GoldenRatioSearch(reduction_rate=0.5, min_blocks=1)
        decision = search.update(*self._entry(planted_graph, 1, 50.0))
        assert decision.done


class TestProposalRegressions:
    def test_zero_weight_neighbors_fall_back_to_uniform(self):
        # Regression: a vertex whose neighbour weights sum to zero used to
        # reach ``rng.integers(0)``, which raises.  The weights are zeroed
        # behind the graph's back to simulate the degenerate state.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        g._out.data[:] = 0
        g._in.data[:] = 0
        bm = Blockmodel.from_graph(g)
        rng = np.random.default_rng(0)
        seen = {propose_block_for_vertex(bm, 1, rng) for _ in range(64)}
        assert seen <= set(range(bm.num_blocks))
        assert len(seen) > 1  # uniform fallback actually explores blocks

    def test_tiny_hastings_rejects_despite_huge_exponent(self):
        # Regression: ``exponent > 50`` used to short-circuit to "accept"
        # even when the Hastings factor was effectively zero.  In log space
        # the two factors are combined before any cutoff is applied.
        evaluation = SimpleNamespace(delta_dl=-100.0, hastings=1e-300)
        p = acceptance_probability(evaluation, beta=3.0)
        assert p < 1e-100  # -beta·ΔDL = 300, log(hastings) ≈ -690.8
        assert p == pytest.approx(math.exp(300.0 + math.log(1e-300)))

    def test_zero_hastings_rejects_outright(self):
        evaluation = SimpleNamespace(delta_dl=-100.0, hastings=0.0)
        assert acceptance_probability(evaluation, beta=3.0) == 0.0

    def test_extreme_exponent_saturates_without_overflow(self):
        evaluation = SimpleNamespace(delta_dl=-1e6, hastings=2.0)
        assert acceptance_probability(evaluation, beta=3.0) == 1.0
        evaluation = SimpleNamespace(delta_dl=1e6, hastings=0.5)
        assert acceptance_probability(evaluation, beta=3.0) == 0.0


class TestMCMCConvergenceCheck:
    def test_convergence_compares_against_exact_dl(self, planted_graph):
        # A sweep that mutates nothing but reports a large stale ΔDL.  With
        # the old drift-accumulated right-hand side (current_dl += ΔDL) the
        # threshold would inflate every sweep and the phase would stop after
        # two sweeps; against the exact (unchanging) DL it must run out the
        # iteration budget.
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        stale_delta = 3.0 * abs(bm.description_length())
        config = SBPConfig(seed=0, max_mcmc_iterations=6, mcmc_convergence_threshold=0.5)

        def stale_sweep(model, vertices, cfg, rng):
            return SweepResult(accepted_moves=0, proposed_moves=0, delta_dl=stale_delta)

        phase = mcmc_phase(bm, config, np.random.default_rng(0), sweep_fn=stale_sweep)
        assert phase.sweeps == config.max_mcmc_iterations
        assert phase.description_length == pytest.approx(bm.description_length())

    def test_reported_dl_is_exact(self, planted_graph, fast_config):
        bm = Blockmodel.from_graph(planted_graph, num_blocks=12)
        phase = mcmc_phase(bm, fast_config, np.random.default_rng(1))
        assert phase.description_length == pytest.approx(bm.description_length())
