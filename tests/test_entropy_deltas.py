"""Tests for the description length (Eq. 1-2) and its sparse delta forms."""

import math

import numpy as np
import pytest

from repro.blockmodel.blockmodel import Blockmodel
from repro.blockmodel.deltas import delta_dl_for_merge, delta_dl_for_move
from repro.blockmodel.entropy import (
    description_length,
    h_function,
    log_likelihood,
    model_complexity_term,
    normalized_description_length,
    null_description_length,
)
from repro.core.reference import DenseBlockmodel, naive_delta_dl_for_move, naive_description_length


class TestHFunction:
    def test_h_zero(self):
        assert h_function(0.0) == 0.0

    def test_h_known_value(self):
        # h(1) = 2 log 2 - 0 = 2 log 2
        assert h_function(1.0) == pytest.approx(2 * math.log(2))

    def test_h_monotone_increasing(self):
        xs = np.linspace(0.01, 10, 50)
        values = [h_function(x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_h_negative_rejected(self):
        with pytest.raises(ValueError):
            h_function(-0.1)


class TestDescriptionLength:
    def test_matches_dense_oracle(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        dense = DenseBlockmodel(planted_graph, planted_graph.true_assignment)
        assert bm.description_length() == pytest.approx(dense.description_length(), rel=1e-12)

    def test_matches_dense_oracle_random_partition(self, hard_graph, rng):
        assignment = rng.integers(0, 7, hard_graph.num_vertices)
        bm = Blockmodel.from_assignment(hard_graph, assignment, num_blocks=7)
        dense = DenseBlockmodel(hard_graph, assignment, 7)
        assert bm.description_length() == pytest.approx(dense.description_length(), rel=1e-12)

    def test_likelihood_zero_for_single_block(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, np.zeros(planted_graph.num_vertices, dtype=int))
        # With one block, B_00 = E = d_out = d_in, so L = E log(1/E).
        expected = planted_graph.num_edges * math.log(1.0 / planted_graph.num_edges)
        assert log_likelihood(bm) == pytest.approx(expected)

    def test_model_term_grows_with_blocks(self, planted_graph):
        v, e = planted_graph.num_vertices, planted_graph.num_edges
        assert model_complexity_term(v, e, 10) > model_complexity_term(v, e, 2)

    def test_model_term_invalid_blocks(self):
        with pytest.raises(ValueError):
            model_complexity_term(10, 10, 0)

    def test_null_dl_matches_single_block_dl(self, planted_graph):
        single = Blockmodel.from_assignment(planted_graph, np.zeros(planted_graph.num_vertices, dtype=int))
        assert null_description_length(planted_graph) == pytest.approx(single.description_length())

    def test_normalized_dl_of_null_model_is_one(self, planted_graph):
        single = Blockmodel.from_assignment(planted_graph, np.zeros(planted_graph.num_vertices, dtype=int))
        assert normalized_description_length(single.description_length(), planted_graph) == pytest.approx(1.0)

    def test_truth_normalized_dl_below_one(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        assert bm.normalized_description_length() < 1.0

    def test_naive_description_length_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            naive_description_length(np.zeros((0, 0)), 0, 0)


class TestMoveDeltas:
    @pytest.mark.parametrize("num_blocks", [3, 8, 25])
    def test_fast_delta_matches_exact_recomputation(self, hard_graph, rng, num_blocks):
        assignment = rng.integers(0, num_blocks, hard_graph.num_vertices)
        bm = Blockmodel.from_assignment(hard_graph, assignment, num_blocks=num_blocks)
        for _ in range(20):
            v = int(rng.integers(hard_graph.num_vertices))
            target = int(rng.integers(num_blocks))
            predicted = delta_dl_for_move(bm, v, target).delta_dl
            trial = bm.copy()
            before = trial.description_length()
            trial.move_vertex(v, target)
            actual = trial.description_length() - before
            assert predicted == pytest.approx(actual, abs=1e-8)

    def test_fast_and_slow_paths_agree(self, planted_graph, rng):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        for _ in range(30):
            v = int(rng.integers(planted_graph.num_vertices))
            target = int(rng.integers(bm.num_blocks))
            fast = delta_dl_for_move(bm, v, target).delta_dl
            slow = naive_delta_dl_for_move(bm, v, target)
            assert fast == pytest.approx(slow, abs=1e-8)

    def test_move_to_own_block_is_zero(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        move = delta_dl_for_move(bm, 0, bm.block_of(0))
        assert move.delta_dl == 0.0
        assert not move.is_improvement

    def test_moving_away_from_truth_is_not_improvement_on_average(self, planted_graph, rng):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        deltas = []
        for _ in range(40):
            v = int(rng.integers(planted_graph.num_vertices))
            current = bm.block_of(v)
            target = (current + 1 + int(rng.integers(bm.num_blocks - 1))) % bm.num_blocks
            deltas.append(delta_dl_for_move(bm, v, target).delta_dl)
        assert np.mean(deltas) > 0

    def test_move_delta_with_self_loops(self, rng):
        from repro.graphs.graph import Graph

        g = Graph.from_edges(4, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 0), (1, 1)])
        bm = Blockmodel.from_assignment(g, np.array([0, 0, 1, 1]))
        for v in range(4):
            for target in range(2):
                predicted = delta_dl_for_move(bm, v, target).delta_dl
                trial = bm.copy()
                before = trial.description_length()
                trial.move_vertex(v, target)
                assert predicted == pytest.approx(trial.description_length() - before, abs=1e-9)


class TestMergeDeltas:
    def test_merge_delta_matches_recomputation(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        for r in range(bm.num_blocks):
            for s in range(bm.num_blocks):
                if r == s:
                    continue
                predicted = delta_dl_for_merge(bm, r, s, include_model_term=True)
                target = np.arange(bm.num_blocks)
                target[r] = s
                merged = bm.apply_block_merges(target)
                actual = merged.description_length() - bm.description_length()
                assert predicted == pytest.approx(actual, abs=1e-8)

    def test_merge_into_self_is_zero(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        assert delta_dl_for_merge(bm, 1, 1) == 0.0

    def test_merging_true_blocks_increases_dl(self, planted_graph):
        bm = Blockmodel.from_assignment(planted_graph, planted_graph.true_assignment)
        assert delta_dl_for_merge(bm, 0, 1, include_model_term=True) > 0

    def test_merging_split_block_decreases_dl(self, planted_graph):
        # Split true block 0 into two artificial halves; re-merging them must help.
        assignment = planted_graph.true_assignment.copy()
        members = np.flatnonzero(assignment == 0)
        extra_label = assignment.max() + 1
        assignment[members[: members.size // 2]] = extra_label
        bm = Blockmodel.from_assignment(planted_graph, assignment, relabel=True)
        # Find the labels of the two halves after relabelling.
        half_a = bm.assignment[members[0]]
        half_b = bm.assignment[members[-1]]
        assert delta_dl_for_merge(bm, int(half_a), int(half_b), include_model_term=True) < 0

    def test_ranking_unaffected_by_model_term(self, hard_graph, rng):
        assignment = rng.integers(0, 10, hard_graph.num_vertices)
        bm = Blockmodel.from_assignment(hard_graph, assignment, num_blocks=10)
        pairs = [(0, 1), (0, 2), (3, 4), (5, 6), (7, 8)]
        without = [delta_dl_for_merge(bm, r, s) for r, s in pairs]
        with_term = [delta_dl_for_merge(bm, r, s, include_model_term=True) for r, s in pairs]
        assert np.argsort(without).tolist() == np.argsort(with_term).tolist()
