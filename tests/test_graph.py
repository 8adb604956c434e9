"""Unit tests for the directed graph container."""

import numpy as np
import pytest

from repro.graphs.graph import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.num_distinct_edges() == 2

    def test_parallel_edges_aggregate_into_weights(self):
        g = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        assert g.num_edges == 3
        assert g.num_distinct_edges() == 1
        assert g.out_weights(0).tolist() == [3]

    def test_explicit_weights(self):
        g = Graph.from_edges(2, [(0, 1)], weights=[5])
        assert g.num_edges == 5
        assert g.out_degree(0) == 5
        assert g.in_degree(1) == 5

    def test_from_adjacency_round_trip(self):
        mat = np.array([[0, 2, 0], [1, 0, 0], [0, 3, 1]])
        g = Graph.from_adjacency(mat)
        assert np.array_equal(g.to_dense(), mat)

    def test_empty_graph(self):
        g = Graph.empty(4)
        assert g.num_edges == 0
        assert g.isolated_vertices().tolist() == [0, 1, 2, 3]
        assert g.average_degree == 0.0

    def test_zero_vertex_graph(self):
        g = Graph.empty(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], weights=[-1])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], weights=[1, 2])

    def test_bad_truth_length_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1)], true_assignment=np.array([0, 1]))

    def test_non_square_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_adjacency(np.zeros((2, 3)))


class TestNeighborhoods:
    def test_out_and_in_neighbors(self, tiny_graph):
        assert set(tiny_graph.out_neighbors(0).tolist()) == {1, 3}
        assert set(tiny_graph.in_neighbors(0).tolist()) == {1, 2}

    def test_combined_neighbors_cover_both_directions(self, tiny_graph):
        combined = set(tiny_graph.neighbors(0).tolist())
        assert combined == {1, 2, 3}

    @pytest.mark.parametrize("aggregate", [True, False])
    def test_combined_view_is_out_then_in(self, aggregate):
        # Parallel edges, a self-loop and an isolated vertex, in scrambled order.
        src = np.array([2, 0, 1, 0, 3, 2, 0, 1, 3])
        dst = np.array([0, 1, 2, 1, 3, 1, 2, 0, 0])
        w = np.array([1, 2, 1, 3, 4, 1, 1, 2, 5])
        g = Graph(5, src, dst, w, aggregate=aggregate)
        # Oracle: a stable sort of all edge endpoints by vertex, out-edges
        # first, lists each vertex's out-edges then its in-edges, in order.
        if aggregate:
            src, dst, w = g.edge_arrays()
        both_src = np.concatenate([src, dst])
        order = np.argsort(both_src, kind="stable")
        both_nbr = np.concatenate([dst, src])[order]
        both_w = np.concatenate([w, w])[order]
        starts = np.searchsorted(both_src[order], np.arange(6))
        for v in range(5):
            out_in = np.concatenate([g.out_neighbors(v), g.in_neighbors(v)])
            out_in_w = np.concatenate([g.out_weights(v), g.in_weights(v)])
            assert g.neighbors(v).tolist() == out_in.tolist() == both_nbr[starts[v]:starts[v + 1]].tolist()
            assert g.neighbor_weights(v).tolist() == out_in_w.tolist() == both_w[starts[v]:starts[v + 1]].tolist()
        assert g.neighbors(4).size == 0

    def test_degrees_are_consistent_with_edges(self, tiny_graph):
        assert tiny_graph.out_degrees.sum() == tiny_graph.num_edges
        assert tiny_graph.in_degrees.sum() == tiny_graph.num_edges
        assert np.array_equal(tiny_graph.degrees, tiny_graph.out_degrees + tiny_graph.in_degrees)

    def test_degree_accessors_match_arrays(self, tiny_graph):
        for v in range(tiny_graph.num_vertices):
            assert tiny_graph.out_degree(v) == tiny_graph.out_degrees[v]
            assert tiny_graph.in_degree(v) == tiny_graph.in_degrees[v]
            assert tiny_graph.degree(v) == tiny_graph.degrees[v]

    def test_self_loop_counts_in_both_degrees(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 1


class TestEdgeViews:
    def test_edges_iterator_matches_arrays(self, planted_graph):
        from_iter = sorted(planted_graph.edges())
        src, dst, w = planted_graph.edge_arrays()
        from_arrays = sorted(zip(src.tolist(), dst.tolist(), w.tolist()))
        assert from_iter == from_arrays

    def test_edge_weight_total_matches_num_edges(self, planted_graph):
        _, _, w = planted_graph.edge_arrays()
        assert int(w.sum()) == planted_graph.num_edges

    def test_density_in_unit_interval(self, planted_graph):
        assert 0.0 < planted_graph.density < 1.0

    def test_to_networkx(self, tiny_graph):
        nxg = tiny_graph.to_networkx()
        assert nxg.number_of_nodes() == tiny_graph.num_vertices
        assert nxg.number_of_edges() == tiny_graph.num_distinct_edges()

    def test_equality_and_hash(self, tiny_graph):
        same = Graph.from_edges(
            tiny_graph.num_vertices,
            np.column_stack(tiny_graph.edge_arrays()[:2]),
            weights=tiny_graph.edge_arrays()[2],
        )
        assert same == tiny_graph
        assert tiny_graph != Graph.empty(tiny_graph.num_vertices)
        assert isinstance(hash(tiny_graph), int)
