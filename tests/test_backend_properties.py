"""Property-based cross-backend tests: storage backends vs plain references.

Random interleavings of the mutation and query APIs must leave every
storage backend (``dense`` and true-sparse ``sparse_csr``) in states
identical to a plain numpy matrix and to the from-scratch
:class:`~repro.core.reference.DenseBlockmodel`: same matrix, same
marginals, same entropy (description length, compared **exactly** across
backends — all backends emit identically-ordered non-zero arrays, so the
vectorized likelihood reduction is bit-identical — and to the reference
within float rounding).

``hypothesis`` is an optional dependency: the module skips cleanly when it
is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.blockmodel.backend import get_backend  # noqa: E402
from repro.blockmodel.blockmodel import Blockmodel  # noqa: E402
from repro.core.reference import DenseBlockmodel  # noqa: E402
from repro.graphs.graph import Graph  # noqa: E402

MATRIX_SIZE = 6

#: The storage backends exercised against the references.
ARRAY_BACKENDS = ("dense", "sparse_csr")


def _assert_matrices_equal(candidate, ref: np.ndarray) -> None:
    assert np.array_equal(candidate.to_dense(), ref)
    assert np.array_equal(candidate.row_sums(), ref.sum(axis=1))
    assert np.array_equal(candidate.col_sums(), ref.sum(axis=0))
    assert candidate.total() == int(ref.sum())
    assert candidate.nnz() == int(np.count_nonzero(ref))
    candidate.check_consistent()


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_index = st.integers(min_value=0, max_value=MATRIX_SIZE - 1)

_add_many_op = st.tuples(
    st.just("add_many"),
    st.lists(st.tuples(_index, _index, st.integers(min_value=1, max_value=7)), min_size=1, max_size=8),
)
_set_op = st.tuples(st.just("set"), st.tuples(_index, _index, st.integers(min_value=0, max_value=9)))
_get_many_op = st.tuples(
    st.just("get_many"),
    st.lists(st.tuples(_index, _index), min_size=1, max_size=8),
)
_matrix_ops = st.lists(st.one_of(_add_many_op, _set_op, _get_many_op), min_size=1, max_size=30)


@st.composite
def graph_move_sequences(draw):
    """A small random graph, an initial assignment, and a move sequence."""
    num_vertices = draw(st.integers(min_value=2, max_value=10))
    num_blocks = draw(st.integers(min_value=2, max_value=num_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1),
                st.integers(0, num_vertices - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    assignment = draw(
        st.lists(st.integers(0, num_blocks - 1), min_size=num_vertices, max_size=num_vertices)
    )
    moves = draw(
        st.lists(
            st.tuples(st.integers(0, num_vertices - 1), st.integers(0, num_blocks - 1)),
            max_size=25,
        )
    )
    return Graph.from_edges(num_vertices, edges), np.asarray(assignment), num_blocks, moves


# ----------------------------------------------------------------------
# Matrix-level interleavings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ARRAY_BACKENDS)
@given(_matrix_ops)
@settings(max_examples=60, deadline=None)
def test_matrix_op_interleavings_keep_backends_identical(backend, ops):
    candidate = get_backend(backend)(MATRIX_SIZE)
    ref = np.zeros((MATRIX_SIZE, MATRIX_SIZE), dtype=np.int64)
    for op, payload in ops:
        if op == "add_many":
            rows = np.asarray([i for i, _, _ in payload], dtype=np.int64)
            cols = np.asarray([j for _, j, _ in payload], dtype=np.int64)
            deltas = np.asarray([w for _, _, w in payload], dtype=np.int64)
            candidate.add_many(rows, cols, deltas)
            # The reference applies the same logical update one entry at a
            # time, so duplicate positions accumulate.
            for i, j, w in payload:
                ref[i, j] += w
        elif op == "set":
            i, j, value = payload
            candidate.set(i, j, value)
            ref[i, j] = value
        else:  # get_many
            rows = np.asarray([i for i, _ in payload], dtype=np.int64)
            cols = np.asarray([j for _, j in payload], dtype=np.int64)
            batched = candidate.get_many(rows, cols)
            scalars = [candidate.get(i, j) for i, j in payload]
            assert batched.tolist() == scalars == [int(ref[i, j]) for i, j in payload]
        _assert_matrices_equal(candidate, ref)


# ----------------------------------------------------------------------
# Blockmodel-level interleavings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ARRAY_BACKENDS)
@given(graph_move_sequences())
@settings(max_examples=40, deadline=None)
def test_move_vertex_interleavings_keep_backends_identical(backend, data):
    graph, assignment, num_blocks, moves = data
    bm_cand = Blockmodel.from_assignment(graph, assignment, num_blocks, matrix_backend=backend)
    bm_dense = Blockmodel.from_assignment(graph, assignment, num_blocks, matrix_backend="dense")
    bm_ref = DenseBlockmodel(graph, assignment, num_blocks)
    _assert_matrices_equal(bm_cand.matrix, bm_ref.matrix)
    for vertex, target in moves:
        bm_cand.move_vertex(vertex, target)
        bm_dense.move_vertex(vertex, target)
        bm_ref.move_vertex(vertex, target)
        assert np.array_equal(bm_cand.assignment, bm_ref.assignment)
        assert np.array_equal(bm_cand.block_out_degrees, bm_ref.block_out_degrees)
        assert np.array_equal(bm_cand.block_in_degrees, bm_ref.block_in_degrees)
        assert np.array_equal(
            bm_cand.block_sizes, np.bincount(bm_ref.assignment, minlength=num_blocks)
        )
        _assert_matrices_equal(bm_cand.matrix, bm_ref.matrix)
        # All backends emit identically-ordered non-zero arrays, so the
        # vectorized entropy reduction must agree to the last bit.
        dl = bm_cand.description_length()
        assert dl == bm_dense.description_length()
        assert dl == pytest.approx(bm_ref.description_length(), rel=1e-9, abs=1e-9)
