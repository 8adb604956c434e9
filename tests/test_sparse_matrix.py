"""Block-matrix protocol tests, run against every registered storage backend.

Each test exercises one behaviour of :class:`BlockMatrixBackend` — element
access, row/column views kept in sync with mutations, marginals, copies and
consistency checks — on the ``"dense"`` array and the true-sparse
``"sparse_csr"`` representation alike.
"""

import numpy as np
import pytest

from repro.blockmodel.dense_matrix import DenseBlockMatrix
from repro.blockmodel.sparse_csr_matrix import SparseCSRBlockMatrix

BACKENDS = (DenseBlockMatrix, SparseCSRBlockMatrix)


def test_empty_matrix():
    for cls in BACKENDS:
        m = cls(3)
        assert m.get(0, 0) == 0, cls
        assert m.total() == 0, cls
        assert m.nnz() == 0, cls


def test_add_and_get():
    for cls in BACKENDS:
        m = cls(3)
        m.add(0, 1, 5)
        m.add(0, 1, 2)
        assert m.get(0, 1) == 7, cls
        assert m.get(1, 0) == 0, cls


def test_add_keeps_transpose_in_sync():
    for cls in BACKENDS:
        m = cls(4)
        m.add(2, 3, 4)
        assert m.col(3) == {2: 4}, cls
        m.add(2, 3, -4)
        assert m.col(3) == {}, cls
        m.check_consistent()


def test_negative_entry_rejected():
    for cls in BACKENDS:
        m = cls(2)
        m.add(0, 1, 1)
        with pytest.raises(ValueError):
            m.add(0, 1, -2)


def test_set_and_remove():
    for cls in BACKENDS:
        m = cls(2)
        m.set(0, 0, 3)
        assert m.get(0, 0) == 3, cls
        m.set(0, 0, 0)
        assert m.get(0, 0) == 0, cls
        assert m.nnz() == 0, cls
        with pytest.raises(ValueError):
            m.set(0, 1, -1)


def test_row_and_col_sums():
    for cls in BACKENDS:
        m = cls(3)
        m.add(0, 1, 2)
        m.add(0, 2, 3)
        m.add(1, 2, 4)
        assert m.row_sum(0) == 5, cls
        assert m.col_sum(2) == 7, cls
        assert m.row_sums().tolist() == [5, 4, 0], cls
        assert m.col_sums().tolist() == [0, 2, 7], cls
        assert m.total() == 9, cls


def test_entries_iteration():
    for cls in BACKENDS:
        m = cls(2)
        m.add(0, 1, 1)
        m.add(1, 1, 2)
        assert sorted(m.entries()) == [(0, 1, 1), (1, 1, 2)], cls


def test_dense_round_trip():
    dense = np.array([[0, 3], [1, 0]])
    for cls in BACKENDS:
        m = cls.from_dense(dense)
        assert np.array_equal(m.to_dense(), dense), cls
        assert m == cls.from_dense(dense), cls


def test_from_dense_rejects_non_square():
    for cls in BACKENDS:
        with pytest.raises(ValueError):
            cls.from_dense(np.zeros((2, 3)))


def test_copy_is_independent():
    for cls in BACKENDS:
        m = cls(2)
        m.add(0, 1, 1)
        c = m.copy()
        c.add(0, 1, 5)
        assert m.get(0, 1) == 1, cls
        assert c.get(0, 1) == 6, cls


def test_check_consistent_detects_corruption():
    for cls in BACKENDS:
        m = cls(2)
        m.add(0, 1, 1)
        m._row_sums[0] = 9  # corrupt the cached marginal directly
        with pytest.raises(AssertionError):
            m.check_consistent()


def test_negative_size_rejected():
    for cls in BACKENDS:
        with pytest.raises(ValueError):
            cls(-1)


class TestMixedOperationConsistency:
    """check_consistent after interleaved add / set / copy sequences."""

    def test_mixed_add_set_sequences_keep_views_consistent(self):
        for cls in BACKENDS:
            m = cls(4)
            m.add(0, 1, 3)
            m.set(1, 2, 5)
            m.add(0, 1, -3)   # entry drops back to zero and must vanish
            m.set(2, 0, 4)
            m.set(2, 0, 0)    # explicit zeroing must also vanish
            m.add(3, 3, 2)
            m.set(3, 3, 7)    # overwrite an existing entry
            m.check_consistent()
            assert m.get(0, 1) == 0, cls
            assert 1 not in m.row(0) and 0 not in m.col(1), cls
            assert m.get(2, 0) == 0, cls
            assert 0 not in m.row(2) and 2 not in m.col(0), cls
            assert m.get(3, 3) == 7, cls
            assert m.nnz() == 2, cls

    def test_copy_then_mutate_keeps_both_consistent(self):
        for cls in BACKENDS:
            m = cls(3)
            m.add(0, 1, 2)
            m.add(1, 2, 4)
            c = m.copy()
            c.set(1, 2, 0)
            c.add(2, 0, 9)
            m.add(0, 1, -2)
            m.check_consistent()
            c.check_consistent()
            assert m.get(1, 2) == 4 and c.get(1, 2) == 0, cls
            assert m.get(0, 1) == 0 and c.get(0, 1) == 2, cls
            assert c.get(2, 0) == 9 and m.get(2, 0) == 0, cls
            assert m != c, cls

    def test_interleaved_operations_match_dense_reference(self):
        for cls in BACKENDS:
            rng = np.random.default_rng(9)
            m = cls(5)
            dense = np.zeros((5, 5), dtype=np.int64)
            for _ in range(200):
                i, j = int(rng.integers(5)), int(rng.integers(5))
                if rng.random() < 0.5:
                    delta = int(rng.integers(-2, 5))
                    if dense[i, j] + delta < 0:
                        continue
                    m.add(i, j, delta)
                    dense[i, j] += delta
                else:
                    value = int(rng.integers(0, 6))
                    m.set(i, j, value)
                    dense[i, j] = value
            m.check_consistent()
            assert np.array_equal(m.to_dense(), dense), cls
