"""True sparse (scipy-free CSR/COO) block matrix: the scalable backend.

The paper's C++ implementation never densifies the ``B × B`` block matrix —
at the scales it targets the matrix would not fit in memory.  The
``"dense"`` backend of this reproduction *is* a dense numpy array, capped at
:data:`~repro.blockmodel.dense_matrix.MAX_DENSE_BLOCKS` blocks.
:class:`SparseCSRBlockMatrix` has no such ceiling: memory is
``O(nnz + B)`` and every batched primitive the kernels need is served from
compressed-sparse arrays, without scipy.  The default ``"auto"`` policy
uses it while the block count is above
:data:`~repro.blockmodel.blockmodel.DENSE_BLOCK_LIMIT`.

Representation
--------------
Two compressed copies of the non-zero entries plus a mutation buffer:

base CSR (row-major)
    ``indptr`` / ``indices`` / ``data``: for each row, the non-zero columns
    in ascending order with their counts.  ``nnz_rows`` (the expanded row
    index per entry) and ``flat_keys`` (``row · B + col``, ascending) are
    kept alongside so ``get_many`` is one ``np.searchsorted`` gather.
transpose CSC (column-major)
    ``t_indptr`` / ``t_indices`` / ``t_data``: the same entries grouped by
    column with ascending rows — the paper's "keep the transpose for fast
    access along both rows and columns" (Section III-A, optimisation (b)).
COO delta buffer
    Mutations (``add`` / ``add_many``) do not rewrite the compressed
    arrays; they accumulate in per-row and per-column hash maps of
    *deltas* (conceptually a deduplicated COO triplet list).  Reads merge
    the buffer on the fly; :meth:`compact` folds it into fresh CSR/CSC
    arrays and runs automatically once the buffer grows past a fraction of
    ``nnz``.  Cached row/column sums are updated incrementally on every
    mutation, so marginals stay O(1) regardless of buffer state.

Equivalence
-----------
``nonzero_arrays`` / ``row_entries`` / ``col_entries`` / ``csr_structure``
enumerate entries in exactly the ascending orders the other backends use,
so the shared sequential-sum kernels produce bit-identical ΔDL floats and
the differential suite (``tests/differential/``) passes unchanged against
the dense backend and the from-scratch reference of
:mod:`repro.core.reference`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.blockmodel.backend import BlockMatrixBackend, register_backend

__all__ = ["SparseCSRBlockMatrix"]

#: The delta buffer is folded into the compressed arrays once it holds more
#: than ``max(_COMPACT_MIN, nnz >> _COMPACT_SHIFT)`` entries.
_COMPACT_MIN = 64
_COMPACT_SHIFT = 2


@register_backend("sparse_csr")
class SparseCSRBlockMatrix(BlockMatrixBackend):
    """A square sparse integer matrix in CSR + CSC form with a COO buffer."""

    __slots__ = (
        "num_blocks",
        "indptr",
        "indices",
        "data",
        "nnz_rows",
        "flat_keys",
        "t_indptr",
        "t_indices",
        "t_data",
        "_row_sums",
        "_col_sums",
        "_delta_rows",
        "_delta_cols",
        "_delta_count",
    )

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        if num_blocks >= 2**31:
            # flat_keys packs (row, col) into one int64: row · B + col.
            raise ValueError("sparse_csr supports at most 2^31 - 1 blocks")
        self.num_blocks = int(num_blocks)
        empty = np.empty(0, dtype=np.int64)
        self.indptr = np.zeros(num_blocks + 1, dtype=np.int64)
        self.indices = empty
        self.data = empty
        self.nnz_rows = empty
        self.flat_keys = empty
        self.t_indptr = np.zeros(num_blocks + 1, dtype=np.int64)
        self.t_indices = empty
        self.t_data = empty
        self._row_sums = np.zeros(num_blocks, dtype=np.int64)
        self._col_sums = np.zeros(num_blocks, dtype=np.int64)
        self._delta_rows: Dict[int, Dict[int, int]] = {}
        self._delta_cols: Dict[int, Dict[int, int]] = {}
        self._delta_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_block_edges(
        cls,
        num_blocks: int,
        block_src: np.ndarray,
        block_dst: np.ndarray,
        weights: np.ndarray,
    ) -> "SparseCSRBlockMatrix":
        """Vectorized build from per-edge block endpoints."""
        out = cls(num_blocks)
        block_src = np.asarray(block_src, dtype=np.int64)
        block_dst = np.asarray(block_dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if block_src.size:
            keys = block_src * np.int64(num_blocks) + block_dst
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            values = np.bincount(inverse, weights=weights, minlength=unique_keys.shape[0])
            values = values.astype(np.int64)
            keep = values > 0
            out._rebuild(unique_keys[keep], values[keep])
        return out

    def _rebuild(self, flat_keys: np.ndarray, values: np.ndarray) -> None:
        """Install the compressed arrays from sorted flat keys and values.

        ``flat_keys`` must be strictly increasing (row-major entry order)
        and ``values`` strictly positive.
        """
        num_blocks = np.int64(self.num_blocks)
        i_arr = flat_keys // num_blocks if num_blocks else flat_keys
        j_arr = flat_keys % num_blocks if num_blocks else flat_keys
        self.flat_keys = flat_keys
        self.nnz_rows = i_arr
        self.indices = j_arr
        self.data = values
        self.indptr = np.zeros(self.num_blocks + 1, dtype=np.int64)
        np.cumsum(np.bincount(i_arr, minlength=self.num_blocks), out=self.indptr[1:])
        # Transpose: the same entries in (col, row) order.
        order = np.lexsort((i_arr, j_arr))
        self.t_indices = i_arr[order]
        self.t_data = values[order]
        self.t_indptr = np.zeros(self.num_blocks + 1, dtype=np.int64)
        np.cumsum(np.bincount(j_arr, minlength=self.num_blocks), out=self.t_indptr[1:])
        self._row_sums = np.bincount(
            i_arr, weights=values, minlength=self.num_blocks
        ).astype(np.int64)
        self._col_sums = np.bincount(
            j_arr, weights=values, minlength=self.num_blocks
        ).astype(np.int64)
        self._delta_rows = {}
        self._delta_cols = {}
        self._delta_count = 0

    # ------------------------------------------------------------------
    # Delta buffer
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Fold the COO delta buffer into fresh CSR/CSC arrays.

        Entries whose count reaches zero are dropped (keeping
        ``nonzero_arrays`` strictly positive).  Idempotent and logically a no-op: only the physical
        layout changes.
        """
        if not self._delta_count:
            return
        num_blocks = np.int64(self.num_blocks)
        d_keys = np.empty(self._delta_count, dtype=np.int64)
        d_vals = np.empty(self._delta_count, dtype=np.int64)
        pos = 0
        for i, row in self._delta_rows.items():
            for j, d in row.items():
                d_keys[pos] = i * num_blocks + j
                d_vals[pos] = d
                pos += 1
        all_keys = np.concatenate([self.flat_keys, d_keys])
        all_vals = np.concatenate([self.data, d_vals])
        unique_keys, inverse = np.unique(all_keys, return_inverse=True)
        values = np.bincount(inverse, weights=all_vals, minlength=unique_keys.shape[0])
        values = values.astype(np.int64)
        if values.size and int(values.min()) < 0:
            raise AssertionError("delta buffer drove a block matrix entry negative")
        keep = values > 0
        self._rebuild(unique_keys[keep], values[keep])

    def _maybe_compact(self) -> None:
        if self._delta_count > max(_COMPACT_MIN, self.data.shape[0] >> _COMPACT_SHIFT):
            self.compact()

    def _delta_at(self, i: int, j: int) -> int:
        row = self._delta_rows.get(i)
        if row is None:
            return 0
        return row.get(j, 0)

    # ------------------------------------------------------------------
    # Scalar element access
    # ------------------------------------------------------------------
    def _base_get(self, i: int, j: int) -> int:
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        pos = lo + int(np.searchsorted(self.indices[lo:hi], j))
        if pos < hi and int(self.indices[pos]) == j:
            return int(self.data[pos])
        return 0

    def get(self, i: int, j: int) -> int:
        """Return entry ``(i, j)`` (0 when absent)."""
        if not (0 <= i < self.num_blocks and 0 <= j < self.num_blocks):
            raise IndexError(f"block matrix entry ({i}, {j}) out of range")
        return self._base_get(i, j) + self._delta_at(i, j)

    def add(self, i: int, j: int, delta: int) -> None:
        """Add ``delta`` to entry ``(i, j)``; negative totals are an error."""
        if delta == 0:
            return
        i, j, delta = int(i), int(j), int(delta)
        if not (0 <= i < self.num_blocks and 0 <= j < self.num_blocks):
            raise IndexError(f"block matrix entry ({i}, {j}) out of range")
        new_val = self.get(i, j) + delta
        if new_val < 0:
            raise ValueError(f"block matrix entry ({i}, {j}) would become negative ({new_val})")
        self._bump_delta(i, j, delta)
        self._row_sums[i] += delta
        self._col_sums[j] += delta
        self._maybe_compact()

    def _bump_delta(self, i: int, j: int, delta: int) -> None:
        row = self._delta_rows.setdefault(i, {})
        new_d = row.get(j, 0) + delta
        col = self._delta_cols.setdefault(j, {})
        if new_d == 0:
            del row[j]
            del col[i]
            if not row:
                del self._delta_rows[i]
            if not col:
                del self._delta_cols[j]
            self._delta_count -= 1
        else:
            if j not in row:
                self._delta_count += 1
            row[j] = new_d
            col[i] = new_d

    def set(self, i: int, j: int, value: int) -> None:
        """Set entry ``(i, j)`` to ``value`` (must be non-negative)."""
        if value < 0:
            raise ValueError("block matrix entries must be non-negative")
        self.add(i, j, int(value) - self.get(int(i), int(j)))

    # ------------------------------------------------------------------
    # Batched access
    # ------------------------------------------------------------------
    def get_many(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Gather many entries at once: one searchsorted over the flat keys."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and not (
            0 <= int(rows.min())
            and int(rows.max()) < self.num_blocks
            and 0 <= int(cols.min())
            and int(cols.max()) < self.num_blocks
        ):
            # Without this, an out-of-range column would alias onto another
            # entry through the row·B + col flat key.
            raise IndexError("get_many indices out of range")
        out = np.zeros(rows.shape, dtype=np.int64)
        if self.flat_keys.size:
            keys = rows * np.int64(self.num_blocks) + cols
            pos = np.searchsorted(self.flat_keys, keys)
            pos_clipped = np.minimum(pos, self.flat_keys.shape[0] - 1)
            found = self.flat_keys[pos_clipped] == keys
            out = np.where(found, self.data[pos_clipped], 0)
        if self._delta_count:
            # Only positions whose row has buffered deltas need the overlay.
            delta_row_ids = np.fromiter(
                self._delta_rows.keys(), dtype=np.int64, count=len(self._delta_rows)
            )
            touched = np.flatnonzero(np.isin(rows, delta_row_ids))
            if touched.size:
                out = np.array(out, dtype=np.int64)
                flat_r = rows.ravel()
                flat_c = cols.ravel()
                flat_out = out.ravel()
                for k in touched.tolist():
                    flat_out[k] += self._delta_at(int(flat_r[k]), int(flat_c[k]))
        return out

    def add_many(self, rows: np.ndarray, cols: np.ndarray, deltas: np.ndarray) -> None:
        """Scatter-add many deltas (duplicate positions accumulate).

        Buffered in the COO delta overlay; the negativity invariant is
        enforced per final position, exactly like the other backends.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        # Aggregate duplicates first so the negativity check sees final
        # values, and validate every position before applying any — the
        # batch either applies completely or not at all, like the dense
        # backend's rollback.
        agg: Dict[Tuple[int, int], int] = {}
        for i, j, d in zip(rows.tolist(), cols.tolist(), deltas.tolist()):
            if d:
                key = (i, j)
                agg[key] = agg.get(key, 0) + d
        for (i, j), d in agg.items():
            if d == 0:
                continue
            if not (0 <= i < self.num_blocks and 0 <= j < self.num_blocks):
                raise IndexError(f"block matrix entry ({i}, {j}) out of range")
            if self.get(i, j) + d < 0:
                raise ValueError("add_many would make a block matrix entry negative")
        for (i, j), d in agg.items():
            if d == 0:
                continue
            self._bump_delta(i, j, d)
            self._row_sums[i] += d
            self._col_sums[j] += d
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Row / column views
    # ------------------------------------------------------------------
    def row(self, i: int) -> Dict[int, int]:
        """Non-zero entries of row ``i`` as ``{column: count}`` (snapshot)."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        out = dict(zip(self.indices[lo:hi].tolist(), self.data[lo:hi].tolist()))
        delta = self._delta_rows.get(int(i))
        if delta:
            for j, d in delta.items():
                new_val = out.get(j, 0) + d
                if new_val:
                    out[j] = new_val
                else:
                    out.pop(j, None)
        return out

    def col(self, j: int) -> Dict[int, int]:
        """Non-zero entries of column ``j`` as ``{row: count}`` (snapshot)."""
        lo, hi = int(self.t_indptr[j]), int(self.t_indptr[j + 1])
        out = dict(zip(self.t_indices[lo:hi].tolist(), self.t_data[lo:hi].tolist()))
        delta = self._delta_cols.get(int(j))
        if delta:
            for i, d in delta.items():
                new_val = out.get(i, 0) + d
                if new_val:
                    out[i] = new_val
                else:
                    out.pop(i, None)
        return out

    def row_entries(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s ``(columns, values)``, ascending; zero-copy when clean."""
        i = int(i)
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        if i not in self._delta_rows:
            return self.indices[lo:hi], self.data[lo:hi]
        merged = self.row(i)
        cols = np.asarray(sorted(merged), dtype=np.int64)
        vals = np.asarray([merged[int(j)] for j in cols.tolist()], dtype=np.int64)
        return cols, vals

    def col_entries(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``j``'s ``(rows, values)``, ascending; zero-copy when clean."""
        j = int(j)
        lo, hi = int(self.t_indptr[j]), int(self.t_indptr[j + 1])
        if j not in self._delta_cols:
            return self.t_indices[lo:hi], self.t_data[lo:hi]
        merged = self.col(j)
        rows = np.asarray(sorted(merged), dtype=np.int64)
        vals = np.asarray([merged[int(i)] for i in rows.tolist()], dtype=np.int64)
        return rows, vals

    def row_sum(self, i: int) -> int:
        return int(self._row_sums[i])

    def col_sum(self, j: int) -> int:
        return int(self._col_sums[j])

    def row_sums(self) -> np.ndarray:
        return self._row_sums.copy()

    def col_sums(self) -> np.ndarray:
        return self._col_sums.copy()

    # ------------------------------------------------------------------
    # Whole-matrix operations
    # ------------------------------------------------------------------
    def total(self) -> int:
        """Sum of all entries (the number of edges in the graph)."""
        return int(self._row_sums.sum())

    def nnz(self) -> int:
        """Number of non-zero entries (compacts the buffer first)."""
        self.compact()
        return int(self.data.shape[0])

    def entries(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over non-zero ``(i, j, value)`` entries, row-major."""
        self.compact()
        for i, j, v in zip(self.nnz_rows.tolist(), self.indices.tolist(), self.data.tolist()):
            yield i, j, v

    def nonzero_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, value)`` arrays over the non-zero entries, row-major."""
        self.compact()
        return self.nnz_rows, self.indices, self.data

    def csr_structure(self) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Zero-copy CSR/CSC views (the merge kernel's substrate)."""
        self.compact()
        return (
            (self.indices, self.data, self.indptr),
            (self.t_indices, self.t_data, self.t_indptr),
        )

    # ------------------------------------------------------------------
    # Clone / conversion / validation
    # ------------------------------------------------------------------
    def copy(self) -> "SparseCSRBlockMatrix":
        """Independent deep copy (compacts first so both sides start clean)."""
        self.compact()
        out = SparseCSRBlockMatrix.__new__(SparseCSRBlockMatrix)
        out.num_blocks = self.num_blocks
        out.indptr = self.indptr.copy()
        out.indices = self.indices.copy()
        out.data = self.data.copy()
        out.nnz_rows = self.nnz_rows.copy()
        out.flat_keys = self.flat_keys.copy()
        out.t_indptr = self.t_indptr.copy()
        out.t_indices = self.t_indices.copy()
        out.t_data = self.t_data.copy()
        out._row_sums = self._row_sums.copy()
        out._col_sums = self._col_sums.copy()
        out._delta_rows = {}
        out._delta_cols = {}
        out._delta_count = 0
        return out

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``B × B`` array — tests and tiny graphs only."""
        self.compact()
        mat = np.zeros((self.num_blocks, self.num_blocks), dtype=np.int64)
        if self.data.size:
            mat[self.nnz_rows, self.indices] = self.data
        return mat

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "SparseCSRBlockMatrix":
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("block matrix must be square")
        if np.any(matrix < 0):
            raise ValueError("block matrix entries must be non-negative")
        out = cls(matrix.shape[0])
        i, j = np.nonzero(matrix)
        if i.size:
            keys = i.astype(np.int64) * np.int64(out.num_blocks) + j.astype(np.int64)
            out._rebuild(keys, matrix[i, j].astype(np.int64))
        return out

    def check_consistent(self) -> None:
        """Verify compressed arrays, transpose, buffer and marginals agree."""
        if np.any(self.data <= 0):
            raise AssertionError("base CSR holds a non-positive entry")
        if self.indptr.shape != (self.num_blocks + 1,) or int(self.indptr[-1]) != self.data.shape[0]:
            raise AssertionError("row pointer inconsistent with stored entries")
        for i in range(self.num_blocks):
            lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
            seg = self.indices[lo:hi]
            if seg.size > 1 and np.any(np.diff(seg) <= 0):
                raise AssertionError(f"row {i} columns not strictly increasing")
        expected_keys = self.nnz_rows * np.int64(self.num_blocks) + self.indices
        if not np.array_equal(self.flat_keys, expected_keys):
            raise AssertionError("flat keys out of sync with CSR arrays")
        # Transpose must hold exactly the same entries.
        order = np.lexsort((self.nnz_rows, self.indices))
        if not (
            np.array_equal(self.t_indices, self.nnz_rows[order])
            and np.array_equal(self.t_data, self.data[order])
        ):
            raise AssertionError("transpose out of sync with CSR arrays")
        # Effective (base + buffer) values must be non-negative and the
        # cached marginals must equal their recomputation.
        row_sums = np.bincount(
            self.nnz_rows, weights=self.data, minlength=self.num_blocks
        ).astype(np.int64)
        col_sums = np.bincount(
            self.indices, weights=self.data, minlength=self.num_blocks
        ).astype(np.int64)
        for i, row in self._delta_rows.items():
            for j, d in row.items():
                if self._delta_cols.get(j, {}).get(i) != d:
                    raise AssertionError(f"delta transpose mismatch at ({i}, {j})")
                if self._base_get(i, j) + d < 0:
                    raise AssertionError(f"negative effective entry at ({i}, {j})")
                row_sums[i] += d
                col_sums[j] += d
        if not np.array_equal(self._row_sums, row_sums):
            raise AssertionError("cached row sums out of sync")
        if not np.array_equal(self._col_sums, col_sums):
            raise AssertionError("cached column sums out of sync")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseCSRBlockMatrix):
            # Sparse-to-sparse comparison never densifies.
            self.compact()
            other.compact()
            return (
                self.num_blocks == other.num_blocks
                and np.array_equal(self.flat_keys, other.flat_keys)
                and np.array_equal(self.data, other.data)
            )
        if hasattr(other, "to_dense") and hasattr(other, "num_blocks"):
            return self.num_blocks == other.num_blocks and np.array_equal(
                self.to_dense(), other.to_dense()
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseCSRBlockMatrix(B={self.num_blocks}, nnz={self.data.shape[0]}, "
            f"buffered={self._delta_count})"
        )
