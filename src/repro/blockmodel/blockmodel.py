"""The degree-corrected SBM state: assignment, block matrix, block degrees.

A :class:`Blockmodel` couples a graph with a vertex-to-block assignment and
maintains, incrementally, everything the SBP inner loops need:

* the sparse block matrix ``M`` (and its transpose) of inter-block edge
  counts,
* per-block weighted out-/in-degrees,
* per-block vertex counts.

Vertex moves are applied in place via :meth:`move_vertex`; block merges are
applied by relabelling the assignment and rebuilding
(:meth:`from_assignment`), mirroring how the reference SBP implementations
rebuild the model between phases.  Every build picks its storage through one
selection point: the default ``"auto"`` policy stores the block matrix
densely up to :data:`DENSE_BLOCK_LIMIT` blocks and as ``"sparse_csr"``
above it, so a run that starts sparse at one block per vertex turns dense at
the first rebuild where the block count fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.blockmodel.backend import (
    BlockMatrixBackend,
    available_backends,
    get_backend,
    register_policy,
)

# Importing the implementation modules populates the backend registry.
from repro.blockmodel.dense_matrix import DenseBlockMatrix  # noqa: F401
from repro.blockmodel.sparse_csr_matrix import SparseCSRBlockMatrix  # noqa: F401
from repro.blockmodel import entropy as entropy_mod
from repro.graphs.graph import Graph

__all__ = ["VertexBlockCounts", "Blockmodel", "MATRIX_BACKENDS", "DENSE_BLOCK_LIMIT"]

#: Largest block count the ``"auto"`` policy stores densely.  In
#: ``benchmarks/test_sparse_backend_scaling.py`` (V=4096, merge phase plus
#: one batch-Gibbs sweep) dense and ``"sparse_csr"`` are level at B=1024,
#: and dense is slower from B=2048 on while its O(B²) array grows to 32 MB.
DENSE_BLOCK_LIMIT = 1024

register_policy(
    "auto", lambda num_blocks: "dense" if num_blocks <= DENSE_BLOCK_LIMIT else "sparse_csr"
)

#: Import-time snapshot of the registered storage names: the ``"auto"``
#: policy, the ``"dense"`` array and the scipy-free ``"sparse_csr"``
#: representation.  Kept for test parametrization and documentation;
#: *validation* always consults the live registry
#: (:func:`repro.blockmodel.backend.available_backends`) so names
#: registered after import are accepted everywhere.
MATRIX_BACKENDS = tuple(available_backends())


@dataclass
class VertexBlockCounts:
    """Edge weights from/to one vertex, grouped by the neighbours' blocks.

    ``out_counts[b]`` is the total weight of edges ``v → u`` with ``u ≠ v``
    assigned to block ``b``; ``in_counts[b]`` the same for edges ``u → v``.
    Self-loops are tracked separately because they stay within the vertex's
    own block before and after a move.
    """

    out_counts: Dict[int, int]
    in_counts: Dict[int, int]
    self_loop: int = 0

    @property
    def out_total(self) -> int:
        return sum(self.out_counts.values()) + self.self_loop

    @property
    def in_total(self) -> int:
        return sum(self.in_counts.values()) + self.self_loop


class Blockmodel:
    """Mutable DCSBM state over a fixed graph."""

    __slots__ = (
        "graph",
        "assignment",
        "num_blocks",
        "matrix",
        "block_out_degrees",
        "block_in_degrees",
        "block_sizes",
        "matrix_policy",
    )

    def __init__(
        self,
        graph: Graph,
        assignment: np.ndarray,
        num_blocks: int,
        matrix: BlockMatrixBackend,
        block_out_degrees: np.ndarray,
        block_in_degrees: np.ndarray,
        block_sizes: np.ndarray,
        matrix_policy: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.assignment = assignment
        self.num_blocks = int(num_blocks)
        self.matrix = matrix
        self.block_out_degrees = block_out_degrees
        self.block_in_degrees = block_in_degrees
        self.block_sizes = block_sizes
        #: The storage name rebuilds pass on: a policy such as ``"auto"``
        #: (re-evaluated at every rebuild) or a concrete backend name.
        self.matrix_policy = matrix_policy or matrix.backend

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        num_blocks: Optional[int] = None,
        matrix_backend: str = "auto",
    ) -> "Blockmodel":
        """Initial blockmodel: every vertex in its own block (the SBP start).

        Passing ``num_blocks`` smaller than ``graph.num_vertices`` assigns
        vertices round-robin to that many blocks instead (useful for tests
        and for building models at a prescribed granularity).
        ``matrix_backend`` selects the block matrix storage (see
        :data:`MATRIX_BACKENDS`); rebuilds triggered by merges pass it on.
        """
        if num_blocks is None or num_blocks >= graph.num_vertices:
            assignment = np.arange(graph.num_vertices, dtype=np.int64)
            num_blocks = graph.num_vertices
        else:
            assignment = np.arange(graph.num_vertices, dtype=np.int64) % num_blocks
        return cls.from_assignment(graph, assignment, num_blocks, matrix_backend=matrix_backend)

    @classmethod
    def from_assignment(
        cls,
        graph: Graph,
        assignment: Sequence[int] | np.ndarray,
        num_blocks: Optional[int] = None,
        relabel: bool = False,
        matrix_backend: str = "auto",
    ) -> "Blockmodel":
        """Build the block matrix and degrees for a given assignment.

        Parameters
        ----------
        relabel:
            If ``True``, block labels are first compacted to ``0..B-1``
            preserving order of first appearance by label value (i.e. the
            sorted unique labels are mapped to consecutive integers).
        matrix_backend:
            Block matrix storage, resolved against the backend registry
            (:func:`repro.blockmodel.backend.get_backend`): ``"auto"``
            (dense up to :data:`DENSE_BLOCK_LIMIT` blocks, sparse above),
            ``"dense"`` (numpy array with cached marginals) or
            ``"sparse_csr"`` (scipy-free CSR/COO, no dense memory bound).
            The blockmodel keeps the name as :attr:`matrix_policy`.
        """
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        if assignment.shape != (graph.num_vertices,):
            raise ValueError("assignment must label every vertex")
        if relabel:
            _, assignment = np.unique(assignment, return_inverse=True)
            assignment = assignment.astype(np.int64)
        if num_blocks is None:
            num_blocks = int(assignment.max()) + 1 if assignment.size else 0
        if assignment.size and (assignment.min() < 0 or assignment.max() >= num_blocks):
            raise ValueError("assignment labels must lie in [0, num_blocks)")

        src, dst, w = graph.edge_arrays()
        bsrc = assignment[src]
        bdst = assignment[dst]
        backend_cls = get_backend(matrix_backend, num_blocks)  # ValueError lists the registry
        matrix = backend_cls.from_block_edges(num_blocks, bsrc, bdst, w)

        block_out = np.zeros(num_blocks, dtype=np.int64)
        block_in = np.zeros(num_blocks, dtype=np.int64)
        if src.size:
            np.add.at(block_out, bsrc, w)
            np.add.at(block_in, bdst, w)
        sizes = np.bincount(assignment, minlength=num_blocks).astype(np.int64)
        return cls(
            graph, assignment, num_blocks, matrix, block_out, block_in, sizes, matrix_backend
        )

    def refresh_derived_state(self) -> None:
        """Recompute matrix, block degrees and sizes from the assignment.

        Used by the vectorized sweep path after editing ``assignment``
        directly: the derived state is a pure function of the assignment, so
        one vectorized rebuild replaces many per-move incremental updates.
        """
        rebuilt = Blockmodel.from_assignment(
            self.graph, self.assignment, self.num_blocks, matrix_backend=self.matrix_policy
        )
        self.matrix = rebuilt.matrix
        self.block_out_degrees = rebuilt.block_out_degrees
        self.block_in_degrees = rebuilt.block_in_degrees
        self.block_sizes = rebuilt.block_sizes

    def copy(self) -> "Blockmodel":
        """Deep copy (graph is shared; all mutable state is duplicated)."""
        return Blockmodel(
            self.graph,
            self.assignment.copy(),
            self.num_blocks,
            self.matrix.copy(),
            self.block_out_degrees.copy(),
            self.block_in_degrees.copy(),
            self.block_sizes.copy(),
            self.matrix_policy,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def block_total_degrees(self) -> np.ndarray:
        return self.block_out_degrees + self.block_in_degrees

    @property
    def matrix_backend(self) -> str:
        """Registry name of the concrete block matrix storage backend."""
        return self.matrix.backend

    def block_of(self, v: int) -> int:
        return int(self.assignment[v])

    def nonempty_blocks(self) -> np.ndarray:
        return np.flatnonzero(self.block_sizes > 0)

    def num_nonempty_blocks(self) -> int:
        return int(np.count_nonzero(self.block_sizes > 0))

    # ------------------------------------------------------------------
    # Description length
    # ------------------------------------------------------------------
    def description_length(self) -> float:
        """Exact DL (Eq. 2) of the current state."""
        return entropy_mod.description_length(self)

    def log_likelihood(self) -> float:
        return entropy_mod.log_likelihood(self)

    def normalized_description_length(self) -> float:
        return entropy_mod.normalized_description_length(self.description_length(), self.graph)

    # ------------------------------------------------------------------
    # Vertex moves
    # ------------------------------------------------------------------
    def vertex_block_counts(self, v: int) -> VertexBlockCounts:
        """Group vertex ``v``'s edges by the current block of each neighbour."""
        out_counts: Dict[int, int] = {}
        in_counts: Dict[int, int] = {}
        self_loop = 0
        graph = self.graph
        assignment = self.assignment
        for u, w in zip(graph.out_neighbors(v).tolist(), graph.out_weights(v).tolist()):
            if u == v:
                self_loop += w
            else:
                b = int(assignment[u])
                out_counts[b] = out_counts.get(b, 0) + w
        for u, w in zip(graph.in_neighbors(v).tolist(), graph.in_weights(v).tolist()):
            if u == v:
                continue  # already counted as the self-loop above
            b = int(assignment[u])
            in_counts[b] = in_counts.get(b, 0) + w
        return VertexBlockCounts(out_counts, in_counts, self_loop)

    def move_vertex(self, v: int, to_block: int, counts: Optional[VertexBlockCounts] = None) -> None:
        """Move vertex ``v`` to ``to_block`` and update all derived state.

        ``counts`` may be supplied when the caller already computed
        :meth:`vertex_block_counts` for the proposal evaluation; it must
        reflect the *current* assignment.
        """
        from_block = int(self.assignment[v])
        to_block = int(to_block)
        if to_block < 0 or to_block >= self.num_blocks:
            raise ValueError(f"target block {to_block} out of range [0, {self.num_blocks})")
        if from_block == to_block:
            return
        if counts is None:
            counts = self.vertex_block_counts(v)

        # Batched scatter-add: one numpy call instead of 2×(deg) scalar adds.
        rows: list = []
        cols: list = []
        deltas: list = []
        for b, w in counts.out_counts.items():
            rows += (from_block, to_block)
            cols += (b, b)
            deltas += (-w, w)
        for b, w in counts.in_counts.items():
            rows += (b, b)
            cols += (from_block, to_block)
            deltas += (-w, w)
        if counts.self_loop:
            rows += (from_block, to_block)
            cols += (from_block, to_block)
            deltas += (-counts.self_loop, counts.self_loop)
        if rows:
            self.matrix.add_many(
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
                np.asarray(deltas, dtype=np.int64),
            )

        out_total = counts.out_total
        in_total = counts.in_total
        self.block_out_degrees[from_block] -= out_total
        self.block_out_degrees[to_block] += out_total
        self.block_in_degrees[from_block] -= in_total
        self.block_in_degrees[to_block] += in_total
        self.block_sizes[from_block] -= 1
        self.block_sizes[to_block] += 1
        self.assignment[v] = to_block

    def apply_moves(
        self, vertices: Sequence[int] | np.ndarray, targets: Sequence[int] | np.ndarray
    ) -> None:
        """Move each ``vertices[k]`` to ``targets[k]``, in order.

        The derived state (matrix, degrees, sizes) is a pure function of the
        assignment, so a large set of moves is applied as one vectorized
        rebuild instead of one incremental update per move; small sets stay
        incremental.  Both paths produce identical integer state.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if vertices.size >= 64 and vertices.size * 100 >= self.num_vertices:
            # A vertex's last move wins, as when applied one at a time.
            last = vertices.size - 1 - np.unique(vertices[::-1], return_index=True)[1]
            self.assignment[vertices[last]] = targets[last]
            self.refresh_derived_state()
            return
        for v, t in zip(vertices.tolist(), targets.tolist()):
            self.move_vertex(v, t)

    # ------------------------------------------------------------------
    # Block merges
    # ------------------------------------------------------------------
    def apply_block_merges(self, merge_target: np.ndarray) -> "Blockmodel":
        """Apply a merge mapping and return the rebuilt, relabelled model.

        ``merge_target[b]`` is the (old-label) block that block ``b`` should
        be merged into; non-merged blocks map to themselves.  Chains are
        resolved (if ``a → b`` and ``b → c`` then ``a → c``).
        """
        merge_target = np.asarray(merge_target, dtype=np.int64)
        if merge_target.shape != (self.num_blocks,):
            raise ValueError("merge_target must have one entry per block")
        resolved = resolve_merge_chain(merge_target)
        new_assignment = resolved[self.assignment]
        return Blockmodel.from_assignment(
            self.graph, new_assignment, relabel=True, matrix_backend=self.matrix_policy
        )

    # ------------------------------------------------------------------
    # Sampling helpers used by the MCMC proposal distribution
    # ------------------------------------------------------------------
    def sample_neighbor_block(
        self, block: int, rng: np.random.Generator, cumsum_cache: Optional[Dict] = None
    ) -> int:
        """Sample a block adjacent to ``block`` ∝ its edge multiplicities.

        Considers both out-edges (row) and in-edges (column) of ``block``:
        a cumulative-sum search over the row's non-zero entries, then (for
        draws beyond the row total) over the column's.  Entries are scanned
        in ascending block order on every backend, so a given RNG draw
        selects the same block regardless of storage.  Returns ``-1`` if
        ``block`` has no incident edges.

        ``cumsum_cache`` memoizes the per-block cumulative sums across
        calls; callers that sample the same blocks many times while the
        blockmodel is *frozen* — the merge-proposal loop — pass a dict they
        own.  Caching changes neither the RNG consumption nor the result.
        """
        total = int(self.block_out_degrees[block]) + int(self.block_in_degrees[block])
        if total <= 0:
            return -1
        target = int(rng.integers(0, total))
        matrix = self.matrix
        row_total = matrix.row_sum(block)
        if target < row_total:
            key, entries = ("row", block), matrix.row_entries
        else:
            key, entries = ("col", block), matrix.col_entries
            target -= row_total
        cached = cumsum_cache.get(key) if cumsum_cache is not None else None
        if cached is None:
            idx, vals = entries(block)
            cached = (np.cumsum(vals), idx)
            if cumsum_cache is not None:
                cumsum_cache[key] = cached
        cum, idx = cached
        return int(idx[np.searchsorted(cum, target, side="right")])

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify matrix/degrees/sizes against a from-scratch rebuild.

        Raises ``AssertionError`` on any mismatch.  Used by the test suite
        and by the distributed algorithms' debug mode to confirm that
        incremental updates and blockmodel synchronisation preserved the
        invariants.
        """
        rebuilt = Blockmodel.from_assignment(
            self.graph, self.assignment, self.num_blocks, matrix_backend=self.matrix_policy
        )
        self.matrix.check_consistent()
        if self.matrix != rebuilt.matrix:
            raise AssertionError("block matrix out of sync with assignment")
        if not np.array_equal(self.block_out_degrees, rebuilt.block_out_degrees):
            raise AssertionError("block out-degrees out of sync")
        if not np.array_equal(self.block_in_degrees, rebuilt.block_in_degrees):
            raise AssertionError("block in-degrees out of sync")
        if not np.array_equal(self.block_sizes, rebuilt.block_sizes):
            raise AssertionError("block sizes out of sync")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Blockmodel(V={self.num_vertices}, E={self.num_edges}, "
            f"B={self.num_blocks}, nonempty={self.num_nonempty_blocks()})"
        )


def resolve_merge_chain(merge_target: np.ndarray) -> np.ndarray:
    """Resolve chained merge targets so every block maps to a terminal block.

    This is the pointer-chasing counterpart of the paper's "pointer-based
    scheme to keep track of the community merges" (optimisation (d)): when
    block ``a`` merges into ``b`` and ``b`` later merges into ``c``, block
    ``a`` must end up in ``c``.  Cycles (``a → b → a``) are collapsed onto
    the smallest label in the cycle.  The result is a fixpoint: every
    resolved target maps to itself.
    """
    merge_target = np.asarray(merge_target, dtype=np.int64).copy()
    for b in range(merge_target.shape[0]):
        path = []
        on_path = set()
        target = int(b)
        while merge_target[target] != target and target not in on_path:
            path.append(target)
            on_path.add(target)
            target = int(merge_target[target])
        if merge_target[target] != target:
            # ``target`` re-entered the current path: it is the cycle entry.
            cycle = [target]
            node = int(merge_target[target])
            while node != target:
                cycle.append(node)
                node = int(merge_target[node])
            target = min(cycle)
            merge_target[target] = target
        # Path compression: everything chased points straight at the terminal,
        # so later look-ups stay consistent and terminal blocks never move.
        for node in path:
            merge_target[node] = target
    return merge_target
