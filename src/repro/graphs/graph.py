"""An immutable directed multigraph stored in compressed sparse form.

SBP's inner loops iterate over a vertex's out-, in-, and combined
neighbourhoods and need weighted degrees; they never mutate the graph.  The
:class:`Graph` therefore builds two CSR-style structures once at
construction time (out and in adjacency) and exposes cheap NumPy-array
views into them; the combined neighbourhood is the out view followed by the
in view.

Parallel edges in the input are aggregated into integer edge weights, which
is exactly how the degree-corrected SBM treats multi-edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph"]


def _build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (indptr, indices, data) for edges grouped by ``src``."""
    order = np.argsort(src, kind="stable")
    src_sorted = src[order]
    indices = dst[order]
    data = weights[order]
    counts = np.bincount(src_sorted, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices.astype(np.int64), data.astype(np.int64)


@dataclass(frozen=True)
class _CSR:
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def weights(self, v: int) -> np.ndarray:
        return self.data[self.indptr[v] : self.indptr[v + 1]]


class Graph:
    """A directed multigraph with integer edge weights.

    Construct with :meth:`from_edges` (preferred) or :meth:`from_adjacency`.
    Vertices are integers ``0..num_vertices-1``.  An optional
    ``true_assignment`` array carries planted ground-truth community labels
    for synthetic graphs (used by the NMI evaluation); real-world graphs set
    it to ``None``.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "_out",
        "_in",
        "out_degrees",
        "in_degrees",
        "degrees",
        "true_assignment",
        "name",
    )

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
        true_assignment: Optional[np.ndarray] = None,
        name: str = "",
        aggregate: bool = True,
    ) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if weights is None:
            weights = np.ones(src.shape[0], dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != src.shape:
                raise ValueError("weights must match the number of edges")
            if np.any(weights <= 0):
                raise ValueError("edge weights must be positive integers")
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise ValueError("source vertex id out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
            raise ValueError("destination vertex id out of range")

        if aggregate and src.size:
            # Collapse parallel edges into weights.
            keys = src * np.int64(num_vertices) + dst
            uniq, inverse = np.unique(keys, return_inverse=True)
            agg = np.zeros(uniq.shape[0], dtype=np.int64)
            np.add.at(agg, inverse, weights)
            src = (uniq // num_vertices).astype(np.int64)
            dst = (uniq % num_vertices).astype(np.int64)
            weights = agg

        self.num_vertices = int(num_vertices)
        self.num_edges = int(weights.sum()) if weights.size else 0
        self._out = _CSR(*_build_csr(num_vertices, src, dst, weights))
        self._in = _CSR(*_build_csr(num_vertices, dst, src, weights))

        self.out_degrees = np.zeros(num_vertices, dtype=np.int64)
        self.in_degrees = np.zeros(num_vertices, dtype=np.int64)
        if src.size:
            np.add.at(self.out_degrees, src, weights)
            np.add.at(self.in_degrees, dst, weights)
        self.degrees = self.out_degrees + self.in_degrees

        if true_assignment is not None:
            true_assignment = np.asarray(true_assignment, dtype=np.int64)
            if true_assignment.shape != (num_vertices,):
                raise ValueError("true_assignment must have one label per vertex")
        self.true_assignment = true_assignment
        self.name = name

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]] | np.ndarray,
        weights: Optional[Sequence[int]] = None,
        true_assignment: Optional[np.ndarray] = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array of vertex pairs")
        w = None if weights is None else np.asarray(weights, dtype=np.int64)
        return cls(num_vertices, arr[:, 0], arr[:, 1], w, true_assignment, name)

    @classmethod
    def from_adjacency(cls, matrix: np.ndarray, true_assignment: Optional[np.ndarray] = None, name: str = "") -> "Graph":
        """Build a graph from a dense adjacency (multiplicity) matrix."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("adjacency matrix must be square")
        src, dst = np.nonzero(matrix)
        weights = matrix[src, dst].astype(np.int64)
        return cls(matrix.shape[0], src, dst, weights, true_assignment, name)

    @classmethod
    def empty(cls, num_vertices: int, name: str = "") -> "Graph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return cls(num_vertices, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), name=name)

    # ------------------------------------------------------------------
    # Neighbourhood access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Distinct out-neighbours of ``v`` (weights via :meth:`out_weights`)."""
        return self._out.neighbors(v)

    def out_weights(self, v: int) -> np.ndarray:
        return self._out.weights(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        return self._in.neighbors(v)

    def in_weights(self, v: int) -> np.ndarray:
        return self._in.weights(v)

    def neighbors(self, v: int) -> np.ndarray:
        """Combined neighbourhood of ``v``: out-neighbours, then in-neighbours.

        May repeat a vertex.  Built on each call; hot paths read the out and
        in views separately instead.
        """
        return np.concatenate([self._out.neighbors(v), self._in.neighbors(v)])

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights matching :meth:`neighbors`, in the same order."""
        return np.concatenate([self._out.weights(v), self._in.weights(v)])

    def out_adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` of the out-adjacency CSR structure.

        Vertex ``v``'s out-neighbours are ``indices[indptr[v]:indptr[v+1]]``
        with weights ``data[indptr[v]:indptr[v+1]]``.  The arrays are the
        graph's own storage; callers must treat them as read-only.  The
        vectorized blockmodel kernels use these to gather whole batches of
        neighbourhoods without per-vertex Python calls.
        """
        return self._out.indptr, self._out.indices, self._out.data

    def in_adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` of the in-adjacency CSR structure."""
        return self._in.indptr, self._in.indices, self._in.data

    def out_degree(self, v: int) -> int:
        return int(self.out_degrees[v])

    def in_degree(self, v: int) -> int:
        return int(self.in_degrees[v])

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    # ------------------------------------------------------------------
    # Edge views
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate ``(src, dst, weight)`` over distinct directed edges."""
        for v in range(self.num_vertices):
            nbrs = self._out.neighbors(v)
            wts = self._out.weights(v)
            for u, w in zip(nbrs, wts):
                yield int(v), int(u), int(w)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, weight)`` arrays over distinct directed edges."""
        counts = np.diff(self._out.indptr)
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), counts)
        return src, self._out.indices.copy(), self._out.data.copy()

    def num_distinct_edges(self) -> int:
        return int(self._out.indices.shape[0])

    # ------------------------------------------------------------------
    # Derived properties and conversions
    # ------------------------------------------------------------------
    @property
    def density(self) -> float:
        """Edges over possible directed edges (ignoring multiplicities)."""
        if self.num_vertices <= 1:
            return 0.0
        return self.num_distinct_edges() / (self.num_vertices * (self.num_vertices - 1))

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return float(self.degrees.mean())

    def isolated_vertices(self) -> np.ndarray:
        """Vertices with no in- or out-edges."""
        return np.flatnonzero(self.degrees == 0)

    def to_dense(self) -> np.ndarray:
        """Dense adjacency (multiplicity) matrix — for tests on small graphs."""
        mat = np.zeros((self.num_vertices, self.num_vertices), dtype=np.int64)
        src, dst, w = self.edge_arrays()
        mat[src, dst] = w
        return mat

    def to_networkx(self):
        """Convert to a :class:`networkx.MultiDiGraph` (weights preserved)."""
        import networkx as nx

        g = nx.MultiDiGraph()
        g.add_nodes_from(range(self.num_vertices))
        for s, d, w in self.edges():
            g.add_edge(s, d, weight=w)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"Graph({label} V={self.num_vertices}, E={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self._out.indptr, other._out.indptr)
            and np.array_equal(self._out.indices, other._out.indices)
            and np.array_equal(self._out.data, other._out.data)
        )

    def __hash__(self) -> int:  # Graphs are hashable by identity.
        return id(self)
