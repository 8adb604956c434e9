"""Shared-memory graph ingestion for the multiprocess transport.

A :class:`~repro.graphs.graph.Graph` is immutable after construction and
consists almost entirely of NumPy arrays (out- and in-adjacency CSR
structures plus degree and ground-truth vectors).  Shipping it to worker processes by pickle would
copy the whole edge list once per rank; instead, :func:`share_graph` packs
every array into **one** ``multiprocessing.shared_memory`` segment and
returns a :class:`SharedGraph` descriptor — a few hundred bytes of names,
shapes and offsets.  Workers call :meth:`SharedGraph.attach` to rebuild a
fully functional ``Graph`` whose arrays are read-only views into the shared
segment, so N ranks map one physical copy of the adjacency structure no
matter how large the graph is.

Lifecycle: the *launcher* owns the segment — it creates it, keeps it alive
while workers run, and calls :meth:`SharedGraph.close` (which unlinks) when
the run is over.  Workers only ever attach; attached handles are parked in
a module-level registry so the mappings outlive the attaching frame.
Workers are forked, so they share the launcher's ``resource_tracker``
process and their attach-time registrations (Python < 3.13 tracks
attachments too) are idempotent no-ops against the launcher's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph, _CSR

__all__ = ["SharedGraph", "share_graph"]

#: The Graph arrays exported into the segment, in a fixed order.  CSR
#: structures are flattened to ``<view>_<component>`` entries.
_CSR_VIEWS = ("out", "in")
_CSR_PARTS = ("indptr", "indices", "data")
_VECTORS = ("out_degrees", "in_degrees", "degrees")


@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside the shared segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass
class SharedGraph:
    """A picklable descriptor of a graph exported to shared memory.

    Holds everything a worker needs to rebuild the ``Graph`` — the segment
    name, the scalar fields, and the per-array offsets — but none of the
    array data itself.
    """

    shm_name: str
    num_vertices: int
    num_edges: int
    graph_name: str
    arrays: Dict[str, _ArraySpec]
    #: Launcher-side handle; ``None`` on descriptors that crossed a process
    #: boundary (the handle deliberately does not pickle).
    _shm: Optional[shared_memory.SharedMemory] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_shm"] = None
        return state

    # ------------------------------------------------------------------
    def attach(self) -> Graph:
        """Map the segment and rebuild a read-only :class:`Graph` view."""
        shm = shared_memory.SharedMemory(name=self.shm_name)
        # NOTE on the resource tracker: Python < 3.13 registers attachments
        # as well as creations.  Workers are forked, so they share the
        # launcher's tracker process and the registration is an idempotent
        # no-op; the launcher's close() performs the one real unlink.
        # (Unregistering here would strip the launcher's own registration
        # from the shared tracker — exactly the wrong side of the bug the
        # 3.13 ``track=False`` flag fixes.)
        _ATTACHED.append(shm)  # keep the mapping alive for the worker's lifetime

        def arr(key: str) -> np.ndarray:
            spec = self.arrays[key]
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset)
            view.flags.writeable = False
            return view

        graph = Graph.__new__(Graph)
        graph.num_vertices = self.num_vertices
        graph.num_edges = self.num_edges
        graph.name = self.graph_name
        for view in _CSR_VIEWS:
            csr = _CSR(*(arr(f"{view}_{part}") for part in _CSR_PARTS))
            setattr(graph, "_" + view, csr)
        for key in _VECTORS:
            setattr(graph, key, arr(key))
        graph.true_assignment = arr("true_assignment") if "true_assignment" in self.arrays else None
        return graph

    def close(self) -> None:
        """Release and unlink the segment (launcher side, after the run)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None


#: Segments attached by this process; kept open until interpreter exit so
#: the numpy views handed to the algorithms never dangle.
_ATTACHED: List[shared_memory.SharedMemory] = []


def _iter_graph_arrays(graph: Graph):
    """Yield ``(key, array)`` for every array the export must carry."""
    for view in _CSR_VIEWS:
        csr: _CSR = getattr(graph, "_" + view)
        for part in _CSR_PARTS:
            yield f"{view}_{part}", np.ascontiguousarray(getattr(csr, part))
    for key in _VECTORS:
        yield key, np.ascontiguousarray(getattr(graph, key))
    if graph.true_assignment is not None:
        yield "true_assignment", np.ascontiguousarray(graph.true_assignment)


def share_graph(graph: Graph) -> SharedGraph:
    """Export ``graph``'s arrays into one shared-memory segment.

    Returns the :class:`SharedGraph` descriptor; the caller owns the
    segment and must call :meth:`SharedGraph.close` once every worker has
    finished.
    """
    specs: Dict[str, _ArraySpec] = {}
    offset = 0
    payload = list(_iter_graph_arrays(graph))
    for key, array in payload:
        # 8-byte alignment keeps the int64/float views safe on every platform.
        offset = (offset + 7) & ~7
        specs[key] = _ArraySpec(offset=offset, shape=tuple(array.shape), dtype=array.dtype.str)
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for key, array in payload:
        spec = specs[key]
        dest = np.ndarray(spec.shape, dtype=array.dtype, buffer=shm.buf, offset=spec.offset)
        dest[...] = array
    return SharedGraph(
        shm_name=shm.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        graph_name=graph.name,
        arrays=specs,
        _shm=shm,
    )
