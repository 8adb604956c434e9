"""The formal block-matrix storage protocol and its backend registry.

Every blockmodel storage backend — the dense array
(:class:`~repro.blockmodel.dense_matrix.DenseBlockMatrix`) and the
true-sparse CSR/COO representation
(:class:`~repro.blockmodel.sparse_csr_matrix.SparseCSRBlockMatrix`) — is an
implementation of :class:`BlockMatrixBackend`, registered under a stable
name with :func:`register_backend`.  A *policy* (:func:`register_policy`)
is a registered name that picks a backend from the block count at every
build; ``"auto"`` (dense up to
:data:`~repro.blockmodel.blockmodel.DENSE_BLOCK_LIMIT` blocks, sparse
above) is the default.  The registry mirrors the strategy registry of
:mod:`repro.api`: ``SBPConfig.matrix_backend`` and
``Blockmodel.from_graph(..., matrix_backend=...)`` are validated against it
(never against a hard-coded literal set), unknown names raise a
:class:`ValueError` listing the registered names, and new storage engines
plug in by registering a class instead of editing dispatch sites.

The protocol has four layers:

construction
    ``__init__(num_blocks)`` for an empty matrix and
    :meth:`~BlockMatrixBackend.from_block_edges` for the vectorized
    build-from-edge-arrays path used by ``Blockmodel.from_assignment``.
element access and mutation
    ``get`` / ``add`` / ``set`` plus the batched ``get_many`` /
    ``add_many`` the vectorized kernels are built on.  Negative entries are
    always an error, enforced at mutation time.
cached marginals and views
    ``row`` / ``col`` dict snapshots, ``row_entries`` / ``col_entries``
    sorted sparse views, and the row/column sums the proposal
    distributions sample against.
clone / compact
    ``copy`` produces an independent deep copy; :meth:`compact` folds any
    pending write buffer into the primary representation (a no-op for
    backends without one).

Every backend serves the batched primitives efficiently, so the whole-batch
kernels (:func:`repro.blockmodel.deltas.delta_dl_for_moves`,
:func:`repro.blockmodel.deltas.delta_dl_for_merges`,
:func:`repro.core.proposals.hastings_corrections`) run on all of them.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterator, List, Tuple, Type

import numpy as np

__all__ = [
    "BlockMatrixBackend",
    "register_backend",
    "register_policy",
    "get_backend",
    "available_backends",
    "backend_registry_hint",
]


class BlockMatrixBackend(abc.ABC):
    """Abstract base of every block (community-to-community) matrix backend.

    A backend stores a square ``B × B`` matrix of non-negative integer edge
    counts.  Implementations are interchangeable inside
    :class:`~repro.blockmodel.blockmodel.Blockmodel`; the cross-backend
    differential suite (``tests/differential/``) holds them to a stronger
    contract than the type signatures: under a fixed seed, every registered
    backend must drive the SBP pipeline through **bit-identical** states
    (same merge selections, same assignments, same description-length
    floats).  The ordering guarantees that make this possible are part of
    the protocol: ``nonzero_arrays`` / ``row_entries`` / ``col_entries``
    enumerate entries in ascending index order on every backend.
    """

    __slots__ = ()

    #: Registry name (``"dense"`` / ``"sparse_csr"`` / ...).
    backend: str = "abstract"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def from_block_edges(
        cls,
        num_blocks: int,
        block_src: np.ndarray,
        block_dst: np.ndarray,
        weights: np.ndarray,
    ) -> "BlockMatrixBackend":
        """Vectorized build from per-edge block endpoints."""

    # ------------------------------------------------------------------
    # Element access / mutation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def get(self, i: int, j: int) -> int:
        """Return entry ``(i, j)`` (0 when absent)."""

    @abc.abstractmethod
    def add(self, i: int, j: int, delta: int) -> None:
        """Add ``delta`` to entry ``(i, j)``; negative totals are an error."""

    @abc.abstractmethod
    def set(self, i: int, j: int, value: int) -> None:
        """Set entry ``(i, j)`` to ``value`` (must be non-negative)."""

    @abc.abstractmethod
    def get_many(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Gather ``[(i, j)]`` entries as an int64 array (batched ``get``)."""

    @abc.abstractmethod
    def add_many(self, rows: np.ndarray, cols: np.ndarray, deltas: np.ndarray) -> None:
        """Scatter-add many deltas at once (duplicate positions accumulate)."""

    # ------------------------------------------------------------------
    # Row / column views
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def row(self, i: int) -> Dict[int, int]:
        """Non-zero entries of row ``i`` as ``{column: count}``."""

    @abc.abstractmethod
    def col(self, j: int) -> Dict[int, int]:
        """Non-zero entries of column ``j`` as ``{row: count}``."""

    @abc.abstractmethod
    def row_entries(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s non-zero ``(columns, values)`` in ascending column order.

        The sampling paths (:meth:`Blockmodel.sample_neighbor_block`) build
        cumulative sums over these arrays; ascending order on every backend
        is what keeps a given RNG draw selecting the same block regardless
        of storage.
        """

    @abc.abstractmethod
    def col_entries(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``j``'s non-zero ``(rows, values)`` in ascending row order."""

    @abc.abstractmethod
    def row_sum(self, i: int) -> int: ...

    @abc.abstractmethod
    def col_sum(self, j: int) -> int: ...

    @abc.abstractmethod
    def row_sums(self) -> np.ndarray: ...

    @abc.abstractmethod
    def col_sums(self) -> np.ndarray: ...

    # ------------------------------------------------------------------
    # Whole-matrix operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def total(self) -> int:
        """Sum of all entries (the number of edges in the graph)."""

    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of non-zero entries."""

    @abc.abstractmethod
    def entries(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over non-zero ``(i, j, value)`` entries, row-major."""

    @abc.abstractmethod
    def nonzero_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, value)`` arrays over the non-zero entries, row-major.

        Ascending column order within each row is required on every backend
        so that vectorized float reductions over the arrays (e.g. the
        log-likelihood) stay bit-identical across backends.
        """

    @abc.abstractmethod
    def csr_structure(self) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Row- and column-major CSR views of the non-zero entries.

        Returns ``((row_j, row_v, row_ptr), (col_i, col_v, col_ptr))``: the
        non-zeros in row-major order with a row pointer, and the same
        entries in column-major order with a column pointer.  This is the
        substrate of the batched merge kernel
        (:func:`repro.blockmodel.deltas.delta_dl_for_merges`).
        """

    # ------------------------------------------------------------------
    # Clone / compact
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def copy(self) -> "BlockMatrixBackend":
        """An independent deep copy (mutating either side affects only it)."""

    def compact(self) -> None:
        """Fold any pending write buffer into the primary representation.

        A no-op for backends without a buffer.  Compaction never changes
        the logical matrix, only its physical layout.
        """

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialise the full ``B × B`` array (tests and tiny graphs only)."""

    @abc.abstractmethod
    def check_consistent(self) -> None:
        """Verify internal invariants, raising ``AssertionError`` on damage."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Type[BlockMatrixBackend]] = {}
_POLICIES: Dict[str, Callable[[int], str]] = {}


def register_backend(name: str) -> Callable[[type], type]:
    """Class decorator registering a storage backend under ``name``.

    Re-registering a name replaces the previous entry (tests and downstream
    code can shadow a built-in).  The class's ``backend`` attribute is set
    to ``name`` so instances always report their registry identity.
    """

    def _register(cls: type) -> type:
        if not (isinstance(cls, type) and issubclass(cls, BlockMatrixBackend)):
            raise TypeError(
                f"backend {name!r} must be a BlockMatrixBackend subclass, "
                f"got {cls!r}"
            )
        cls.backend = name
        _BACKENDS[str(name)] = cls
        return cls

    return _register


def register_policy(name: str, choose: Callable[[int], str]) -> None:
    """Register a storage policy: ``choose(num_blocks)`` names a backend.

    A policy is accepted wherever a backend name is, and is re-evaluated
    at every blockmodel build, so a run's storage follows its block count.
    """
    _POLICIES[str(name)] = choose


def available_backends() -> List[str]:
    """Every registered policy and backend name, policies first."""
    return [*_POLICIES, *_BACKENDS]


def backend_registry_hint() -> str:
    """Human-readable list of registered names for error messages."""
    return ", ".join(repr(name) for name in available_backends())


def get_backend(name: str, num_blocks: int = 0) -> Type[BlockMatrixBackend]:
    """Resolve a backend or policy name to a storage class.

    A policy name resolves to the backend it picks for ``num_blocks``.
    Unknown names raise a :class:`ValueError` listing the registry, the
    same convention as strategy and preset lookups in :mod:`repro.api`.
    """
    if name in _POLICIES:
        name = _POLICIES[name](num_blocks)
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown matrix_backend {name!r}; registered backends: "
            f"({backend_registry_hint()})"
        )
    return _BACKENDS[name]
