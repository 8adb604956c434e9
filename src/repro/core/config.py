"""Configuration for every SBP variant in the library.

One dataclass drives the sequential baseline, the Hybrid shared-memory
variant, DC-SBP, and EDiSt, so that experiments hold the algorithmic
parameters fixed while varying only the distribution strategy — which is how
the paper's comparisons are set up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Optional

from repro.blockmodel.backend import available_backends, backend_registry_hint
from repro.mpi.transport import available_transports, transport_registry_hint

# Importing the blockmodel package side-effect registers the built-in
# storage backends, so validation below sees the full registry; likewise
# the mpi package registers the built-in transports (self/threads/processes).
import repro.blockmodel.blockmodel  # noqa: F401
import repro.mpi  # noqa: F401

__all__ = [
    "SBPConfig",
    "MCMCVariant",
    "MatrixBackend",
    "TransportName",
    "register_config_preset",
    "config_preset",
    "available_presets",
]


class MCMCVariant:
    """Names of the supported MCMC engines (see :mod:`repro.core.mcmc`)."""

    METROPOLIS_HASTINGS = "metropolis_hastings"
    HYBRID = "hybrid"
    BATCH_GIBBS = "batch_gibbs"

    ALL = (METROPOLIS_HASTINGS, HYBRID, BATCH_GIBBS)


class MatrixBackend:
    """Names of the built-in blockmodel storage backends.

    The authoritative list is the backend registry
    (:func:`repro.blockmodel.backend.available_backends`); validation always
    consults it live, so backends registered by downstream code are accepted
    without touching this class.
    """

    #: The default policy: dense storage up to ``DENSE_BLOCK_LIMIT`` blocks,
    #: ``sparse_csr`` above, re-chosen at every blockmodel rebuild.
    AUTO = "auto"
    #: Dense numpy array with cached marginals; memory is O(B²), capped at
    #: ``MAX_DENSE_BLOCKS``.
    DENSE = "dense"
    #: Scipy-free CSR/COO sparse arrays: O(nnz + B) memory at any block
    #: count.
    SPARSE_CSR = "sparse_csr"

    #: Names earlier versions persisted, read back as ``AUTO`` by
    #: :meth:`SBPConfig.from_dict`.  Every backend produces bit-identical
    #: runs, so the mapping loses nothing.
    RETIRED = ("dict", "csr")

    #: Import-time snapshot of the registry (the built-in backends).
    ALL = tuple(available_backends())


class TransportName:
    """Names of the built-in distributed transports.

    The authoritative list is the transport registry
    (:func:`repro.mpi.transport.available_transports`); validation always
    consults it live, so transports registered by downstream code are
    accepted without touching this class.
    """

    #: Single rank on the calling thread; what every ``num_ranks == 1``
    #: launch uses regardless of the configured transport.
    SELF = "self"
    #: One Python thread per rank — zero startup cost, shared objects, but
    #: the GIL serialises compute.  The default.
    THREADS = "threads"
    #: One OS process per rank — real CPU parallelism; graph arguments are
    #: mapped once via ``multiprocessing.shared_memory``.
    PROCESSES = "processes"

    ALL = (SELF, THREADS, PROCESSES)


@dataclass(frozen=True)
class SBPConfig:
    """Tunable parameters of stochastic block partitioning.

    Defaults follow the Graph Challenge reference implementation, which is
    also what the paper's baselines use.

    Attributes
    ----------
    beta:
        Inverse temperature of the Metropolis-Hastings acceptance
        ``min(1, exp(-beta * ΔDL) * hastings)``.
    block_reduction_rate:
        Fraction of blocks removed per block-merge phase (0.5 halves the
        block count, as in Alg. 1's "until number of communities is halved").
    merge_proposals_per_block:
        ``x`` in Alg. 1/4: candidate merges evaluated per block.
    max_mcmc_iterations:
        ``x`` in Alg. 2/5: maximum MCMC sweeps per phase.
    mcmc_convergence_threshold:
        ``t`` in Alg. 2/5: the phase stops when the absolute change in DL
        over a sweep drops below ``t × DL``.
    min_blocks:
        The agglomeration never merges below this many blocks.
    mcmc_variant:
        ``"metropolis_hastings"`` (strictly sequential, Alg. 2), ``"hybrid"``
        (high-degree vertices sequential + low-degree asynchronous batches,
        the shared-memory parallel formulation of [11]), or
        ``"batch_gibbs"`` (every vertex evaluated against a stale state, the
        original Graph Challenge python parallelism — used by the reference
        DC-SBP implementation of Table VI).
    matrix_backend:
        Blockmodel storage, validated against the backend registry
        (:mod:`repro.blockmodel.backend`): ``"auto"`` (the default: dense
        up to ``DENSE_BLOCK_LIMIT`` blocks, ``"sparse_csr"`` above, chosen
        again at every rebuild), ``"dense"`` (numpy array with cached
        marginals, O(B²) memory, capped at ``MAX_DENSE_BLOCKS``) or
        ``"sparse_csr"`` (scipy-free CSR/COO arrays, O(nnz + B) memory at
        any block count).  Every choice yields bit-identical runs; only
        speed and memory differ.
    transport:
        Where the simulated MPI ranks physically run, validated against the
        transport registry (:mod:`repro.mpi.transport`): ``"threads"`` (one
        thread per rank — cheap to launch, GIL-bound compute) or
        ``"processes"`` (one OS process per rank — real CPU parallelism,
        graph shipped once via shared memory).  Single-rank runs always use
        the calling thread whatever this says.  Under a fixed seed the
        transports produce bit-identical partitions.
    hybrid_high_degree_fraction:
        Fraction of vertices (by descending degree) processed sequentially
        by the hybrid MCMC.
    hybrid_batch_size:
        Number of low-degree vertices whose proposals are evaluated against
        the same (stale) blockmodel before their accepted moves are applied.
    dcsbp_combine_threshold:
        DC-SBP merges partial results pairwise until at most this many
        remain (the paper and [13] use 4).
    dcsbp_merge_candidates:
        Candidate target blocks evaluated when merging one partial result's
        community into another's (``None`` evaluates every candidate).
    seed:
        Root random seed.  Every rank and phase derives an independent
        stream from it.
    track_history:
        Record per-iteration DL / block-count history in the result object.
    validate:
        Run expensive consistency checks after each phase (tests only).
    """

    beta: float = 3.0
    block_reduction_rate: float = 0.5
    merge_proposals_per_block: int = 10
    max_mcmc_iterations: int = 30
    mcmc_convergence_threshold: float = 1e-4
    min_blocks: int = 1
    mcmc_variant: str = MCMCVariant.HYBRID
    matrix_backend: str = MatrixBackend.AUTO
    transport: str = TransportName.THREADS
    hybrid_high_degree_fraction: float = 0.25
    hybrid_batch_size: int = 64
    dcsbp_combine_threshold: int = 4
    dcsbp_merge_candidates: Optional[int] = None
    seed: Optional[int] = None
    track_history: bool = True
    validate: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.block_reduction_rate < 1.0:
            raise ValueError("block_reduction_rate must lie in (0, 1)")
        if self.merge_proposals_per_block < 1:
            raise ValueError("merge_proposals_per_block must be at least 1")
        if self.max_mcmc_iterations < 1:
            raise ValueError("max_mcmc_iterations must be at least 1")
        if self.mcmc_convergence_threshold < 0:
            raise ValueError("mcmc_convergence_threshold must be non-negative")
        if self.min_blocks < 1:
            raise ValueError("min_blocks must be at least 1")
        if self.mcmc_variant not in MCMCVariant.ALL:
            raise ValueError(
                f"unknown mcmc_variant {self.mcmc_variant!r}; expected one of {MCMCVariant.ALL}"
            )
        if self.matrix_backend not in available_backends():
            raise ValueError(
                f"unknown matrix_backend {self.matrix_backend!r}; registered backends: "
                f"({backend_registry_hint()})"
            )
        if self.transport not in available_transports():
            raise ValueError(
                f"unknown transport {self.transport!r}; registered transports: "
                f"({transport_registry_hint()})"
            )
        if not 0.0 <= self.hybrid_high_degree_fraction <= 1.0:
            raise ValueError("hybrid_high_degree_fraction must lie in [0, 1]")
        if self.hybrid_batch_size < 1:
            raise ValueError("hybrid_batch_size must be at least 1")
        if self.dcsbp_combine_threshold < 1:
            raise ValueError("dcsbp_combine_threshold must be at least 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def with_seed(self, seed: Optional[int]) -> "SBPConfig":
        """Return a copy with a different root seed."""
        return replace(self, seed=seed)

    def with_overrides(self, **kwargs) -> "SBPConfig":
        """Return a copy with the given fields replaced."""
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(
                f"unknown SBPConfig field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(f.name for f in fields(self))}"
            )
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict of every field; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SBPConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise (listing the valid field names) rather than being
        silently dropped, so stale or typo'd persisted configs surface
        immediately.  The retired storage names
        (:attr:`MatrixBackend.RETIRED`) load as ``"auto"``.
        """
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise ValueError(
                f"unknown SBPConfig field(s) {sorted(unknown)}; valid fields: {sorted(valid)}"
            )
        if data.get("matrix_backend") in MatrixBackend.RETIRED:
            data = {**data, "matrix_backend": MatrixBackend.AUTO}
        return cls(**data)

    @classmethod
    def from_preset(cls, name: str, seed: Optional[int] = None, **overrides) -> "SBPConfig":
        """Instantiate a registered preset (see :func:`config_preset`)."""
        config = config_preset(name)
        if seed is not None:
            config = config.with_seed(seed)
        if overrides:
            config = config.with_overrides(**overrides)
        return config

    @classmethod
    def fast(cls, seed: Optional[int] = None) -> "SBPConfig":
        """A configuration tuned for quick test/benchmark runs.

        Fewer MCMC sweeps and merge proposals; accuracy on the small
        laptop-scale graphs used in CI is essentially unaffected while the
        runtime drops severalfold.
        """
        return cls(
            merge_proposals_per_block=4,
            max_mcmc_iterations=12,
            mcmc_convergence_threshold=5e-4,
            seed=seed,
        )


# ----------------------------------------------------------------------
# Preset registry
# ----------------------------------------------------------------------
#: Named configuration presets.  Factories (not instances) are stored so that
#: every lookup returns a fresh config and mutable-default pitfalls cannot
#: arise; user code extends the registry via :func:`register_config_preset`.
_CONFIG_PRESETS: Dict[str, Callable[[], SBPConfig]] = {}


def register_config_preset(name: str, factory: Callable[[], SBPConfig]) -> None:
    """Register (or replace) a named :class:`SBPConfig` preset.

    The factory is validated eagerly — it must return an :class:`SBPConfig`
    — so a bad registration fails at registration time, not at first use.
    """
    produced = factory()
    if not isinstance(produced, SBPConfig):
        raise TypeError(
            f"preset factory for {name!r} must return an SBPConfig, got {type(produced).__name__}"
        )
    _CONFIG_PRESETS[str(name)] = factory


def available_presets() -> list:
    """Sorted names of every registered configuration preset."""
    return sorted(_CONFIG_PRESETS)


def config_preset(name: str) -> SBPConfig:
    """Instantiate the preset registered under ``name``.

    Unknown names raise a :class:`ValueError` listing the registry, the same
    convention as strategy and backend lookups.
    """
    if name not in _CONFIG_PRESETS:
        raise ValueError(
            f"unknown config preset {name!r}; available presets: {available_presets()}"
        )
    return _CONFIG_PRESETS[name]()


#: ``"paper"`` is the Graph Challenge reference parameterisation (the library
#: defaults); ``"fast"`` is the quick test/benchmark tuning of
#: :meth:`SBPConfig.fast`; ``"large_graph"`` keeps the true-sparse storage
#: backend at every block count (O(nnz + B) memory throughout).
register_config_preset("paper", SBPConfig)
register_config_preset("fast", SBPConfig.fast)
register_config_preset(
    "large_graph", lambda: SBPConfig(matrix_backend=MatrixBackend.SPARSE_CSR)
)
