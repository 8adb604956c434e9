"""The transport protocol and registry behind :func:`run_distributed`.

A *transport* decides where the simulated MPI ranks physically run — on the
calling thread (``"self"``), on Python threads inside this process
(``"threads"``), or on real operating-system processes (``"processes"``).
Every transport hands each rank a :class:`~repro.mpi.communicator.Communicator`
honouring the same sequenced-collective contract, so the rank programs (and
their results, under a fixed seed) are transport-independent; only the
execution substrate changes.

The registry mirrors the strategy registry of :mod:`repro.api` and the
backend registry of :mod:`repro.blockmodel.backend`: implementations are
classes decorated with :func:`register_transport`, lookups go through
:func:`get_transport`, and unknown names raise a :class:`ValueError` listing
the registered transports.  ``SBPConfig.transport`` is validated against
the live registry, never a hard-coded literal set, so downstream code can
plug in new transports (e.g. a real mpi4py bridge) without touching any
dispatch site.

Importing :mod:`repro.mpi` registers the built-in transports
(:class:`SelfTransport` here, ``ThreadTransport`` in
:mod:`repro.mpi.threaded`, ``ProcessTransport`` in
:mod:`repro.mpi.processes`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.mpi.communicator import SelfCommunicator
from repro.mpi.stats import CommStats

__all__ = [
    "DEFAULT_TIMEOUT",
    "DistributedError",
    "DistributedResult",
    "Transport",
    "SelfTransport",
    "register_transport",
    "unregister_transport",
    "get_transport",
    "available_transports",
    "transport_registry_hint",
    "primary_failures",
]

#: Default per-collective/receive timeout (seconds).  Generous enough for
#: any legitimate phase, small enough that a mismatched collective sequence
#: fails a test run instead of hanging it.  Override per run with
#: ``run_distributed(..., timeout=...)``.
DEFAULT_TIMEOUT = 300.0


class DistributedError(RuntimeError):
    """Raised when one or more ranks fail; carries all per-rank exceptions.

    ``failures`` maps rank → the exception object.  ``tracebacks`` maps
    rank → the traceback *formatted where the exception was raised* — on
    the rank's thread, or inside the worker process.  The string is the
    only faithful record across a process boundary (traceback objects do
    not pickle), and even in-process the re-raised aggregate would
    otherwise reduce each rank's failure to ``type: message``.  The
    formatted blocks are appended to the error message so a failing rank's
    stack shows up directly in test output.
    """

    def __init__(
        self,
        failures: Dict[int, BaseException],
        tracebacks: Optional[Dict[int, str]] = None,
    ) -> None:
        self.failures = failures
        self.tracebacks = {r: tb for r, tb in (tracebacks or {}).items() if tb}
        summary = "; ".join(
            f"rank {r}: {type(e).__name__}: {e}" for r, e in sorted(failures.items())
        )
        message = f"{len(failures)} rank(s) failed: {summary}"
        blocks = "".join(
            f"\n--- rank {rank} traceback ---\n{tb.rstrip()}"
            for rank, tb in sorted(self.tracebacks.items())
            if rank in failures
        )
        super().__init__(message + blocks)


@dataclass
class DistributedResult:
    """Results of a simulated distributed run."""

    num_ranks: int
    results: List[Any]
    comm_stats: List[CommStats] = field(default_factory=list)

    @property
    def root_result(self) -> Any:
        return self.results[0]

    def total_comm_stats(self) -> CommStats:
        return CommStats.aggregate(self.comm_stats)


def primary_failures(failures: Dict[int, BaseException]) -> Dict[int, BaseException]:
    """Drop failures that are mere echoes of another rank's abort.

    When one rank raises, the others are woken with a ``RuntimeError``
    mentioning the abort; reporting those secondaries would bury the real
    cause.  If *every* failure is an abort echo (shouldn't happen), keep
    them all rather than raising an empty error.
    """
    primary = {
        r: e
        for r, e in failures.items()
        if not isinstance(e, RuntimeError) or "aborted" not in str(e)
    }
    return primary or failures


class Transport(abc.ABC):
    """Abstract execution substrate for a distributed run.

    Implementations are stateless; one shared instance per registry entry
    launches any number of runs.  ``launch`` must deliver the same
    semantics on every transport: rank-indexed results, per-rank
    :class:`~repro.mpi.stats.CommStats`, and a :class:`DistributedError`
    aggregating every rank's failure (with secondaries from the abort
    cascade filtered out via :func:`primary_failures`).
    """

    #: Registry name, set by :func:`register_transport`.
    name: str = "abstract"
    #: Whether the ranks run in the launching interpreter (as threads).
    shares_interpreter: bool = True

    @abc.abstractmethod
    def launch(
        self,
        num_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> DistributedResult:
        """Run ``fn(comm, *args, **kwargs)`` on ``num_ranks`` ranks.

        ``timeout`` is the per-collective/receive deadline in seconds
        (``None`` selects :data:`DEFAULT_TIMEOUT`); a rank that waits
        longer than this on a rendezvous fails with an error naming the
        collective and its sequence number.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_TRANSPORTS: Dict[str, Transport] = {}


def register_transport(name: str) -> Callable[[type], type]:
    """Class decorator registering a transport under ``name``.

    The class is instantiated once and the shared instance stored;
    re-registering a name replaces the previous entry (tests and
    downstream code can shadow a built-in).  The class's ``name``
    attribute is set so instances always report their registry identity.
    """

    def _register(cls: type) -> type:
        if not (isinstance(cls, type) and issubclass(cls, Transport)):
            raise TypeError(f"transport {name!r} must be a Transport subclass, got {cls!r}")
        cls.name = str(name)
        _TRANSPORTS[str(name)] = cls()
        return cls

    return _register


def unregister_transport(name: str) -> None:
    """Remove a registered transport (primarily for tests)."""
    _TRANSPORTS.pop(str(name), None)


def available_transports() -> List[str]:
    """Names of every registered transport, in registration order."""
    return list(_TRANSPORTS)


def transport_registry_hint() -> str:
    """Human-readable list of registered transports for error messages."""
    return ", ".join(repr(name) for name in available_transports())


def get_transport(name: Union[str, Transport]) -> Transport:
    """Resolve a transport name to its shared instance.

    :class:`Transport` instances pass through unchanged (mirroring
    ``get_strategy``).  Unknown names raise a :class:`ValueError` listing
    the registry.
    """
    if isinstance(name, Transport):
        return name
    if not isinstance(name, str):
        raise TypeError(f"transport must be a name or Transport instance, got {type(name).__name__}")
    if name not in _TRANSPORTS:
        raise ValueError(
            f"unknown transport {name!r}; registered transports: ({transport_registry_hint()})"
        )
    return _TRANSPORTS[name]


# ----------------------------------------------------------------------
# The trivial single-rank transport
# ----------------------------------------------------------------------
@register_transport("self")
class SelfTransport(Transport):
    """Run the rank program directly on the calling thread (one rank).

    No concurrency machinery at all: the sequential baselines (and every
    ``num_ranks == 1`` launch, whatever transport was requested) go through
    here, so single-rank runs never pay for threads or processes.
    Exceptions propagate raw — with a single rank there is no aggregate to
    build and the caller's traceback is already intact.
    """

    def launch(
        self,
        num_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> DistributedResult:
        if num_ranks != 1:
            raise ValueError("the 'self' transport runs exactly one rank")
        comm = SelfCommunicator()
        result = fn(comm, *args, **(dict(kwargs or {})))
        return DistributedResult(1, [result], [comm.stats])
