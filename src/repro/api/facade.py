"""The public entry point: ``partition()`` and the ``Partitioner`` facade.

One function covers what used to take three divergent drivers::

    from repro import partition

    result = partition(graph, strategy="edist", config="fast", num_ranks=4)

``strategy`` is a registry name (see
:func:`repro.api.registry.available_strategies`), ``config`` accepts an
:class:`~repro.core.config.SBPConfig`, a preset name (``"paper"``,
``"fast"``, or anything registered via
:func:`~repro.core.config.register_config_preset`), a plain dict (as
produced by ``SBPConfig.to_dict``), or ``None`` for the paper defaults;
keyword overrides are applied on top.  Fixed seeds produce results
bit-identical to the legacy entry points — the facade only dispatches.

:class:`Partitioner` holds a (strategy, config, num_ranks) triple for
repeated runs, and :meth:`Partitioner.submit` returns a
:class:`~repro.api.handle.RunHandle` when the caller needs lifecycle
control (observers, timeout, cancellation) around a run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.api.handle import RunHandle
from repro.api.registry import Strategy, get_strategy
from repro.core.config import SBPConfig, config_preset
from repro.core.context import RunContext, RunObserver
from repro.core.results import SBPResult
from repro.graphs.graph import Graph

__all__ = ["ConfigLike", "resolve_config", "partition", "Partitioner"]

#: Everything :func:`partition` accepts as a configuration.
ConfigLike = Union[None, str, Dict[str, object], SBPConfig]


def resolve_config(config: ConfigLike = None, **overrides) -> SBPConfig:
    """Normalise any :data:`ConfigLike` into a validated :class:`SBPConfig`.

    ``None`` → the ``"paper"`` preset (library defaults); a string → the
    preset registry; a dict → :meth:`SBPConfig.from_dict`.  Field overrides
    are applied last, so ``resolve_config("fast", seed=7)`` works the way
    callers expect.  All validation (field names, registry names, value
    ranges) happens here, at construction time.
    """
    if config is None:
        resolved = SBPConfig()
    elif isinstance(config, str):
        resolved = config_preset(config)
    elif isinstance(config, dict):
        resolved = SBPConfig.from_dict(config)
    elif isinstance(config, SBPConfig):
        resolved = config
    else:
        raise TypeError(
            f"config must be an SBPConfig, preset name, dict, or None, got {type(config).__name__}"
        )
    if overrides:
        resolved = resolved.with_overrides(**overrides)
    return resolved


def partition(
    graph: Graph,
    strategy: Union[str, Strategy] = "sequential",
    config: ConfigLike = None,
    *,
    num_ranks: int = 1,
    observers: Iterable[RunObserver] = (),
    timeout: Optional[float] = None,
    run_context: Optional[RunContext] = None,
    **overrides,
) -> SBPResult:
    """Partition ``graph`` with a registered strategy; the one-call API.

    Parameters
    ----------
    graph:
        The graph to partition.
    strategy:
        Registry name (``"sequential"``, ``"dcsbp"``, ``"edist"``,
        ``"reference_dcsbp"``, or anything registered via
        :func:`~repro.api.registry.register_strategy`) or a strategy
        instance.
    config:
        :class:`SBPConfig`, preset name, ``to_dict()`` dict, or ``None``
        (paper defaults).
    num_ranks:
        Simulated MPI ranks for the distributed strategies.
    observers:
        :class:`~repro.core.context.RunObserver` instances receiving
        ``on_cycle`` / ``on_merge_phase`` / ``on_mcmc_sweep`` events.
    timeout:
        Wall-clock budget in seconds; on expiry the run winds down and
        returns its best partial result (``metadata["stopped"]`` records
        why).
    run_context:
        Supply a pre-built context instead of ``observers``/``timeout``
        (mutually exclusive with them); used by :class:`RunHandle`.
    **overrides:
        :class:`SBPConfig` field overrides, e.g. ``seed=0`` or
        ``matrix_backend="sparse_csr"`` (the default ``"auto"`` picks
        dense or sparse storage by block count).
    """
    resolved_strategy = get_strategy(strategy)
    resolved_config = resolve_config(config, **overrides)
    if run_context is not None and (list(observers) or timeout is not None):
        raise ValueError("pass either run_context or observers/timeout, not both")
    ctx = run_context or RunContext(observers=observers, timeout=timeout)
    return resolved_strategy.run(graph, resolved_config, num_ranks=num_ranks, run_context=ctx)


class Partitioner:
    """A reusable (strategy, config, num_ranks) triple.

    The object form of :func:`partition`, for callers that run the same
    setup against many graphs (the harness, a serving loop) or that want
    :meth:`submit`'s lifecycle control.
    """

    def __init__(
        self,
        strategy: Union[str, Strategy] = "sequential",
        config: ConfigLike = None,
        num_ranks: int = 1,
        **overrides,
    ) -> None:
        self.strategy = get_strategy(strategy)
        self.config = resolve_config(config, **overrides)
        self.num_ranks = int(num_ranks)

    def with_overrides(self, **overrides) -> "Partitioner":
        """A copy with config fields replaced (strategy and ranks kept)."""
        return Partitioner(self.strategy, self.config.with_overrides(**overrides), self.num_ranks)

    def run(
        self,
        graph: Graph,
        observers: Iterable[RunObserver] = (),
        timeout: Optional[float] = None,
    ) -> SBPResult:
        """Run synchronously on ``graph`` and return the result."""
        return self.submit(graph, observers=observers, timeout=timeout).run()

    def submit(
        self,
        graph: Graph,
        observers: Iterable[RunObserver] = (),
        timeout: Optional[float] = None,
    ) -> RunHandle:
        """Create a :class:`RunHandle` for ``graph`` without starting it."""
        return RunHandle(
            self.strategy,
            graph,
            self.config,
            num_ranks=self.num_ranks,
            observers=observers,
            timeout=timeout,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partitioner(strategy={self.strategy.name!r}, num_ranks={self.num_ranks}, "
            f"config={self.config!r})"
        )
