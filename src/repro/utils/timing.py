"""Wall-clock and per-phase timing helpers used by the experiment harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
from contextlib import contextmanager

__all__ = ["Timer", "PhaseTimer"]


@dataclass
class Timer:
    """A simple start/stop wall-clock timer that also counts thread CPU time.

    ``elapsed`` accumulates across multiple start/stop cycles, which is how
    the SBP driver charges time to the block-merge and MCMC phases
    separately.  ``cpu_elapsed`` accumulates the calling thread's CPU time
    over the same windows: for ranks that share one interpreter it is the
    rank's own work, where wall time also counts the other ranks' turns.
    """

    elapsed: float = 0.0
    cpu_elapsed: float = 0.0
    _started_at: Optional[float] = field(default=None, repr=False)
    _cpu_started_at: float = field(default=0.0, repr=False)

    def start(self) -> "Timer":
        if self._started_at is not None:
            raise RuntimeError("Timer already running")
        self._started_at = time.perf_counter()
        self._cpu_started_at = time.thread_time()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("Timer is not running")
        self.elapsed += time.perf_counter() - self._started_at
        self.cpu_elapsed += time.thread_time() - self._cpu_started_at
        self._started_at = None
        return self.elapsed

    @property
    def running(self) -> bool:
        return self._started_at is not None

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        self.start()
        try:
            yield self
        finally:
            self.stop()


class PhaseTimer:
    """Accumulates elapsed time under named phases.

    Used to split SBP runtime into ``block_merge``, ``mcmc``,
    ``communication`` and ``finetune`` buckets so that the runtime model and
    the benchmark harness can report a breakdown comparable to the paper's
    discussion (e.g. DC-SBP's single-node fine-tuning bottleneck).
    """

    def __init__(self) -> None:
        self._timers: Dict[str, Timer] = {}

    def timer(self, phase: str) -> Timer:
        if phase not in self._timers:
            self._timers[phase] = Timer()
        return self._timers[phase]

    @contextmanager
    def measure(self, phase: str) -> Iterator[Timer]:
        with self.timer(phase).measure() as t:
            yield t

    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` to ``phase`` without running a timer."""
        self.timer(phase).elapsed += float(seconds)

    def elapsed(self, phase: str) -> float:
        return self._timers[phase].elapsed if phase in self._timers else 0.0

    def total(self) -> float:
        return sum(t.elapsed for t in self._timers.values())

    def as_dict(self) -> Dict[str, float]:
        return {name: t.elapsed for name, t in sorted(self._timers.items())}

    def cpu_dict(self) -> Dict[str, float]:
        """Thread CPU seconds per phase (see :attr:`Timer.cpu_elapsed`)."""
        return {name: t.cpu_elapsed for name, t in sorted(self._timers.items())}

    def merge(self, other: "PhaseTimer") -> "PhaseTimer":
        """Accumulate another PhaseTimer's buckets into this one (in place)."""
        for name, t in other._timers.items():
            self.add(name, t.elapsed)
        return self
