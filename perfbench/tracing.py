"""Outside-in tracing for the benchmark.

The benchmark measures each layer of the library from outside: it replaces a
public function or method with a wrapper that records a span around every
call, and restores the original afterwards.  Nothing inside ``src/`` knows it
is being traced.

A span is ``(id, parent, trace, name, start, end, pid)``.  ``trace`` groups
the spans of one partition or one service job.  Spans are kept in memory;
:meth:`Tracer.write` saves them when the run ends.  Ranks of a distributed
run are forked processes, so each rank dumps its own spans to a file that the
launcher merges back (:meth:`Tracer.collect_rank_dumps`).

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "layer_seconds", "layer_calls"]

#: One recorded span: (id, parent id, trace id, name, start, end, pid).
Span = Tuple[str, Optional[str], Optional[str], str, float, float, int]


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self, dump_dir: Path) -> None:
        self.spans: List[Span] = []
        self.trace_id: Optional[str] = None
        self.launcher_pid = os.getpid()
        self._dump_dir = Path(dump_dir)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_trace(self) -> Optional[str]:
        """Trace id of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else self.trace_id

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None):
        """Record one span; nested spans on the same thread become children."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent[1] if parent else self.trace_id
        span_id = f"{os.getpid()}.{next(self._ids)}"
        stack.append((span_id, trace))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent[0] if parent else None, trace, name, start, end, os.getpid())
            )

    # ------------------------------------------------------------------
    # Wrapping public functions
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        trace_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) by a traced wrapper."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            trace = trace_of(*args, **kwargs) if trace_of is not None else None
            with self.span(name, trace):
                return func(*args, **kwargs)

        self.patch(owner, attr, classmethod(traced) if is_classmethod else traced)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`unwrap_all` restores it."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap_rank_program(self, owner: object, attr: str, name: str) -> None:
        """Wrap a rank program so that forked ranks dump their spans to a file.

        A forked rank starts with a copy of the launcher's spans; it drops
        them, records its own, and writes them out before returning.  Ranks
        that run as threads of the launcher record in place.
        """
        func = vars(owner)[attr]

        @functools.wraps(func)
        def traced(comm, *args, **kwargs):
            forked = os.getpid() != self.launcher_pid
            if forked:
                self.spans = []
            with self.span(name):
                result = func(comm, *args, **kwargs)
            if forked:
                self._dump_dir.mkdir(parents=True, exist_ok=True)
                path = self._dump_dir / f"rank{comm.rank}-{os.getpid()}.json"
                path.write_text(json.dumps(self.spans))
            return result

        self.patch(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def collect_rank_dumps(self) -> None:
        """Merge span files written by forked ranks, then delete them."""
        if not self._dump_dir.is_dir():
            return
        for path in sorted(self._dump_dir.glob("rank*.json")):
            self.spans.extend(tuple(span) for span in json.loads(path.read_text()))
            path.unlink()

    def write(self, path: Path) -> None:
        """Save all spans as JSON lines."""
        keys = ("id", "parent", "trace", "name", "start", "end", "pid")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> List[Tuple[str, float, int]]:
    """``(name, self seconds, pid)`` for every span."""
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (name, (end - start) - _covered(children.get(span_id, ()), start, end), pid)
        for span_id, _, _, name, start, end, pid in spans
    ]


def layer_seconds(timed: Iterable[Tuple[str, float, int]], name: str, launcher_pid: int) -> float:
    """Self seconds of ``name`` on the critical path of one partition.

    Work in the launcher process is serial; forked ranks run side by side,
    so the slowest rank counts.  Threads of one process are summed.
    """
    per_pid: Dict[int, float] = defaultdict(float)
    for span_name, seconds, pid in timed:
        if span_name == name:
            per_pid[pid] += seconds
    launcher = per_pid.pop(launcher_pid, 0.0)
    return launcher + max(per_pid.values(), default=0.0)


def layer_calls(timed: Iterable[Tuple[str, float, int]], name: str) -> int:
    """Number of spans named ``name`` (summed over ranks)."""
    return sum(1 for span_name, _, _ in timed if span_name == name)
