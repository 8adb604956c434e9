"""True multiprocess transport: one OS process per simulated MPI rank.

Unlike the ``"threads"`` transport, ranks here run on separate CPython
interpreters, so the compute phases genuinely execute in parallel on
multi-core machines.  The collectives keep exactly the sequenced-rendezvous
contract of :class:`~repro.mpi.threaded.ThreadCommWorld` — every rank's
*n*-th collective must match its peers' *n*-th; mismatches and timeouts
raise (with the same messages) instead of deadlocking — so any rank program
written against one transport runs unchanged, and bit-identically, on the
other.

Three pieces make that hold across process boundaries:

* :class:`ProcessCommunicator` — a peer-to-peer mailbox scheme over
  ``multiprocessing`` queues.  Each rank owns one inbox for collective
  contributions and one for point-to-point messages; a contribution is
  sent to every peer and buffered by sequence number on arrival, so
  out-of-order delivery cannot corrupt a rendezvous.  All collectives and
  their statistics accounting are inherited from
  :class:`~repro.mpi.communicator.SequencedCommunicator`, which is what
  makes the per-rank :class:`~repro.mpi.stats.CommStats` identical to the
  thread transport's by construction.
* shared-memory graph ingestion — the launcher exports every
  :class:`~repro.graphs.graph.Graph` argument into one
  ``multiprocessing.shared_memory`` segment
  (:func:`repro.graphs.shm.share_graph`) and ships only a tiny
  descriptor; each worker re-attaches the arrays read-only instead of
  receiving its own pickled copy of the edge list.
* a run-context bridge — observers and cancellation state live in the
  parent process.  Worker rank 0's lifecycle calls (``emit_*``,
  ``should_stop``, ``note_search_state``) become synchronous round-trips
  serviced by the parent against the real
  :class:`~repro.core.context.RunContext`, so an observer that cancels
  after the *n*-th event stops a processes run at exactly the same phase
  boundary as a threads run.  Non-root ranks watch a shared stop event —
  never result-affecting, because stop decisions that shape the partition
  are broadcast from rank 0 by the drivers.

Workers are started with the ``fork`` method where available (all POSIX
platforms), so rank programs may be lambdas or closures exactly as with
the thread transport.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.context import RunContext
from repro.mpi.communicator import ANY_SOURCE, SequencedCommunicator
from repro.mpi.stats import CommStats
from repro.mpi.transport import (
    DEFAULT_TIMEOUT,
    DistributedError,
    DistributedResult,
    Transport,
    primary_failures,
    register_transport,
)

__all__ = ["ProcessCommunicator", "ProcessTransport"]

#: Held while a launch creates or unlinks shared memory and while it forks
#: its ranks.  Both take the shared-memory resource tracker's lock; a rank
#: forked while another launcher thread holds that lock inherits it locked
#: and hangs when it attaches its graph.
_LAUNCH_LOCK = threading.Lock()


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# World state shared (by inheritance) between the launcher and the workers
# ----------------------------------------------------------------------
class _ProcessWorld:
    """Queues and flags connecting the launcher with every worker rank."""

    __slots__ = ("size", "timeout", "coll_queues", "p2p_queues", "abort", "result_queue", "bridge")

    def __init__(self, ctx, size: int, timeout: float, bridge: Optional["_ContextBridge"]) -> None:
        self.size = size
        self.timeout = timeout
        #: Rank r's inbox of collective contributions from its peers.
        self.coll_queues = [ctx.Queue() for _ in range(size)]
        #: Rank r's inbox of point-to-point messages.
        self.p2p_queues = [ctx.Queue() for _ in range(size)]
        #: Set by any failing rank; peers waiting on a rendezvous raise.
        self.abort = ctx.Event()
        #: Workers report ``(rank, status, payload, stats, traceback)`` here.
        self.result_queue = ctx.Queue()
        self.bridge = bridge


class _ContextBridge:
    """Parent-side channel carrying worker rank 0's lifecycle traffic."""

    __slots__ = ("requests", "responses", "stop")

    def __init__(self, ctx) -> None:
        self.requests = ctx.Queue()
        self.responses = ctx.Queue()
        #: Mirrors the parent context's stop state for the non-root ranks.
        self.stop = ctx.Event()


class _BridgedContextMarker:
    """Placeholder swapped in for a live RunContext argument.

    A class (not an instance) so that identity survives pickling under
    spawn-based start methods.
    """


# ----------------------------------------------------------------------
# The communicator
# ----------------------------------------------------------------------
class ProcessCommunicator(SequencedCommunicator):
    """Per-rank communicator over the multiprocess queue mailboxes.

    Symmetric peer-to-peer rendezvous: a rank contributes to collective
    ``seq`` by sending ``(seq, name, rank, value)`` to every peer's
    collective inbox and then collecting the ``size - 1`` matching peer
    contributions from its own.  Contributions for *later* sequence numbers
    that arrive early (a fast peer racing ahead) are buffered; a
    contribution carrying a different collective name for the *same*
    sequence number is the mismatch case and raises on both sides.
    """

    def __init__(self, rank: int, world: _ProcessWorld) -> None:
        super().__init__(rank, world.size)
        self._world = world
        #: Contributions for sequence numbers this rank has not reached yet.
        self._coll_buffer: Dict[int, List[Tuple[str, int, Any]]] = {}
        #: Received point-to-point messages not yet matched by a recv.
        self._p2p_stash: List[Tuple[int, int, Any]] = []

    # ------------------------------------------------------------------
    def _check_abort(self) -> None:
        if self._world.abort.is_set():
            raise RuntimeError("distributed run aborted by a failing rank")

    def _fail(self, exc: BaseException) -> None:
        self._world.abort.set()
        raise exc

    # ------------------------------------------------------------------
    def _exchange(self, seq: int, name: str, value: Any) -> List[Any]:
        self._check_abort()
        for peer in range(self.size):
            if peer != self.rank:
                self._world.coll_queues[peer].put((seq, name, self.rank, value))
        slots: List[Any] = [None] * self.size
        slots[self.rank] = value
        have = 1
        # Fold in contributions that arrived before we reached this step.
        for other_name, src, other_value in self._coll_buffer.pop(seq, ()):
            if other_name != name:
                self._fail(RuntimeError(
                    f"collective mismatch at step {seq}: rank {self.rank} called {name!r} "
                    f"but rank {src} called {other_name!r}"
                ))
            slots[src] = other_value
            have += 1
        inbox = self._world.coll_queues[self.rank]
        deadline = time.monotonic() + self._world.timeout
        while have < self.size:
            self._check_abort()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._fail(RuntimeError(
                    f"collective {name!r} (step {seq}) timed out waiting for peers"
                ))
            try:
                msg_seq, msg_name, src, msg_value = inbox.get(timeout=min(remaining, 0.1))
            except queue.Empty:
                continue
            if msg_seq != seq:
                self._coll_buffer.setdefault(msg_seq, []).append((msg_name, src, msg_value))
                continue
            if msg_name != name:
                self._fail(RuntimeError(
                    f"collective mismatch at step {seq}: rank {self.rank} called {name!r} "
                    f"but rank {src} called {msg_name!r}"
                ))
            slots[src] = msg_value
            have += 1
        return slots

    def _put(self, dest: int, tag: int, payload: Any) -> None:
        self._check_abort()
        self._world.p2p_queues[dest].put((self.rank, tag, payload))

    def _take(self, source: int, tag: int) -> Any:
        inbox = self._world.p2p_queues[self.rank]
        deadline = time.monotonic() + self._world.timeout
        while True:
            for idx, (src, msg_tag, _payload) in enumerate(self._p2p_stash):
                if (source == ANY_SOURCE or src == source) and msg_tag == tag:
                    return self._p2p_stash.pop(idx)[2]
            self._check_abort()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._fail(RuntimeError(
                    f"recv on rank {self.rank} from {source} (tag {tag}) timed out"
                ))
            try:
                self._p2p_stash.append(inbox.get(timeout=min(remaining, 0.1)))
            except queue.Empty:
                continue


# ----------------------------------------------------------------------
# Worker-side run contexts
# ----------------------------------------------------------------------
class _BridgedRunContext(RunContext):
    """Worker rank 0's proxy for the parent process's RunContext.

    Every lifecycle call is a synchronous round-trip: the parent services
    it against the real context — running observer callbacks on the
    parent's thread, exactly where the thread transport runs them — and
    the response carries back either an observer exception to re-raise or
    the stop verdict to act on.  The synchrony is what preserves
    bit-identical cancellation: the *n*-th emitted event cancels the run
    at the same phase boundary under both transports.
    """

    def __init__(self, bridge: _ContextBridge, timeout: float) -> None:
        super().__init__()
        self._bridge = bridge
        self._rpc_timeout = timeout
        # The parent context is live by construction (the bridge only
        # exists for live contexts); advertising controllability makes
        # ``live`` — and every silent view's ``live`` — report True.
        self._controllable = True

    def _call(self, method: str, payload: Any) -> Any:
        self._bridge.requests.put((method, payload))
        try:
            status, value = self._bridge.responses.get(timeout=self._rpc_timeout)
        except queue.Empty:
            raise RuntimeError(f"lifecycle call {method!r} got no response from the launcher")
        if status == "err":
            raise value
        return value

    # -- stop state -----------------------------------------------------
    def should_stop(self) -> bool:
        stop, reason = self._call("should_stop", None)
        if stop and self._stop_reason is None:
            self._stop_reason = reason or "cancelled"
        return bool(stop)

    def cancel(self, reason: str = "cancelled") -> None:
        self._call("cancel", reason)
        if self._stop_reason is None:
            self._stop_reason = reason

    # -- event emission -------------------------------------------------
    def note_search_state(self, state: Dict[str, object]) -> None:
        self._call("note_search_state", state)

    def emit_cycle(self, cycle, num_blocks, description_length, mcmc_sweeps, accepted_moves,
                   blockmodel=None) -> None:
        # The live blockmodel cannot cross the process boundary; launcher-side
        # observers receive the event without it (CycleEvent.blockmodel=None).
        self._call("emit_cycle", dict(
            cycle=cycle, num_blocks=num_blocks, description_length=description_length,
            mcmc_sweeps=mcmc_sweeps, accepted_moves=accepted_moves,
        ))

    def emit_merge_phase(self, cycle, num_blocks_before, num_blocks_after, num_merges_requested) -> None:
        self._call("emit_merge_phase", dict(
            cycle=cycle, num_blocks_before=num_blocks_before,
            num_blocks_after=num_blocks_after, num_merges_requested=num_merges_requested,
        ))

    def emit_mcmc_sweep(self, sweep, accepted_moves, proposed_moves, delta_dl) -> None:
        self._call("emit_mcmc_sweep", dict(
            sweep=sweep, accepted_moves=accepted_moves,
            proposed_moves=proposed_moves, delta_dl=delta_dl,
        ))


class _EventRunContext(RunContext):
    """Non-root workers' view of the parent context: a shared stop event.

    Never result-affecting — stop decisions that change the partition are
    broadcast from rank 0 — but it lets a cancelled run's non-root
    subgraph work wind down early instead of running to completion.
    """

    def __init__(self, stop_event) -> None:
        super().__init__()
        self._stop_event = stop_event
        self._controllable = True

    def should_stop(self) -> bool:
        if self._stop_reason is None and self._stop_event.is_set():
            self._stop_reason = "cancelled"
        return self._stop_reason is not None


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
def _resolve_arg(obj: Any, rank: int, world: _ProcessWorld) -> Any:
    from repro.graphs.shm import SharedGraph

    if isinstance(obj, SharedGraph):
        return obj.attach()
    if obj is _BridgedContextMarker:
        if rank == 0:
            return _BridgedRunContext(world.bridge, world.timeout)
        return _EventRunContext(world.bridge.stop)
    return obj


def _ensure_picklable_record(record: tuple) -> tuple:
    """Degrade a result record whose payload cannot cross the process boundary.

    ``mp.Queue`` pickles in a background feeder thread, where an error
    would vanish into stderr and leave the launcher waiting; checking here
    turns an unpicklable result into an explicit per-rank failure instead.
    """
    try:
        pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        return record
    except Exception:
        rank, status, payload, stats, tb = record
        detail = f"{type(payload).__name__}: {payload}"
        if status == "ok":
            error: BaseException = RuntimeError(f"rank {rank} returned an unpicklable result ({detail})")
        else:
            error = RuntimeError(f"rank {rank} failed with an unpicklable exception ({detail})")
        return (rank, "err", error, stats, tb)


def _worker_main(rank: int, world: _ProcessWorld, fn, args, kwargs) -> None:
    comm = ProcessCommunicator(rank, world)
    status, payload, tb = "ok", None, None
    try:
        args = tuple(_resolve_arg(a, rank, world) for a in args)
        kwargs = {k: _resolve_arg(v, rank, world) for k, v in kwargs.items()}
        payload = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - shipped to the launcher
        status, payload, tb = "err", exc, traceback.format_exc()
        world.abort.set()
        # Peers will never read our in-flight collective traffic; don't let
        # the feeder threads block this process's exit on it.
        for q in world.coll_queues + world.p2p_queues:
            q.cancel_join_thread()
    world.result_queue.put(_ensure_picklable_record((rank, status, payload, comm.stats, tb)))


# ----------------------------------------------------------------------
# The transport
# ----------------------------------------------------------------------
@register_transport("processes")
class ProcessTransport(Transport):
    """One OS process per rank: real CPU parallelism for the compute phases.

    Start-up costs a process fork per rank and collective payloads cross
    the kernel (pickled over pipes), so tiny runs are slower than threads;
    on multi-core machines the MCMC/merge compute dominates and this
    transport is the one that actually scales.  Graph arguments travel via
    shared memory (one physical copy for all ranks), and lifecycle state
    (observers, cancellation, timeout) stays in the parent, bridged to the
    workers.
    """

    shares_interpreter = False
    #: How long the launcher blocks on its service queues per poll.
    _POLL_SECONDS = 0.02

    def launch(
        self,
        num_ranks: int,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> DistributedResult:
        from repro.graphs.graph import Graph
        from repro.graphs.shm import share_graph

        kwargs = dict(kwargs or {})
        timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        ctx = _mp_context()

        shared_graphs = []
        real_ctx: Optional[RunContext] = None
        bridge: Optional[_ContextBridge] = None

        def _export(obj: Any) -> Any:
            nonlocal real_ctx, bridge
            if isinstance(obj, Graph):
                shared = share_graph(obj)
                shared_graphs.append(shared)
                return shared
            if isinstance(obj, RunContext) and obj.live:
                # One live context per run (the drivers' contract); every
                # occurrence maps onto the same bridge.
                real_ctx = obj
                if bridge is None:
                    bridge = _ContextBridge(ctx)
                return _BridgedContextMarker
            return obj

        with _LAUNCH_LOCK:
            args = tuple(_export(a) for a in args)
            kwargs = {k: _export(v) for k, v in kwargs.items()}

        world = _ProcessWorld(ctx, num_ranks, timeout, bridge)
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(rank, world, fn, args, kwargs),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            for rank in range(num_ranks)
        ]
        try:
            with _LAUNCH_LOCK:
                for p in procs:
                    p.start()
            collected = self._wait(procs, world, real_ctx)
        finally:
            for p in procs:
                if p.is_alive():  # pragma: no cover - only on launcher errors
                    p.terminate()
                p.join()
            with _LAUNCH_LOCK:
                for shared in shared_graphs:
                    shared.close()

        results: List[Any] = [None] * num_ranks
        stats: List[CommStats] = [CommStats(rank=r) for r in range(num_ranks)]
        failures: Dict[int, BaseException] = {}
        tracebacks: Dict[int, str] = {}
        for rank in range(num_ranks):
            if rank not in collected:
                failures[rank] = RuntimeError(
                    f"rank {rank} process died without reporting a result "
                    f"(exit code {procs[rank].exitcode})"
                )
                continue
            status, payload, rank_stats, tb = collected[rank]
            if rank_stats is not None:
                stats[rank] = rank_stats
            if status == "ok":
                results[rank] = payload
            else:
                failures[rank] = payload
                tracebacks[rank] = tb or ""
        if failures:
            primary = primary_failures(failures)
            raise DistributedError(primary, {r: tracebacks.get(r, "") for r in primary})
        return DistributedResult(num_ranks, results, stats)

    # ------------------------------------------------------------------
    def _wait(self, procs, world: _ProcessWorld, real_ctx: Optional[RunContext]) -> Dict[int, tuple]:
        """Service the lifecycle bridge and collect worker results."""
        bridge = world.bridge
        collected: Dict[int, tuple] = {}
        while True:
            if bridge is not None:
                self._service_bridge(bridge, real_ctx)
                # Mirror the parent's stop state (cancel from a handle,
                # timeout expiry) to the non-root ranks' event contexts.
                if not bridge.stop.is_set() and real_ctx.should_stop():
                    bridge.stop.set()
            try:
                block = self._POLL_SECONDS if bridge is None else 0
                while True:
                    record = world.result_queue.get(timeout=block)
                    collected[record[0]] = record[1:]
                    block = 0
            except queue.Empty:
                pass
            # Once a rank failed (or everyone reported), in-flight traffic
            # has no remaining reader; drain it so no worker's queue feeder
            # blocks that worker's exit on a full pipe.
            if world.abort.is_set() or len(collected) == world.size:
                for q in world.coll_queues + world.p2p_queues:
                    _drain(q)
            if not any(p.is_alive() for p in procs):
                _drain(world.result_queue, into=collected)
                break
        return collected

    def _service_bridge(self, bridge: _ContextBridge, real_ctx: RunContext) -> None:
        """Answer pending lifecycle requests from worker rank 0."""
        while True:
            try:
                method, payload = bridge.requests.get(timeout=self._POLL_SECONDS)
            except queue.Empty:
                return
            try:
                if method == "should_stop":
                    response = ("ok", (real_ctx.should_stop(), real_ctx.stop_reason))
                elif method == "cancel":
                    real_ctx.cancel(payload)
                    response = ("ok", None)
                elif method == "note_search_state":
                    real_ctx.note_search_state(payload)
                    response = ("ok", None)
                else:  # emit_cycle / emit_merge_phase / emit_mcmc_sweep
                    getattr(real_ctx, method)(**payload)
                    response = ("ok", None)
            except BaseException as exc:  # noqa: BLE001 - relayed to the worker
                response = ("err", _picklable_exception(exc))
            bridge.responses.put(response)


def _drain(q, into: Optional[Dict[int, tuple]] = None) -> None:
    try:
        while True:
            item = q.get_nowait()
            if into is not None:
                into[item[0]] = item[1:]
    except queue.Empty:
        pass


def _picklable_exception(exc: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
