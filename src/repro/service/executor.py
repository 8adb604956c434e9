"""The job executor: a priority-queued thread pool over the run lifecycle.

:class:`JobExecutor` turns the blocking :class:`~repro.api.handle.RunHandle`
machinery into an asynchronous service: jobs are submitted with a priority
and picked up by a fixed pool of worker threads (the concurrency limit), so
many medium graphs partition concurrently while the queue absorbs bursts.

Everything the run lifecycle already provides is wired through per job:

* a :class:`~repro.service.progress.ProgressTracker` observer feeds the
  status API's progress/ETA view;
* ``checkpoint_every`` attaches a
  :class:`~repro.service.checkpoint.CheckpointWriter` so long runs leave
  resumable snapshots behind;
* the per-job ``timeout`` rides on the handle's wall-clock budget and lands
  the job in the ``timeout`` state;
* cancellation is exact in both phases — a queued job is cancelled
  immediately (it never runs), a running job winds down cooperatively via
  ``RunContext.cancel()`` at the next phase boundary.

State decisions (queued → running vs queued → cancelled) are serialised
under one executor lock, so the `Job` state machine can never be raced into
an illegal transition.  Every finished job that produced a result appends a
schema-validated :class:`~repro.registry.RunRecord` to the experiment
registry, giving served traffic the same auditable trail as benchmarks.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api.facade import ConfigLike, resolve_config
from repro.api.handle import RunHandle
from repro.api.registry import Strategy, get_strategy
from repro.core.context import RunContext, RunObserver
from repro.mpi.transport import get_transport
from repro.registry import RunRecord, append_run, collect_provenance, peak_rss_mb
from repro.service.checkpoint import CheckpointWriter, resume_strategy
from repro.service.job import Job, JobState, new_job_id
from repro.service.metrics import service_metrics
from repro.service.progress import ProgressSnapshot, ProgressTracker
from repro.graphs.graph import Graph

__all__ = ["JobExecutor"]

#: Registry experiment name served jobs are recorded under.
SERVICE_EXPERIMENT = "service_jobs"


class _Turns:
    """Jobs that compute in this interpreter take turns at phase boundaries.

    The numpy kernels release the interpreter lock on every sort and every
    array operation over ~500 elements, about 10,000 times per V=160 job.
    Each release wakes the other workers waiting for the lock, so two to
    four jobs computing at once cost each job 40-100% more CPU than one job
    alone.  Here a job takes the turn at its first phase-boundary event
    and, once it has held it for :attr:`QUANTUM_S`, passes it at its next
    event to the highest-priority waiting job (first come first served
    among equal priorities).  A waiting job stops waiting once its run is
    cancelled or past its deadline.  Strategies that emit no events never
    take a turn.
    """

    #: Shortest hold before the turn is passed on.  Passing it at every
    #: event (one per sweep, ~77 per V=160 job) cost the 2-worker pool a
    #: further ~8% of throughput in switches between the jobs.
    QUANTUM_S = 0.1
    #: How often a waiting job checks whether its run was stopped.
    POLL_S = 0.05

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._holder: Optional[str] = None
        self._held_since = 0.0
        self._waiting: List[Tuple[int, int, str]] = []  # heap, like the job queue
        self._seq = itertools.count()

    def take(self, job: Job, context: RunContext) -> None:
        with self._cond:
            if self._holder == job.job_id:
                if not self._waiting or time.perf_counter() - self._held_since < self.QUANTUM_S:
                    return
                self._holder = None
                self._cond.notify_all()
            entry = (-job.priority, next(self._seq), job.job_id)
            heapq.heappush(self._waiting, entry)
            while self._holder is not None or self._waiting[0] != entry:
                if context.should_stop():
                    # Run without the turn: the job winds down at its next check.
                    self._waiting.remove(entry)
                    heapq.heapify(self._waiting)
                    self._cond.notify_all()
                    return
                self._cond.wait(self.POLL_S)
            heapq.heappop(self._waiting)
            self._holder = job.job_id
            self._held_since = time.perf_counter()

    def release(self, job_id: str) -> None:
        """Give up the turn, if held (the job's run has ended)."""
        with self._cond:
            if self._holder == job_id:
                self._holder = None
                self._cond.notify_all()


class _TakeTurns(RunObserver):
    """One job's phase-boundary events, routed to :class:`_Turns`."""

    def __init__(self, turns: _Turns, job: Job) -> None:
        self._turns = turns
        self._job = job

    def on_cycle(self, event) -> None:
        self._turns.take(self._job, event.context)

    def on_merge_phase(self, event) -> None:
        self._turns.take(self._job, event.context)

    def on_mcmc_sweep(self, event) -> None:
        self._turns.take(self._job, event.context)


class JobExecutor:
    """Schedules partitioning jobs over a bounded worker pool.

    Parameters
    ----------
    max_workers:
        Concurrency limit: how many jobs run simultaneously.
    default_timeout:
        Wall-clock budget applied to jobs submitted without their own.
    checkpoint_dir:
        Directory for checkpoint files; required before any job may request
        ``checkpoint_every > 0``.
    default_checkpoint_every:
        Checkpoint cadence applied to jobs submitted without their own
        (0 disables).
    record_runs:
        Append a :class:`~repro.registry.RunRecord` per finished job.
    registry_directory:
        Registry location override (defaults to the library-wide registry).
    """

    def __init__(
        self,
        max_workers: int = 2,
        default_timeout: Optional[float] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        default_checkpoint_every: int = 0,
        record_runs: bool = True,
        registry_directory: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        if default_checkpoint_every < 0:
            raise ValueError("default_checkpoint_every must be non-negative")
        self.max_workers = int(max_workers)
        self.default_timeout = default_timeout
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self.default_checkpoint_every = int(default_checkpoint_every)
        self.record_runs = bool(record_runs)
        self.registry_directory = registry_directory

        self._jobs: Dict[str, Job] = {}
        self._handles: Dict[str, RunHandle] = {}
        self._trackers: Dict[str, ProgressTracker] = {}
        #: Final progress of finished jobs, which hold no run-only state.
        self._final_progress: Dict[str, ProgressSnapshot] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._state_changed = threading.Condition(self._lock)
        self._shutdown = False
        self._turns = _Turns()
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"job-worker-{i}", daemon=True)
            for i in range(self.max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: Graph,
        *,
        job_id: Optional[str] = None,
        strategy: Union[str, Strategy] = "sequential",
        config: ConfigLike = None,
        num_ranks: int = 1,
        priority: int = 0,
        timeout: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        observers: Iterable[RunObserver] = (),
        preset: Optional[str] = None,
        **overrides,
    ) -> Job:
        """Queue a partitioning job and return its :class:`Job` immediately.

        ``config`` accepts everything :func:`repro.partition` does (preset
        name, dict, :class:`SBPConfig`, ``None``); when a preset name is
        passed it is recorded on the job as provenance.  Callers that
        resolved a preset themselves (the HTTP layer) can pass ``preset``
        explicitly.  A client-supplied ``job_id`` must be unique; omitted
        ids are generated.
        """
        resolved_strategy = get_strategy(strategy)
        if preset is None and isinstance(config, str):
            preset = config
        resolved_config = resolve_config(config, **overrides)
        effective_timeout = self.default_timeout if timeout is None else timeout
        effective_every = (
            self.default_checkpoint_every if checkpoint_every is None else int(checkpoint_every)
        )
        if effective_every > 0 and self.checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every requires the executor to be built with a checkpoint_dir"
            )
        job = Job(
            job_id=job_id or new_job_id(),
            graph=graph,
            config=resolved_config,
            strategy=getattr(resolved_strategy, "name", type(resolved_strategy).__name__),
            num_ranks=int(num_ranks),
            priority=int(priority),
            timeout=effective_timeout,
            checkpoint_every=effective_every,
            preset=preset,
        )
        tracker = ProgressTracker(graph.num_vertices, min_blocks=resolved_config.min_blocks)
        job_observers: List[RunObserver] = [tracker, *observers]
        if num_ranks == 1 or get_transport(resolved_config.transport).shares_interpreter:
            job_observers.append(_TakeTurns(self._turns, job))
        if effective_every > 0:
            checkpoint_path = self.checkpoint_dir / f"{job.job_id}.checkpoint.json"
            job.checkpoint_path = str(checkpoint_path)
            job_observers.append(CheckpointWriter(checkpoint_path, effective_every))
        handle = RunHandle(
            resolved_strategy,
            graph,
            resolved_config,
            num_ranks=int(num_ranks),
            observers=job_observers,
            timeout=effective_timeout,
        )
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down; no new jobs accepted")
            if job.job_id in self._jobs:
                raise ValueError(f"duplicate job_id {job.job_id!r}")
            self._jobs[job.job_id] = job
            self._handles[job.job_id] = handle
            self._trackers[job.job_id] = tracker
            # Max-heap by priority via negation; the sequence number keeps
            # equal priorities FIFO and makes entries totally ordered.
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job.job_id))
            self._work_available.notify()
        return job

    def resume(
        self,
        checkpoint_path: Union[str, Path],
        *,
        config: ConfigLike = None,
        job_id: Optional[str] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        **overrides,
    ) -> Job:
        """Queue a warm resume of the checkpoint at ``checkpoint_path``.

        The checkpoint embeds its graph, so a resume needs nothing from the
        dead process except the file; the run continues from the snapshot's
        partition via the sequential driver's fine-tuning mode.  Pass the
        original job's config to continue under the same parameters.
        """
        strategy = resume_strategy(checkpoint_path)
        graph = strategy._checkpoint.graph
        job = self.submit(
            graph,
            job_id=job_id,
            strategy=strategy,
            config=config,
            priority=priority,
            timeout=timeout,
            checkpoint_every=checkpoint_every,
            **overrides,
        )
        job.resumed_from = str(checkpoint_path)
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job registered under ``job_id``; raises ``KeyError`` if unknown."""
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def progress(self, job_id: str) -> ProgressSnapshot:
        """The job's live progress/ETA snapshot (its final one once finished)."""
        with self._lock:
            if job_id in self._final_progress:
                return self._final_progress[job_id]
            if job_id not in self._trackers:
                raise KeyError(f"unknown job {job_id!r}")
            tracker = self._trackers[job_id]
        return tracker.snapshot()

    def metrics(self) -> Dict[str, object]:
        """Queue depth, per-state counters, and latency percentiles."""
        with self._lock:
            jobs = list(self._jobs.values())
            out = service_metrics(jobs)
            out["max_workers"] = self.max_workers
        return out

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state (or raise ``TimeoutError``)."""
        with self._state_changed:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            job = self._jobs[job_id]
            if not self._state_changed.wait_for(lambda: job.done, timeout=timeout):
                raise TimeoutError(f"job {job_id!r} still {job.state!r} after {timeout}s")
            return job

    # ------------------------------------------------------------------
    # Cancellation and shutdown
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a job in either phase; terminal jobs are left untouched.

        Queued jobs transition to ``cancelled`` immediately and never run;
        running jobs stop cooperatively at the next phase boundary (the
        worker then records the terminal state).  Returns the job.
        """
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            job = self._jobs[job_id]
            if job.state == JobState.QUEUED:
                self._handles[job_id].cancel()
                self._finish(job, JobState.CANCELLED)
            elif job.state == JobState.RUNNING:
                self._handles[job_id].cancel()
        return job

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting jobs and wind the pool down.

        With ``cancel_pending=False`` (graceful drain) the workers finish
        everything already queued before exiting; with ``True`` queued jobs
        are cancelled immediately and running jobs are asked to stop.
        """
        with self._lock:
            self._shutdown = True
            if cancel_pending:
                for job in self._jobs.values():
                    if job.state == JobState.QUEUED:
                        self._handles[job.job_id].cancel()
                        self._finish(job, JobState.CANCELLED)
                    elif job.state == JobState.RUNNING:
                        self._handles[job.job_id].cancel()
            self._work_available.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._heap and not self._shutdown:
                    self._work_available.wait()
                if not self._heap and self._shutdown:
                    return
                _, _, job_id = heapq.heappop(self._heap)
                job = self._jobs[job_id]
                if job.state != JobState.QUEUED:
                    continue  # cancelled while queued; nothing to run
                job.advance(JobState.RUNNING)
            self._execute(job)

    def _execute(self, job: Job) -> None:
        # Looked up here, not in the worker loop, so nothing outlives the run.
        with self._lock:
            handle, tracker = self._handles[job.job_id], self._trackers[job.job_id]
        tracker.start()
        try:
            result = handle.run()
        except BaseException as exc:  # noqa: BLE001 - job isolation boundary
            with self._lock:
                job.error = f"{type(exc).__name__}: {exc}"
                self._finish(job, JobState.FAILED)
            return
        finally:
            self._turns.release(job.job_id)
        terminal = {
            "completed": JobState.SUCCEEDED,
            "cancelled": JobState.CANCELLED,
            "timeout": JobState.TIMEOUT,
        }.get(handle.status, JobState.SUCCEEDED)
        with self._lock:
            job.result = result
            if terminal == JobState.SUCCEEDED:
                tracker.finish()
            self._finish(job, terminal)
        if self.record_runs:
            self._record(job)

    def _finish(self, job: Job, state: str) -> None:
        """Move ``job`` to a terminal ``state`` and drop its run-only state.

        The handle (and through it the run's observers, checkpointer and
        context) and the tracker are released; only the tracker's final
        progress snapshot is kept.  Called with the executor lock held.
        """
        job.advance(state)
        self._handles.pop(job.job_id, None)
        self._final_progress[job.job_id] = self._trackers.pop(job.job_id).snapshot()
        self._state_changed.notify_all()

    def _record(self, job: Job) -> None:
        """Append the finished job to the experiment registry."""
        result = job.result
        if result is None:
            return
        latency = job.latency_seconds or 0.0
        provenance = collect_provenance()
        try:
            record = RunRecord(
                experiment=SERVICE_EXPERIMENT,
                mode="service",
                wall_seconds=max(float(result.runtime_seconds), latency, 1e-9),
                config=job.config.to_dict(),
                preset=job.preset,
                seed=job.config.seed,
                strategy=job.strategy or None,
                backend=job.config.matrix_backend,
                transport=job.config.transport,
                git_rev=provenance["git_rev"],
                git_dirty=provenance["git_dirty"],
                hostname=provenance["hostname"],
                phase_seconds={str(k): float(v) for k, v in result.phase_seconds.items()},
                peak_rss_mb=peak_rss_mb(),
            )
            append_run(record, directory=self.registry_directory)
        except (OSError, ValueError) as exc:  # pragma: no cover - degraded env
            warnings.warn(f"service registry append failed ({exc}); job {job.job_id} not recorded")

    # ------------------------------------------------------------------
    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True, cancel_pending=exc_type is not None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            depth = sum(1 for j in self._jobs.values() if j.state == JobState.QUEUED)
            running = sum(1 for j in self._jobs.values() if j.state == JobState.RUNNING)
        return f"JobExecutor(max_workers={self.max_workers}, queued={depth}, running={running})"
