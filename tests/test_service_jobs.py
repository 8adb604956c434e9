"""The serving layer's job model and executor: state machine, scheduling,
cancellation, timeouts, progress/ETA, and registry recording."""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import SBPConfig
from repro.core.context import RunContext
from repro.registry import read_runs
from repro.service import (
    SERVICE_EXPERIMENT,
    Job,
    JobExecutor,
    JobState,
    ProgressTracker,
    percentile,
    service_metrics,
)
from repro.service.executor import _Turns


def make_job(**overrides) -> Job:
    defaults = dict(job_id="j1", graph=SimpleNamespace(name="g", num_vertices=4, num_edges=3),
                    config=SBPConfig())
    defaults.update(overrides)
    return Job(**defaults)


# ----------------------------------------------------------------------
# State machine
# ----------------------------------------------------------------------
class TestJobStateMachine:
    def test_happy_path_stamps_timestamps(self):
        job = make_job()
        assert job.state == JobState.QUEUED and job.started_at is None
        job.advance(JobState.RUNNING)
        assert job.started_at is not None and job.finished_at is None
        job.advance(JobState.SUCCEEDED)
        assert job.finished_at is not None
        assert job.done
        assert job.latency_seconds >= 0.0

    def test_queue_time_cancellation_edge(self):
        job = make_job()
        job.advance(JobState.CANCELLED)
        assert job.done and job.started_at is None

    @pytest.mark.parametrize("terminal", JobState.TERMINAL)
    def test_terminal_states_absorb(self, terminal):
        job = make_job()
        if terminal != JobState.CANCELLED:
            job.advance(JobState.RUNNING)
        job.advance(terminal)
        for target in JobState.ALL:
            with pytest.raises(ValueError):
                job.advance(target)

    def test_illegal_transition_names_both_states(self):
        job = make_job()
        with pytest.raises(ValueError) as err:
            job.advance(JobState.SUCCEEDED)  # skipping "running"
        message = str(err.value)
        assert "'queued'" in message and "'succeeded'" in message
        assert "legal targets" in message

    def test_unknown_state_rejected_with_options(self):
        job = make_job()
        with pytest.raises(ValueError) as err:
            job.advance("paused")
        assert "'paused'" in str(err.value)
        assert "queued" in str(err.value)

    def test_construction_validation_names_fields(self):
        with pytest.raises(ValueError, match="job_id"):
            make_job(job_id="")
        with pytest.raises(ValueError, match="num_ranks"):
            make_job(num_ranks=0)
        with pytest.raises(ValueError, match="timeout"):
            make_job(timeout=-1.0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_job(checkpoint_every=-2)

    def test_to_dict_is_json_ready_status_view(self):
        import json

        job = make_job(priority=3, preset="fast")
        view = job.to_dict()
        json.dumps(view)
        assert view["state"] == "queued"
        assert view["priority"] == 3
        assert view["preset"] == "fast"
        assert "result" not in view


# ----------------------------------------------------------------------
# Scheduling: fake strategies exercising the pool without real SBP runs
# ----------------------------------------------------------------------
class GatedStrategy:
    """Blocks until released; records start order and peak concurrency."""

    name = "gated"

    def __init__(self, release: threading.Event, log: list, lock: threading.Lock,
                 counters: dict, tag: str):
        self.release = release
        self.log = log
        self.lock = lock
        self.counters = counters
        self.tag = tag

    def run(self, graph, config, *, num_ranks=1, run_context=None):
        with self.lock:
            self.log.append(self.tag)
            self.counters["running"] = self.counters.get("running", 0) + 1
            self.counters["peak"] = max(self.counters.get("peak", 0), self.counters["running"])
        assert self.release.wait(timeout=30), "gate never released"
        with self.lock:
            self.counters["running"] -= 1
        return SimpleNamespace(runtime_seconds=0.0, phase_seconds={})


class TurnTaker:
    """Emits one sweep event, logs its tag, then holds on until released
    (returning at once if the run was stopped meanwhile)."""

    name = "turn-taker"

    def __init__(self, tag: str, log: list, release: threading.Event):
        self.tag = tag
        self.log = log
        self.release = release

    def run(self, graph, config, *, num_ranks=1, run_context=None):
        run_context.emit_mcmc_sweep(sweep=1, accepted_moves=0, proposed_moves=0, delta_dl=0.0)
        self.log.append(self.tag)
        if not run_context.should_stop():
            assert self.release.wait(timeout=30), "gate never released"
        return SimpleNamespace(runtime_seconds=0.0, phase_seconds={},
                               metadata={"stopped": run_context.stop_reason})


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class CooperativeStrategy:
    """Spins until the run context tells it to stop (cancel or timeout)."""

    name = "cooperative"

    def __init__(self, started: threading.Event):
        self.started = started

    def run(self, graph, config, *, num_ranks=1, run_context=None):
        context = run_context or RunContext()
        self.started.set()
        while not context.should_stop():
            time.sleep(0.005)
        return SimpleNamespace(runtime_seconds=0.0, phase_seconds={},
                               metadata={"stopped": context.stop_reason})


class TestExecutorScheduling:
    def test_priority_order_drains_highest_first(self, tiny_graph):
        release = threading.Event()
        log, lock, counters = [], threading.Lock(), {}

        def gated(tag):
            return GatedStrategy(release, log, lock, counters, tag)

        with JobExecutor(max_workers=1, record_runs=False) as executor:
            # Occupy the lone worker so the rest genuinely queue.
            executor.submit(tiny_graph, strategy=gated("blocker"), job_id="blocker")
            time.sleep(0.1)
            executor.submit(tiny_graph, strategy=gated("low"), job_id="low", priority=1)
            executor.submit(tiny_graph, strategy=gated("high"), job_id="high", priority=9)
            executor.submit(tiny_graph, strategy=gated("mid"), job_id="mid", priority=5)
            release.set()
            for job_id in ("blocker", "low", "high", "mid"):
                assert executor.wait(job_id, timeout=30).state == JobState.SUCCEEDED
        assert log == ["blocker", "high", "mid", "low"]

    def test_equal_priority_is_fifo(self, tiny_graph):
        release = threading.Event()
        log, lock, counters = [], threading.Lock(), {}
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            executor.submit(tiny_graph, strategy=GatedStrategy(release, log, lock, counters, "b"),
                            job_id="b")
            time.sleep(0.1)
            for tag in ("first", "second", "third"):
                executor.submit(tiny_graph,
                                strategy=GatedStrategy(release, log, lock, counters, tag),
                                job_id=tag)
            release.set()
            for job_id in ("b", "first", "second", "third"):
                executor.wait(job_id, timeout=30)
        assert log == ["b", "first", "second", "third"]

    def test_concurrency_limit_is_enforced(self, tiny_graph):
        release = threading.Event()
        log, lock, counters = [], threading.Lock(), {}
        with JobExecutor(max_workers=2, record_runs=False) as executor:
            for i in range(5):
                executor.submit(tiny_graph,
                                strategy=GatedStrategy(release, log, lock, counters, str(i)),
                                job_id=str(i))
            # Let the pool saturate before opening the gate.
            deadline = time.monotonic() + 5
            while counters.get("running", 0) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()
            for i in range(5):
                executor.wait(str(i), timeout=30)
        assert counters["peak"] == 2

    def test_duplicate_job_id_rejected(self, tiny_graph):
        release = threading.Event()
        release.set()
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            executor.submit(tiny_graph, job_id="same",
                            strategy=GatedStrategy(release, [], threading.Lock(), {}, "a"))
            with pytest.raises(ValueError, match="same"):
                executor.submit(tiny_graph, job_id="same",
                                strategy=GatedStrategy(release, [], threading.Lock(), {}, "b"))

    def test_submit_after_shutdown_rejected(self, tiny_graph):
        executor = JobExecutor(max_workers=1, record_runs=False)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit(tiny_graph)

    def test_unknown_job_raises_keyerror(self):
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            with pytest.raises(KeyError):
                executor.get("ghost")
            with pytest.raises(KeyError):
                executor.progress("ghost")
            with pytest.raises(KeyError):
                executor.cancel("ghost")
            with pytest.raises(KeyError):
                executor.wait("ghost")

    def test_wait_times_out(self, tiny_graph):
        release = threading.Event()
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            executor.submit(tiny_graph, job_id="slow",
                            strategy=GatedStrategy(release, [], threading.Lock(), {}, "slow"))
            with pytest.raises(TimeoutError):
                executor.wait("slow", timeout=0.05)
            release.set()
            executor.wait("slow", timeout=30)

    def test_checkpointing_requires_directory(self, tiny_graph):
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            with pytest.raises(ValueError, match="checkpoint_dir"):
                executor.submit(tiny_graph, checkpoint_every=2)


class TestExecutorCancellation:
    def test_queued_job_cancelled_immediately_and_never_runs(self, tiny_graph):
        release = threading.Event()
        log, lock, counters = [], threading.Lock(), {}
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            executor.submit(tiny_graph, job_id="blocker",
                            strategy=GatedStrategy(release, log, lock, counters, "blocker"))
            time.sleep(0.1)
            queued = executor.submit(tiny_graph, job_id="victim",
                                     strategy=GatedStrategy(release, log, lock, counters, "victim"))
            executor.cancel("victim")
            # Terminal before the worker ever saw it, started_at never set.
            assert queued.state == JobState.CANCELLED
            assert queued.started_at is None
            release.set()
            executor.wait("blocker", timeout=30)
        assert "victim" not in log

    def test_running_job_cancels_cooperatively(self, tiny_graph):
        started = threading.Event()
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            job = executor.submit(tiny_graph, strategy=CooperativeStrategy(started))
            assert started.wait(timeout=10)
            assert job.state == JobState.RUNNING
            executor.cancel(job.job_id)
            finished = executor.wait(job.job_id, timeout=30)
            assert finished.state == JobState.CANCELLED
            assert finished.result.metadata["stopped"] == "cancelled"

    def test_cancel_terminal_job_is_a_noop(self, tiny_graph, fast_config):
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            job = executor.submit(tiny_graph, config=fast_config)
            executor.wait(job.job_id, timeout=60)
            state_before = job.state
            executor.cancel(job.job_id)
            assert job.state == state_before

    def test_timeout_lands_in_timeout_state(self, tiny_graph):
        started = threading.Event()
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            job = executor.submit(tiny_graph, strategy=CooperativeStrategy(started), timeout=0.2)
            finished = executor.wait(job.job_id, timeout=30)
            assert finished.state == JobState.TIMEOUT
            assert finished.result.metadata["stopped"] == "timeout"

    def test_shutdown_cancel_pending_sweeps_the_queue(self, tiny_graph):
        release = threading.Event()
        log, lock, counters = [], threading.Lock(), {}
        executor = JobExecutor(max_workers=1, record_runs=False)
        executor.submit(tiny_graph, job_id="blocker",
                        strategy=GatedStrategy(release, log, lock, counters, "blocker"))
        time.sleep(0.1)
        queued = executor.submit(tiny_graph, job_id="queued",
                                 strategy=GatedStrategy(release, log, lock, counters, "queued"))
        release.set()
        executor.shutdown(wait=True, cancel_pending=True)
        assert queued.state == JobState.CANCELLED
        assert "queued" not in log

    def test_failed_strategy_lands_in_failed_with_error(self, tiny_graph):
        class Exploding:
            name = "exploding"

            def run(self, graph, config, *, num_ranks=1, run_context=None):
                raise RuntimeError("kaboom")

        with JobExecutor(max_workers=1, record_runs=False) as executor:
            job = executor.submit(tiny_graph, strategy=Exploding())
            finished = executor.wait(job.job_id, timeout=30)
            assert finished.state == JobState.FAILED
            assert "kaboom" in finished.error


# ----------------------------------------------------------------------
# Real runs end to end (sequential strategy, fast config)
# ----------------------------------------------------------------------
class TestExecutorRealRuns:
    def test_job_result_matches_direct_partition(self, planted_graph, fast_config):
        from repro.api import partition

        direct = partition(planted_graph, strategy="sequential", config=fast_config)
        with JobExecutor(max_workers=2, record_runs=False) as executor:
            job = executor.submit(planted_graph, config=fast_config)
            finished = executor.wait(job.job_id, timeout=120)
        assert finished.state == JobState.SUCCEEDED
        assert np.array_equal(finished.result.assignment, direct.assignment)
        assert finished.result.description_length == direct.description_length

    def test_progress_reaches_one_with_finite_eta_along_the_way(self, planted_graph, fast_config):
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            job = executor.submit(planted_graph, config=fast_config)
            executor.wait(job.job_id, timeout=120)
            snapshot = executor.progress(job.job_id)
        assert snapshot.progress == 1.0
        assert snapshot.eta_seconds == 0.0
        assert snapshot.cycles > 0
        assert snapshot.block_trajectory[0][1] >= snapshot.block_trajectory[-1][1]

    def test_finished_job_recorded_in_registry(self, planted_graph, fast_config, tmp_path):
        with JobExecutor(max_workers=1, registry_directory=tmp_path) as executor:
            job = executor.submit(planted_graph, config=fast_config, priority=2)
            executor.wait(job.job_id, timeout=120)
        runs = read_runs(SERVICE_EXPERIMENT, directory=tmp_path)
        assert len(runs) == 1
        assert runs[0].mode == "service"
        assert runs[0].strategy == "sequential"
        assert runs[0].wall_seconds > 0

    def test_concurrent_jobs_take_turns_and_match_direct_runs(self, planted_graph, fast_config):
        from repro.api import partition

        direct = partition(planted_graph, strategy="sequential", config=fast_config)
        with JobExecutor(max_workers=2, record_runs=False) as executor:
            jobs = [executor.submit(planted_graph, config=fast_config) for _ in range(3)]
            finished = [executor.wait(job.job_id, timeout=120) for job in jobs]
        for job in finished:
            assert job.state == JobState.SUCCEEDED
            assert np.array_equal(job.result.assignment, direct.assignment)
            assert job.result.description_length == direct.description_length

    def test_turns_keep_jobs_between_events_exclusive_under_stress(self, tiny_graph):
        """After its first event a job computes only while holding the turn:
        with more workers than cores and a short switch interval, no two
        jobs are ever between events at once."""
        lock, state = threading.Lock(), {"active": 0, "peak": 0}

        class Stress:
            name = "stress"

            def run(self, graph, config, *, num_ranks=1, run_context=None):
                for sweep in range(20):
                    run_context.emit_mcmc_sweep(
                        sweep=sweep, accepted_moves=0, proposed_moves=0, delta_dl=0.0
                    )
                    with lock:
                        state["active"] += 1
                        state["peak"] = max(state["peak"], state["active"])
                    sum(range(2000))
                    with lock:
                        state["active"] -= 1
                return SimpleNamespace(runtime_seconds=0.0, phase_seconds={})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobExecutor(max_workers=4, record_runs=False) as executor:
                jobs = [executor.submit(tiny_graph, strategy=Stress()) for _ in range(8)]
                finished = [executor.wait(job.job_id, timeout=60) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        assert all(job.state == JobState.SUCCEEDED for job in finished)
        assert state["peak"] == 1

    def test_turn_passes_to_the_highest_priority_waiter(self, tiny_graph):
        release, log = threading.Event(), []
        with JobExecutor(max_workers=3, record_runs=False) as executor:
            holder = executor.submit(tiny_graph, strategy=TurnTaker("holder", log, release))
            wait_until(lambda: log == ["holder"])
            low = executor.submit(tiny_graph, strategy=TurnTaker("low", log, release))
            wait_until(lambda: len(executor._turns._waiting) == 1)
            high = executor.submit(tiny_graph, strategy=TurnTaker("high", log, release), priority=5)
            wait_until(lambda: len(executor._turns._waiting) == 2)
            release.set()
            for job in (holder, low, high):
                assert executor.wait(job.job_id, timeout=10).state == JobState.SUCCEEDED
        assert log == ["holder", "high", "low"]

    @pytest.mark.parametrize("stop", ["cancel", "timeout"])
    def test_job_waiting_for_its_turn_stops_without_it(self, tiny_graph, stop):
        release, log = threading.Event(), []
        with JobExecutor(max_workers=2, record_runs=False) as executor:
            holder = executor.submit(tiny_graph, strategy=TurnTaker("holder", log, release))
            wait_until(lambda: log == ["holder"])
            waiter = executor.submit(
                tiny_graph,
                strategy=TurnTaker("waiter", log, release),
                timeout=0.3 if stop == "timeout" else None,
            )
            wait_until(lambda: executor._turns._waiting)  # blocked at its first event
            if stop == "cancel":
                executor.cancel(waiter.job_id)
            finished = executor.wait(waiter.job_id, timeout=10)
            assert holder.state == JobState.RUNNING  # the turn was never passed
            release.set()
            assert executor.wait(holder.job_id, timeout=10).state == JobState.SUCCEEDED
        expected = {"cancel": JobState.CANCELLED, "timeout": JobState.TIMEOUT}[stop]
        assert finished.state == expected
        assert finished.result.metadata["stopped"] == finished.state

    def test_jobs_on_the_processes_transport_take_no_turns(
        self, planted_graph, fast_config, monkeypatch
    ):
        """Their ranks compute in child processes, so the turn would only
        serialise them; jobs on in-interpreter transports still take it."""
        from repro.api import partition

        taken, take = [], _Turns.take

        def recording_take(turns, job, context):
            taken.append(job.job_id)
            take(turns, job, context)

        monkeypatch.setattr(_Turns, "take", recording_take)
        config = fast_config.with_overrides(transport="processes")
        direct = partition(planted_graph, strategy="edist", num_ranks=2, config=config)
        with JobExecutor(max_workers=2, record_runs=False) as executor:
            jobs = [
                executor.submit(planted_graph, strategy="edist", num_ranks=2, config=config)
                for _ in range(2)
            ]
            jobs.append(executor.submit(planted_graph, strategy="edist", num_ranks=2, config=fast_config))
            finished = [executor.wait(job.job_id, timeout=120) for job in jobs]
        assert all(job.state == JobState.SUCCEEDED for job in finished)
        for job in finished:
            assert np.array_equal(job.result.assignment, direct.assignment)
        assert set(taken) == {jobs[2].job_id}

    def test_finished_job_holds_no_run_handle(self, tiny_graph, fast_config):
        release = threading.Event()
        log, lock, counters = [], threading.Lock(), {}
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            gated = executor.submit(tiny_graph, strategy=GatedStrategy(release, log, lock, counters, "g"))
            queued = executor.submit(tiny_graph, config=fast_config)
            cancelled = executor.submit(tiny_graph, config=fast_config, priority=-1)
            handles = [weakref.ref(executor._handles[j.job_id]) for j in (gated, queued, cancelled)]
            executor.cancel(cancelled.job_id)
            release.set()
            for job in (gated, queued):
                executor.wait(job.job_id, timeout=60)
            assert [j.state for j in (gated, queued, cancelled)] == [
                JobState.SUCCEEDED, JobState.SUCCEEDED, JobState.CANCELLED
            ]
            gc.collect()
            assert [ref() for ref in handles] == [None, None, None]
            assert not executor._handles and not executor._trackers
            # Status views still report each job's final progress.
            assert executor.progress(queued.job_id).progress == 1.0
            assert executor.progress(cancelled.job_id).cycles == 0
            executor.cancel(queued.job_id)  # a no-op on a finished job
            assert queued.state == JobState.SUCCEEDED

    def test_preset_string_recorded_as_provenance(self, tiny_graph):
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            job = executor.submit(tiny_graph, config="fast")
            executor.wait(job.job_id, timeout=60)
        assert job.preset == "fast"


# ----------------------------------------------------------------------
# Progress tracker + metrics units
# ----------------------------------------------------------------------
class TestProgressTracker:
    def test_monotone_progress_and_finite_eta(self):
        tracker = ProgressTracker(num_vertices=1000)
        context = RunContext(observers=[tracker])
        tracker.start()
        fractions = []
        blocks = 1000
        for cycle in range(1, 8):
            blocks = max(blocks // 2, 1)
            context.emit_cycle(cycle, blocks, 1e5 - cycle, 3, 10)
            snap = tracker.snapshot()
            fractions.append(snap.progress)
            assert snap.eta_seconds is not None and np.isfinite(snap.eta_seconds)
        assert fractions == sorted(fractions)
        assert 0.0 < fractions[-1] < 1.0

    def test_progress_never_decreases_when_blocks_rebound(self):
        # The bracket-refinement phase revisits larger block counts; the
        # reported fraction must not walk backwards.
        tracker = ProgressTracker(num_vertices=256)
        context = RunContext(observers=[tracker])
        tracker.start()
        for cycle, blocks in enumerate([128, 64, 32, 64, 48], start=1):
            context.emit_cycle(cycle, blocks, 1000.0 + cycle, 1, 1)
            if cycle == 3:
                high_water = tracker.snapshot().progress
        assert tracker.snapshot().progress >= high_water

    def test_overshoot_collapses_remaining_work(self):
        tracker = ProgressTracker(num_vertices=1024)
        context = RunContext(observers=[tracker])
        tracker.start()
        context.emit_cycle(1, 512, 100.0, 1, 1)
        before = tracker.snapshot().progress
        # DL turns upward: the search overshot the minimum.
        context.emit_cycle(2, 256, 150.0, 1, 1)
        after = tracker.snapshot().progress
        assert after > before

    def test_finish_snaps_to_complete(self):
        tracker = ProgressTracker(num_vertices=10)
        tracker.start()
        tracker.finish()
        snap = tracker.snapshot()
        assert snap.progress == 1.0 and snap.eta_seconds == 0.0 and snap.phase == "done"

    def test_snapshot_serializes(self):
        import json

        tracker = ProgressTracker(num_vertices=10)
        json.dumps(tracker.snapshot().to_dict())


class TestMetrics:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_service_metrics_counters(self):
        jobs = [make_job(job_id=f"j{i}") for i in range(4)]
        jobs[0].advance(JobState.RUNNING)
        jobs[1].advance(JobState.RUNNING)
        jobs[1].advance(JobState.SUCCEEDED)
        jobs[2].advance(JobState.CANCELLED)
        out = service_metrics(jobs)
        assert out["jobs_total"] == 4
        assert out["queue_depth"] == 1
        assert out["running"] == 1
        assert out["finished"] == 2
        assert out["states"][JobState.SUCCEEDED] == 1
        assert out["latency_seconds"]["count"] == 1.0
