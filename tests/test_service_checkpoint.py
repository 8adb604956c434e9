"""Checkpointing: periodic atomic snapshots and kill-and-warm-resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Partitioner, partition
from repro.core.context import RunObserver
from repro.core.results import SBPResult
from repro.service import (
    CheckpointWriter,
    JobExecutor,
    JobState,
    WarmStartSequential,
    load_checkpoint,
    resume_strategy,
)


class CancelAfter(RunObserver):
    """Simulates a crash: stop the run after N agglomerative cycles."""

    def __init__(self, cycles: int):
        self.cycles = cycles
        self.seen = 0

    def on_cycle(self, event):
        self.seen += 1
        if self.seen >= self.cycles:
            event.context.cancel()


class TestCheckpointWriter:
    def test_cadence_validated(self, tmp_path):
        with pytest.raises(ValueError, match="cadence"):
            CheckpointWriter(tmp_path / "c.json", every=0)

    def test_writes_every_n_cycles(self, planted_graph, fast_config, tmp_path):
        path = tmp_path / "run.checkpoint.json"
        writer = CheckpointWriter(path, every=2)
        result = partition(planted_graph, config=fast_config, observers=[writer])
        cycles = sum(1 for r in result.history if r.iteration >= 1)
        assert writer.written == cycles // 2
        assert writer.skipped == 0
        assert writer.last_cycle == (cycles // 2) * 2
        assert path.exists()
        # Atomic replace never leaves a temp file behind.
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_checkpoint_is_a_wellformed_partial_result(self, planted_graph, fast_config, tmp_path):
        path = tmp_path / "run.checkpoint.json"
        partition(planted_graph, config=fast_config,
                  observers=[CheckpointWriter(path, every=1)])
        snapshot = load_checkpoint(path)
        assert snapshot.metadata["checkpoint"] is True
        assert snapshot.metadata["checkpoint_cycle"] >= 1
        assert snapshot.assignment.shape == (planted_graph.num_vertices,)
        assert np.isfinite(snapshot.description_length)
        # The embedded graph makes the file self-contained.
        assert snapshot.graph.num_vertices == planted_graph.num_vertices

    def test_round_trip_is_bit_exact(self, planted_graph, fast_config, tmp_path):
        path = tmp_path / "run.checkpoint.json"
        writer = CheckpointWriter(path, every=2)
        partition(planted_graph, config=fast_config, observers=[writer])
        first = load_checkpoint(path)
        second = SBPResult.load(path)
        assert first.description_length == second.description_length
        assert np.array_equal(first.assignment, second.assignment)

    def test_plain_result_rejected_as_checkpoint(self, planted_graph, fast_config, tmp_path):
        path = tmp_path / "plain.json"
        partition(planted_graph, config=fast_config).save(path)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_event_without_blockmodel_is_counted_not_fatal(self, tmp_path):
        from repro.core.context import RunContext

        writer = CheckpointWriter(tmp_path / "c.json", every=1)
        context = RunContext(observers=[writer])
        context.emit_cycle(1, 10, 100.0, 1, 1)  # no blockmodel attached
        assert writer.skipped == 1
        assert writer.written == 0


class TestWarmResume:
    def test_kill_and_warm_resume_round_trip(self, planted_graph, fast_config, tmp_path):
        path = tmp_path / "killed.checkpoint.json"
        # "Crash" three cycles in, with a checkpoint from cycle 2 on disk.
        killed = partition(
            planted_graph, config=fast_config,
            observers=[CheckpointWriter(path, every=2), CancelAfter(3)],
        )
        assert killed.metadata["stopped"] == "cancelled"
        snapshot = load_checkpoint(path)
        assert snapshot.metadata["checkpoint_cycle"] == 2

        # Resume warm: the search restarts from the snapshot's granularity,
        # not from one-block-per-vertex, and runs to convergence.
        strategy = resume_strategy(path)
        handle = Partitioner(strategy, fast_config).submit(planted_graph)
        resumed = handle.run()
        assert handle.status == "completed"
        assert resumed.metadata["resumed_from_cycle"] == 2
        assert resumed.algorithm == "sbp-resumed"
        first_cycle_blocks = resumed.history[0].num_blocks
        assert first_cycle_blocks <= snapshot.num_communities
        # Finishing the search beats the mid-run snapshot it started from.
        assert resumed.description_length < snapshot.description_length

    def test_resume_through_executor(self, planted_graph, fast_config, tmp_path):
        path = tmp_path / "job.checkpoint.json"
        partition(planted_graph, config=fast_config,
                  observers=[CheckpointWriter(path, every=2), CancelAfter(3)])
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            job = executor.resume(path, config=fast_config)
            finished = executor.wait(job.job_id, timeout=120)
        assert finished.state == JobState.SUCCEEDED
        assert finished.resumed_from == str(path)
        assert finished.strategy == "sequential-warm"
        assert finished.result.metadata["resumed_from_cycle"] == 2

    @pytest.mark.parametrize("retired", ["dict", "csr"])
    def test_resume_under_persisted_config_naming_retired_backend(
        self, planted_graph, fast_config, tmp_path, retired
    ):
        """A checkpoint resumed with the job config an older version recorded
        (``matrix_backend`` naming a retired storage) runs on ``"auto"`` and
        reproduces the resume under the current config bit for bit."""
        path = tmp_path / "old.checkpoint.json"
        partition(planted_graph, config=fast_config,
                  observers=[CheckpointWriter(path, every=2), CancelAfter(3)])
        persisted = json.loads(json.dumps({**fast_config.to_dict(), "matrix_backend": retired}))
        with JobExecutor(max_workers=1, record_runs=False) as executor:
            old = executor.wait(executor.resume(path, config=persisted).job_id, timeout=120)
            new = executor.wait(executor.resume(path, config=fast_config).job_id, timeout=120)
        assert old.state == new.state == JobState.SUCCEEDED
        assert old.config == fast_config and old.config.matrix_backend == "auto"
        assert np.array_equal(old.result.assignment, new.result.assignment)
        assert old.result.description_length == new.result.description_length

    def test_executor_writes_checkpoints_for_jobs(self, planted_graph, fast_config, tmp_path):
        with JobExecutor(max_workers=1, record_runs=False,
                         checkpoint_dir=tmp_path) as executor:
            job = executor.submit(planted_graph, config=fast_config,
                                  job_id="ckpt-job", checkpoint_every=1)
            executor.wait("ckpt-job", timeout=120)
        assert job.checkpoint_path == str(tmp_path / "ckpt-job.checkpoint.json")
        snapshot = load_checkpoint(job.checkpoint_path)
        assert snapshot.metadata["checkpoint"] is True

    def test_warm_start_rejects_multiple_ranks(self, planted_graph, fast_config, tmp_path):
        path = tmp_path / "c.json"
        partition(planted_graph, config=fast_config,
                  observers=[CheckpointWriter(path, every=1)])
        strategy = WarmStartSequential(load_checkpoint(path))
        with pytest.raises(ValueError, match="num_ranks"):
            strategy.run(planted_graph, fast_config, num_ranks=2)
