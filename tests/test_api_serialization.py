"""Serialization round-trips: configs (presets/overrides) and full results."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import partition
from repro.core.config import (
    SBPConfig,
    available_presets,
    config_preset,
    register_config_preset,
)
from repro.core.results import IterationRecord, SBPResult
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.mpi.stats import CommStats


class TestConfigRoundTrip:
    @pytest.mark.parametrize("preset", ["paper", "fast"])
    def test_presets_round_trip(self, preset):
        config = config_preset(preset)
        assert SBPConfig.from_dict(config.to_dict()) == config

    def test_overridden_config_round_trips(self):
        config = SBPConfig.fast(seed=77).with_overrides(
            matrix_backend="dense",
            mcmc_variant="batch_gibbs",
            beta=2.5,
            dcsbp_merge_candidates=6,
            track_history=False,
        )
        assert SBPConfig.from_dict(config.to_dict()) == config

    def test_round_trip_survives_json(self):
        config = SBPConfig.fast(seed=3)
        rebuilt = SBPConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_from_dict_rejects_unknown_keys(self):
        data = SBPConfig().to_dict()
        data["betaa"] = 1.0
        with pytest.raises(ValueError, match="betaa"):
            SBPConfig.from_dict(data)

    @pytest.mark.parametrize("retired", ["dict", "csr"])
    def test_from_dict_maps_retired_backends_to_auto(self, retired):
        data = SBPConfig.fast(seed=5).to_dict()
        data["matrix_backend"] = retired
        assert SBPConfig.from_dict(data) == SBPConfig.fast(seed=5)
        assert SBPConfig.fast().matrix_backend == "auto"

    def test_from_dict_still_rejects_unknown_backends(self):
        data = SBPConfig().to_dict()
        data["matrix_backend"] = "cupy"
        with pytest.raises(ValueError, match="'auto', 'dense', 'sparse_csr'"):
            SBPConfig.from_dict(data)
        with pytest.raises(ValueError, match="'auto'"):
            SBPConfig(matrix_backend="dict")  # only persisted configs are mapped

    def test_from_dict_validates_values(self):
        data = SBPConfig().to_dict()
        data["mcmc_variant"] = "nope"
        with pytest.raises(ValueError, match="metropolis_hastings"):
            SBPConfig.from_dict(data)

    def test_custom_preset_registration(self):
        register_config_preset("test-heavy", lambda: SBPConfig(max_mcmc_iterations=50))
        try:
            assert "test-heavy" in available_presets()
            assert config_preset("test-heavy").max_mcmc_iterations == 50
            assert SBPConfig.from_preset("test-heavy", seed=1).seed == 1
        finally:
            from repro.core import config as config_module

            config_module._CONFIG_PRESETS.pop("test-heavy")

    def test_bad_preset_factory_rejected_at_registration(self):
        with pytest.raises(TypeError):
            register_config_preset("broken", lambda: "not a config")

    def test_from_preset_applies_overrides(self):
        config = SBPConfig.from_preset("fast", seed=9, matrix_backend="dense")
        assert config.matrix_backend == "dense"
        assert config.seed == 9


class TestGraphRoundTrip:
    def test_graph_round_trips_exactly(self, planted_graph):
        rebuilt = graph_from_dict(graph_to_dict(planted_graph))
        assert rebuilt == planted_graph
        assert rebuilt.name == planted_graph.name
        assert np.array_equal(rebuilt.true_assignment, planted_graph.true_assignment)

    def test_graph_without_truth(self, planted_graph):
        data = graph_to_dict(planted_graph)
        del data["true_assignment"]
        rebuilt = graph_from_dict(data)
        assert rebuilt.true_assignment is None
        assert rebuilt == planted_graph


class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def sequential_result(self, planted_graph, fast_config):
        return partition(planted_graph, strategy="sequential", config=fast_config)

    @pytest.fixture(scope="class")
    def edist_result(self, planted_graph, fast_config):
        return partition(planted_graph, strategy="edist", config=fast_config, num_ranks=2)

    def _assert_bit_identical(self, original: SBPResult, reloaded: SBPResult) -> None:
        assert reloaded.description_length == original.description_length
        assert np.array_equal(reloaded.assignment, original.assignment)
        assert reloaded.num_communities == original.num_communities
        assert reloaded.nmi() == original.nmi()
        assert reloaded.dl_norm() == original.dl_norm()
        assert reloaded.algorithm == original.algorithm
        assert reloaded.num_ranks == original.num_ranks
        assert reloaded.runtime_seconds == original.runtime_seconds
        assert reloaded.phase_seconds == original.phase_seconds
        assert len(reloaded.history) == len(original.history)
        for a, b in zip(original.history, reloaded.history):
            assert b.iteration == a.iteration
            assert b.num_blocks == a.num_blocks
            assert b.description_length == a.description_length
            assert b.mcmc_sweeps == a.mcmc_sweeps
            assert b.accepted_moves == a.accepted_moves
            assert b.phase_seconds == a.phase_seconds
        if original.comm_stats is None:
            assert reloaded.comm_stats is None
        else:
            assert reloaded.comm_stats.rank == original.comm_stats.rank
            assert reloaded.comm_stats.calls == original.comm_stats.calls
            assert reloaded.comm_stats.bytes_sent == original.comm_stats.bytes_sent
            assert reloaded.comm_stats.bytes_received == original.comm_stats.bytes_received

    def test_sequential_result_round_trips(self, sequential_result, tmp_path):
        path = sequential_result.save(tmp_path / "sequential.json")
        self._assert_bit_identical(sequential_result, SBPResult.load(path))

    def test_edist_result_round_trips_with_comm_stats(self, edist_result, tmp_path):
        assert edist_result.comm_stats is not None
        path = edist_result.save(tmp_path / "edist.json")
        self._assert_bit_identical(edist_result, SBPResult.load(path))

    def test_dcsbp_result_round_trips(self, planted_graph, fast_config, tmp_path):
        result = partition(planted_graph, strategy="dcsbp", config=fast_config, num_ranks=2)
        path = result.save(tmp_path / "dcsbp.json")
        self._assert_bit_identical(result, SBPResult.load(path))

    def test_double_round_trip_is_stable(self, sequential_result, tmp_path):
        first = SBPResult.load(sequential_result.save(tmp_path / "a.json"))
        second = SBPResult.load(first.save(tmp_path / "b.json"))
        self._assert_bit_identical(first, second)
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_without_graph_requires_explicit_graph(self, sequential_result, planted_graph, tmp_path):
        path = sequential_result.save(tmp_path / "slim.json", include_graph=False)
        with pytest.raises(ValueError, match="include_graph"):
            SBPResult.load(path)
        reloaded = SBPResult.load(path, graph=planted_graph)
        self._assert_bit_identical(sequential_result, reloaded)

    def test_slim_file_is_smaller(self, sequential_result, tmp_path):
        full = sequential_result.save(tmp_path / "full.json")
        slim = sequential_result.save(tmp_path / "slim.json", include_graph=False)
        assert slim.stat().st_size < full.stat().st_size

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="format"):
            SBPResult.load(path)

    def test_metadata_survives(self, sequential_result, tmp_path):
        reloaded = SBPResult.load(sequential_result.save(tmp_path / "meta.json"))
        assert reloaded.metadata["cycles"] == sequential_result.metadata["cycles"]


class TestIterationRecordAndCommStats:
    def test_iteration_record_round_trip(self):
        record = IterationRecord(
            iteration=3,
            num_blocks=17,
            description_length=12345.6789012345,
            mcmc_sweeps=9,
            accepted_moves=411,
            phase_seconds={"mcmc": 0.125, "block_merge": 0.0625},
        )
        rebuilt = IterationRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt == record

    def test_comm_stats_round_trip(self):
        stats = CommStats(rank=2, record_events=True)
        stats.record("allgather", sent=100, received=700)
        stats.record("bcast", sent=8, received=8)
        stats.record("allgather", sent=50, received=350)
        rebuilt = CommStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert rebuilt.rank == stats.rank
        assert rebuilt.calls == stats.calls
        assert rebuilt.bytes_sent == stats.bytes_sent
        assert rebuilt.bytes_received == stats.bytes_received
        assert rebuilt.events == stats.events
