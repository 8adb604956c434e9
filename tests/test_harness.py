"""Tests for the experiment harness: settings, runtime model, tables, experiments."""

import numpy as np
import pytest

from repro.core.dcsbp import divide_and_conquer_sbp
from repro.core.edist import edist
from repro.core.sbp import stochastic_block_partition
from repro.harness.experiments import (
    PAPER_BASELINE_NMI,
    run_algorithm,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.harness.runtime_model import RuntimeModelParams, modeled_runtime, speedup_series
from repro.harness.settings import ExperimentSettings
from repro.harness.tables import format_table, rows_to_csv, save_rows


class TestSettings:
    def test_quick_preset_defaults(self):
        settings = ExperimentSettings.quick()
        assert settings.mode == "quick"
        assert 1 in settings.rank_counts

    def test_full_preset_covers_all_sweep_graphs(self):
        settings = ExperimentSettings.full()
        assert len(settings.sweep_graph_ids) == 16
        assert max(settings.rank_counts) == 64

    def test_smoke_preset_is_tiny(self):
        settings = ExperimentSettings.smoke()
        assert settings.sweep_scale < ExperimentSettings.quick().sweep_scale

    def test_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MODE", "full")
        assert ExperimentSettings.from_environment().mode == "full"
        monkeypatch.setenv("REPRO_BENCH_MODE", "smoke")
        assert ExperimentSettings.from_environment().mode == "smoke"
        monkeypatch.delenv("REPRO_BENCH_MODE")
        assert ExperimentSettings.from_environment().mode == "quick"


class TestRuntimeModel:
    def test_sequential_model_matches_compute_phases(self, planted_graph, fast_config):
        result = stochastic_block_partition(planted_graph, fast_config)
        modeled = modeled_runtime(result)
        assert 0 < modeled <= result.runtime_seconds * 1.2

    def test_edist_model_shrinks_with_more_ranks(self, planted_graph, fast_config):
        one = edist(planted_graph, 1, fast_config)
        four = edist(planted_graph, 4, fast_config)
        assert modeled_runtime(four) < modeled_runtime(one) * 1.1

    def test_edist_model_charges_rank_cpu_seconds(self, planted_graph, fast_config):
        result = edist(planted_graph, 2, fast_config)
        wall = result.metadata["per_rank_phase_seconds"]
        cpu = result.metadata["per_rank_phase_cpu_seconds"]
        assert [sorted(p) for p in cpu] == [sorted(p) for p in wall]
        assert all(cpu[r][k] <= wall[r][k] + 1e-3 for r in range(2) for k in wall[r])
        result.metadata["per_rank_phase_cpu_seconds"] = [dict.fromkeys(p, 0.0) for p in cpu]
        assert modeled_runtime(result) < 0.01  # only the α-β communication term is left

    def test_dcsbp_model_charges_serial_finetune(self, planted_graph, fast_config):
        result = divide_and_conquer_sbp(planted_graph, 4, fast_config)
        params = RuntimeModelParams()
        modeled = modeled_runtime(result, params)
        serial = result.phase_seconds.get("combine", 0.0) + result.phase_seconds.get("finetune", 0.0)
        assert modeled >= serial

    def test_intra_node_speedup_reduces_model(self, planted_graph, fast_config):
        result = stochastic_block_partition(planted_graph, fast_config)
        slow = modeled_runtime(result, RuntimeModelParams(intra_node_speedup=1.0))
        fast = modeled_runtime(result, RuntimeModelParams(intra_node_speedup=8.0))
        assert fast < slow

    def test_speedup_series_structure(self, planted_graph, fast_config):
        results = [edist(planted_graph, r, fast_config) for r in (1, 2)]
        rows = speedup_series(results, params=RuntimeModelParams(tasks_per_node=2))
        assert len(rows) == 2
        assert rows[0]["speedup_vs_baseline"] == pytest.approx(1.0)
        assert rows[1]["num_nodes"] == 1
        assert speedup_series([]) == []


class TestTables:
    def test_format_table_alignment_and_title(self):
        rows = [{"graph": "TTT33", "nmi": 0.95}, {"graph": "FFF150", "nmi": 0.5}]
        text = format_table(rows, title="Table VII")
        assert "Table VII" in text
        assert "TTT33" in text and "FFF150" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="Empty")

    def test_rows_to_csv_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
        path = rows_to_csv(rows, tmp_path / "out.csv")
        content = path.read_text().strip().splitlines()
        assert content[0] == "a,b"
        assert len(content) == 3

    def test_rows_to_csv_empty(self, tmp_path):
        path = rows_to_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""

    def test_save_rows_writes_csv_and_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        save_rows([{"x": 1}], "table_test")
        assert (tmp_path / "results" / "table_test.csv").exists()
        assert (tmp_path / "results" / "table_test.json").exists()


class TestExperiments:
    @pytest.fixture(scope="class")
    def smoke(self):
        return ExperimentSettings.smoke()

    def test_run_algorithm_dispatch(self, planted_graph, fast_config):
        assert run_algorithm("sbp", planted_graph, 1, fast_config).algorithm == "sbp"
        assert run_algorithm("edist", planted_graph, 2, fast_config).algorithm == "edist"
        assert run_algorithm("dcsbp", planted_graph, 2, fast_config).algorithm == "dcsbp"
        with pytest.raises(ValueError):
            run_algorithm("bogus", planted_graph, 2, fast_config)

    def test_single_rank_distributed_falls_back_to_sequential(self, planted_graph, fast_config):
        result = run_algorithm("dcsbp", planted_graph, 1, fast_config)
        assert result.algorithm == "sbp"

    def test_paper_reference_values_cover_all_sweep_graphs(self):
        assert len(PAPER_BASELINE_NMI) == 16

    def test_dataset_tables_report_paper_and_generated_columns(self, smoke):
        table2 = run_table2(smoke)
        assert len(table2) == 6
        assert {"paper_vertices", "generated_vertices"} <= set(table2[0])

        table3 = run_table3(smoke)
        assert len(table3) == 16
        assert any(row["graph"] == "FFF150" for row in table3)

        table4 = run_table4(smoke)
        assert {row["graph"] for row in table4} == {"1M", "2M", "4M"}

        table5 = run_table5(smoke)
        assert len(table5) == 5
        assert all(row["standin_vertices"] > 0 for row in table5)
