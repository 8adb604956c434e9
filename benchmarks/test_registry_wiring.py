"""Regression tests for the benchmark-harness ↔ registry wiring.

``bench_utils.run_once`` used to swallow the benchmark's extra-info channel;
it now attaches the full ``RunRecord`` via ``benchmark.extra_info`` AND
appends it to the experiment registry, both built from the *same*
pytest-benchmark measurement — these tests pin that the two reports carry
identical timings, that the experiment name derives from the module file
name, and that settings-driven metadata (mode/config/seed/backend/transport)
lands in the record without per-module edits.

The module rides in ``benchmarks/`` so it exercises the real fixture stack
(``benchmark`` + the session ``settings``/``report`` fixtures) under the
tier-1 run.
"""

from __future__ import annotations

import json

from bench_utils import REGISTRY_TOGGLE_ENV, run_once

from repro.core.config import SBPConfig
from repro.harness.settings import ExperimentSettings
from repro.registry import SCHEMA_VERSION, RunRecord, read_runs

EXPERIMENT = "registry_wiring"  # this module's file stem, minus "test_"


def _workload():
    """A tiny deterministic stand-in for a table/figure run."""
    total = sum(i * i for i in range(20_000))
    return [
        {"graph": "toy", "value": total, "seconds_block_merge": 0.25, "seconds_mcmc": 0.5},
        {"graph": "toy2", "value": total, "seconds_block_merge": 0.75},
    ]


def test_registry_and_benchmark_json_carry_identical_timings(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
    rows = run_once(benchmark, _workload)
    assert len(rows) == 2

    runs = read_runs(EXPERIMENT, tmp_path)
    assert len(runs) == 1
    record = runs[0]

    # The registry record and the pytest-benchmark report are the same
    # measurement — not merely close, identical.
    assert record.wall_seconds == benchmark.stats.stats.min
    assert benchmark.extra_info["run_record"] == record.to_dict()
    assert benchmark.extra_info["registry_path"] == str(tmp_path / f"{EXPERIMENT}.jsonl")
    # And the extra_info payload survives JSON (what --benchmark-json emits).
    assert RunRecord.from_dict(json.loads(json.dumps(benchmark.extra_info["run_record"]))) == record

    assert record.experiment == EXPERIMENT
    assert record.schema_version == SCHEMA_VERSION
    # Per-phase timings harvested from the returned rows' seconds_* columns.
    assert record.phase_seconds == {"block_merge": 1.0, "mcmc": 0.5}
    assert record.peak_rss_mb > 0
    assert record.git_rev != ""


def test_settings_metadata_lands_in_the_record(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
    bench_settings = ExperimentSettings(
        mode="smoke",
        config=SBPConfig.fast().with_overrides(matrix_backend="dense", transport="processes"),
    )

    def _with_settings(settings):
        assert settings.mode == "smoke"
        return [{"ok": True}]

    run_once(benchmark, _with_settings, bench_settings)
    (record,) = read_runs(EXPERIMENT, tmp_path)
    assert record.mode == "smoke"
    assert record.config == bench_settings.config.to_dict()
    assert record.seed == bench_settings.seed
    assert record.backend == "dense"
    assert record.transport == "processes"
    assert record.phase_seconds == {}


def test_harness_runs_record_a_real_phase_breakdown(benchmark, tmp_path, monkeypatch):
    """A workload dispatching through ``run_algorithm`` gets ``SBPResult``
    phase timings in its record even when its rows carry no ``seconds_*``
    columns — the registry phase log, not row harvesting, is the source."""
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
    from repro.graphs.generators.parameter_sweep import parameter_sweep_graph
    from repro.harness.experiments import run_algorithm

    bench_settings = ExperimentSettings.smoke()
    graph = parameter_sweep_graph("TTT33", scale=0.01, seed=bench_settings.seed)

    def _run(settings):
        result = run_algorithm("sequential", graph, 1, settings.config)
        return [{"graph": "TTT33", "num_blocks": result.num_communities}]  # no seconds_* columns

    run_once(benchmark, _run, bench_settings)
    (record,) = read_runs(EXPERIMENT, tmp_path)
    assert set(record.phase_seconds) >= {"block_merge", "mcmc"}
    assert all(v >= 0.0 for v in record.phase_seconds.values())
    assert sum(record.phase_seconds.values()) > 0.0


def test_matching_preset_is_named(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
    bench_settings = ExperimentSettings(mode="smoke", config=SBPConfig.fast())
    run_once(benchmark, lambda settings: [], bench_settings)
    (record,) = read_runs(EXPERIMENT, tmp_path)
    assert record.preset == "fast"


def test_registry_toggle_disables_append_but_not_extra_info(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
    monkeypatch.setenv(REGISTRY_TOGGLE_ENV, "0")
    run_once(benchmark, _workload)
    assert read_runs(EXPERIMENT, tmp_path) == []
    assert benchmark.extra_info["run_record"]["experiment"] == EXPERIMENT
    assert "registry_path" not in benchmark.extra_info


def test_runs_accumulate_across_invocations(benchmark, tmp_path, monkeypatch):
    """Append-only: a second benchmark session extends history, never resets it."""
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
    seeded = read_runs(EXPERIMENT, tmp_path)
    assert seeded == []
    run_once(benchmark, _workload)
    first = read_runs(EXPERIMENT, tmp_path)
    assert len(first) == 1
    # Simulate a later session by appending the same record again (run_once
    # can only drive one pytest-benchmark round per test).
    from repro.registry import append_run

    append_run(first[0], tmp_path)
    assert len(read_runs(EXPERIMENT, tmp_path)) == 2
