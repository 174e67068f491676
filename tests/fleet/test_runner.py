"""The fleet runner: cell execution, sharding, resume, and recording."""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.fleet.runner import (
    record_sweep,
    run_cell,
    run_sweep,
    sweep_entry,
)
from repro.fleet.spec import expand_cells, parse_spec
from repro.fleet.store import SweepStore
from repro.obs.store import PerfStore, gate

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


#: A tiny but real delay sweep (4 cells, fast path, small slots).
MINI = {
    "name": "mini",
    "kind": "delay",
    "grid": {"scheduler": ["pim", "islip"], "load": [0.5, 0.9]},
    "defaults": {"ports": 4, "slots": 30, "replicas": 2, "iterations": 1},
}


def make_spec(**overrides):
    """The MINI sweep with top-level keys overridden."""
    return parse_spec({**MINI, **overrides})


def metrics_by_key(records):
    return {r["cell_key"]: r["metrics"] for r in records}


class TestRunCell:
    def test_delay_cell_done_record(self):
        cell = expand_cells(make_spec())[0]
        record = run_cell(cell, "delay")
        assert record["status"] == "done"
        assert set(record["metrics"]) == {"mean_delay", "throughput", "offered"}
        assert record["timing"]["slots_per_sec"] > 0
        assert record["config"] == {"scheduler": "pim", "load": 0.5}

    def test_cell_is_deterministic(self):
        cell = expand_cells(make_spec())[0]
        first = run_cell(cell, "delay")
        second = run_cell(cell, "delay")
        assert first["metrics"] == second["metrics"]

    def test_unknown_kind_raises(self):
        cell = expand_cells(make_spec())[0]
        with pytest.raises(ValueError, match="unknown kind"):
            run_cell(cell, "quantum")

    def test_bad_parameter_value_becomes_error_record(self):
        spec = make_spec(grid={"scheduler": ["warp-drive"]})
        record = run_cell(expand_cells(spec)[0], "delay")
        assert record["status"] == "error"
        assert "scheduler must be one of" in record["error"]

    def test_unknown_parameter_becomes_error_record(self):
        spec = make_spec(defaults={"ports": 4, "warp": 9})
        record = run_cell(expand_cells(spec)[0], "delay")
        assert record["status"] == "error"
        assert "unknown parameter(s) warp" in record["error"]

    def test_speedup_measure_times_both_backends(self):
        spec = make_spec(
            grid={"scheduler": ["pim"]},
            defaults={
                "ports": 4, "slots": 30, "replicas": 2, "iterations": 1,
                "measure": "speedup",
            },
        )
        record = run_cell(expand_cells(spec)[0], "delay")
        assert record["status"] == "done"
        assert set(record["timing"]) == {
            "object_slots_per_sec", "slots_per_sec", "speedup_vs_object",
        }

    def test_object_backend(self):
        spec = make_spec(
            grid={"scheduler": ["pim"]},
            defaults={"ports": 4, "slots": 30, "iterations": 1,
                      "backend": "object"},
        )
        record = run_cell(expand_cells(spec)[0], "delay")
        assert record["status"] == "done"
        assert 0 < record["metrics"]["throughput"] <= 1.0

    def test_scenario_cell_resolves_registry_geometry(self):
        spec = parse_spec({
            "name": "s",
            "kind": "scenario",
            "grid": {"scenario": ["websearch-incast"]},
            "defaults": {"slots": 40, "drain": 200, "iterations": 1},
            "config_keys": ["scenario", "scheduler", "ports", "load"],
        })
        record = run_cell(
            expand_cells(spec)[0], "scenario", config_keys=spec.config_keys
        )
        assert record["status"] == "done"
        # ports/load come from the scenario registry at run time.
        assert record["config"]["ports"] > 0
        assert 0 < record["config"]["load"] <= 1.0
        assert record["metrics"]["flows"] > 0
        assert record["metrics"]["mean_fct"] > 0

    def test_scenario_cell_requires_a_scenario(self):
        spec = parse_spec({
            "name": "s", "kind": "scenario", "grid": {"scheduler": ["pim"]},
        })
        record = run_cell(expand_cells(spec)[0], "scenario")
        assert record["status"] == "error"
        assert "needs a 'scenario'" in record["error"]

    def test_network_cell(self):
        spec = parse_spec({
            "name": "n",
            "kind": "network",
            "grid": {"topology": ["parking_lot"]},
            "defaults": {"size": 3, "slots": 200, "warmup": 20,
                         "replicas": 2, "flows": 3},
        })
        record = run_cell(expand_cells(spec)[0], "network")
        assert record["status"] == "done"
        assert record["metrics"]["delivered"] > 0


class TestRunSweep:
    def test_completes_all_cells(self, tmp_path):
        spec = make_spec()
        outcome = run_sweep(spec, tmp_path / "r.jsonl")
        assert outcome.ok
        assert outcome.ran == 4 and outcome.skipped == 0
        assert len(outcome.records) == 4
        # Records come back in cell (expansion) order.
        assert [r["index"] for r in outcome.records] == [0, 1, 2, 3]
        assert "complete" in outcome.describe()

    def test_pool_size_does_not_change_metrics(self, tmp_path):
        spec = make_spec()
        serial = run_sweep(spec, tmp_path / "serial.jsonl", pool=1)
        sharded = run_sweep(spec, tmp_path / "sharded.jsonl", pool=2)
        assert serial.ok and sharded.ok
        assert metrics_by_key(serial.records) == metrics_by_key(sharded.records)

    def test_resume_skips_completed_cells(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "r.jsonl"
        first = run_sweep(spec, path)
        again = run_sweep(spec, path)
        assert again.skipped == 4 and again.ran == 0
        assert metrics_by_key(again.records) == metrics_by_key(first.records)

    def test_changed_params_invalidate_completed_cells(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "r.jsonl"
        run_sweep(spec, path)
        patched = run_sweep(spec, path, extra_defaults={"slots": 40})
        assert patched.skipped == 0 and patched.ran == 4
        # The stale records stay in the store but drop out of the result.
        assert len(SweepStore(path).load()) == 8
        assert len(patched.records) == 4

    def test_error_cells_rerun_on_resume(self, tmp_path):
        spec = make_spec(grid={"scheduler": ["pim", "warp-drive"]})
        path = tmp_path / "r.jsonl"
        first = run_sweep(spec, path)
        assert not first.ok
        assert first.pending == 1
        assert len(first.errors) == 1
        assert "ERROR" in first.describe()
        again = run_sweep(spec, path)
        assert again.skipped == 1 and again.ran == 1  # only the bad cell

    def test_progress_callback_sees_every_cell(self, tmp_path):
        lines = []
        run_sweep(make_spec(), tmp_path / "r.jsonl", progress=lines.append)
        assert sum("done" in line for line in lines) == 4

    def test_rejects_bad_pool(self, tmp_path):
        with pytest.raises(ValueError, match="pool"):
            run_sweep(make_spec(), tmp_path / "r.jsonl", pool=0)

    def test_a_worker_that_dies_mid_cell_becomes_error_records(self, tmp_path):
        """A worker killed mid-cell breaks the pool; the sweep must
        return with an error record for each unfinished cell, not wait
        on the dead worker forever.  The sweep runs in a subprocess with
        a timeout, so a hang fails this test instead of stalling the
        suite."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the dying cell runner reaches workers by fork")
        store = tmp_path / "r.jsonl"
        script = textwrap.dedent(
            f"""
            import os
            from repro.fleet import runner
            from repro.fleet.spec import parse_spec

            delay = runner._KIND_RUNNERS["delay"]

            def dies_on_cell_1(cell):
                if cell.index == 1:
                    os._exit(3)
                return delay(cell)

            runner._KIND_RUNNERS["delay"] = dies_on_cell_1
            spec = parse_spec({MINI!r})
            outcome = runner.run_sweep(spec, {str(store)!r}, pool=2)
            print(outcome.ran, len(outcome.records), len(outcome.errors))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        ran, finished, errors = map(int, done.stdout.split())
        assert ran == 4 and finished + errors == 4 and errors >= 1
        records = SweepStore(store).load()
        broken = [r for r in records if r["status"] == "error"]
        assert len(broken) == errors
        assert all("BrokenProcessPool" in r["error"] for r in broken)
        assert 1 in {r["index"] for r in broken}
        again = run_sweep(make_spec(), store)
        assert again.ok and again.ran == errors  # the error cells rerun


class TestSweepRecording:
    def test_sweep_entry_flattens_cells(self, tmp_path):
        spec = make_spec()
        outcome = run_sweep(spec, tmp_path / "r.jsonl")
        entry = sweep_entry(spec, outcome.records)
        assert entry.bench == "mini"
        assert len(entry.results) == 4
        row = entry.results[0]
        assert row["config"] == {"scheduler": "pim", "load": 0.5}
        assert "mean_delay" in row and "slots_per_sec" in row
        assert entry.extras == {"spec": "mini", "kind": "delay", "cells": 4}

    def test_record_sweep_appends_gateable_history(self, tmp_path):
        spec = make_spec()
        history = tmp_path / "history"
        for run in range(2):
            outcome = run_sweep(spec, tmp_path / f"r{run}.jsonl")
            record_sweep(spec, outcome.records, history_dir=history)
        entries = PerfStore(history).load("mini")
        assert len(entries) == 2
        # Deterministic metrics gate cleanly against themselves.
        report = gate(entries, metric="throughput", tolerance=0.1)
        assert report.ok
        assert len(report.checks) == 4 and not report.skipped

    def test_record_sweep_snapshot_only(self, tmp_path):
        spec = make_spec()
        outcome = run_sweep(spec, tmp_path / "r.jsonl")
        snapshot = tmp_path / "BENCH_mini.json"
        record_sweep(
            spec, outcome.records, history_dir=None, snapshot=snapshot
        )
        assert snapshot.exists()
        assert PerfStore(tmp_path).load("mini") == []

    def test_reseeded_sweep_changes_metrics(self, tmp_path):
        spec = make_spec()
        a = run_sweep(spec, tmp_path / "a.jsonl")
        b = run_sweep(
            dataclasses.replace(spec, seed=7), tmp_path / "b.jsonl"
        )
        assert metrics_by_key(a.records) != metrics_by_key(b.records)
