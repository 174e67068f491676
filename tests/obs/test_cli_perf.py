"""CLI surface of the perf subsystem: ``repro-an2 perf`` and friends."""

import json

from repro.cli import main
from repro.obs import read_events
from repro.obs.store import PerfStore, record_result


def seed_history(tmp_path, speedups, bench="fastpath", config=None):
    """Record one single-result entry per speedup value."""
    for speedup in speedups:
        record_result(
            bench,
            [
                {
                    "config": config or {"ports": 16},
                    "slots_per_sec": speedup * 1e5,
                    "speedup_vs_object": speedup,
                }
            ],
            config={"grid": "test"},
            seed=0,
            history_dir=tmp_path,
        )
    return PerfStore(tmp_path)


class TestPerfReport:
    def test_profiled_fastpath_run_covers_wall_time(self, capsys):
        code = main([
            "perf", "report", "--backend", "fastpath",
            "--ports", "8", "--slots", "200", "--warmup", "0",
            "--replicas", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "manifest: git" in out
        for phase in ("run/compile", "run/arrivals", "run/kernel", "run/update"):
            assert phase in out
        # The root span construction attributes every tick to some
        # phase: the breakdown sums to (well over 95% of) the wall.
        total_line = next(
            line for line in out.splitlines() if line.startswith("total (wall)")
        )
        coverage = float(total_line.rstrip("%").split()[-1])
        assert coverage >= 95.0
        assert "replica-slots/sec" in out

    def test_parity_backend_nests_both_runs(self, capsys):
        code = main([
            "perf", "report", "--backend", "parity",
            "--ports", "4", "--slots", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "object/run/kernel" in out
        assert "fastpath/run/kernel" in out

    def test_from_history_renders_recorded_phases(self, tmp_path, capsys):
        record_result(
            "fastpath",
            [{"config": {"ports": 16}, "speedup_vs_object": 9.0}],
            config={"grid": "test"},
            history_dir=tmp_path,
            phases={
                "phases": [
                    {"path": "run", "calls": 1, "seconds": 0.2, "share": 0.25},
                    {"path": "run/kernel", "calls": 9, "seconds": 0.6,
                     "share": 0.75},
                ],
                "wall_seconds": 0.8,
                "slots": 400,
                "cells": 100,
            },
        )
        code = main([
            "perf", "report", "--from-history", "latest",
            "--bench", "fastpath", "--history", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench fastpath, run" in out
        assert "run/kernel" in out
        assert "replica-slots/sec" in out

    def test_from_history_without_phases_errors(self, tmp_path, capsys):
        seed_history(tmp_path, [1.0])
        code = main([
            "perf", "report", "--from-history", "latest",
            "--bench", "fastpath", "--history", str(tmp_path),
        ])
        assert code == 1
        assert "no phase breakdown" in capsys.readouterr().err

    def test_from_history_missing_bench_errors(self, tmp_path, capsys):
        code = main([
            "perf", "report", "--from-history", "latest",
            "--bench", "nope", "--history", str(tmp_path),
        ])
        assert code == 1
        assert "no history" in capsys.readouterr().err


class TestPerfList:
    def test_lists_entries_per_bench(self, tmp_path, capsys):
        seed_history(tmp_path, [1.0, 2.0])
        seed_history(tmp_path, [3.0], bench="other")
        assert main(["perf", "list", "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fastpath: 2 entries" in out
        assert "other: 1 entries" in out
        assert "[0]" in out and "[1]" in out

    def test_empty_history_errors(self, tmp_path, capsys):
        assert main(["perf", "list", "--history", str(tmp_path)]) == 1
        assert "no perf history" in capsys.readouterr().err


class TestPerfCompare:
    def test_prev_vs_latest(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0, 12.0])
        code = main([
            "perf", "compare", "prev", "latest",
            "--bench", "fastpath", "--metric", "speedup_vs_object",
            "--history", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "x1.20" in out

    def test_no_shared_metric_errors(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0, 12.0])
        code = main([
            "perf", "compare", "prev", "latest",
            "--bench", "fastpath", "--metric", "no_such_metric",
            "--history", str(tmp_path),
        ])
        assert code == 1

    def test_unknown_ref_errors(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0])
        code = main([
            "perf", "compare", "zzz", "latest",
            "--bench", "fastpath", "--history", str(tmp_path),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPerfGate:
    def test_passes_on_stable_history(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0, 11.0, 10.5])
        assert main(["perf", "gate", "--history", str(tmp_path)]) == 0
        assert "gate PASS" in capsys.readouterr().out

    def test_fails_on_synthetic_2x_slowdown(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0, 11.0, 10.5, 5.25])
        assert main(["perf", "gate", "--history", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "gate FAIL" in out
        assert "[FAIL]" in out

    def test_first_recorded_run_prints_ungated(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0])
        assert main(["perf", "gate", "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "gate UNGATED" in out and "nothing was checked" in out
        assert "PASS" not in out

    def test_gates_every_bench_by_default(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0, 10.0])
        seed_history(tmp_path, [10.0, 4.0], bench="other")
        assert main(["perf", "gate", "--history", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[fastpath]" in out and "[other]" in out

    def test_custom_tolerance(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0, 8.0])  # -20%
        assert main([
            "perf", "gate", "--history", str(tmp_path), "--tolerance", "0.1",
        ]) == 1
        assert main([
            "perf", "gate", "--history", str(tmp_path), "--tolerance", "0.3",
        ]) == 0

    def test_missing_bench_errors(self, tmp_path, capsys):
        seed_history(tmp_path, [10.0])
        code = main([
            "perf", "gate", "--bench", "nope", "--history", str(tmp_path),
        ])
        assert code == 1
        assert "no history" in capsys.readouterr().err


def run_traced_profiled(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    code = main([
        "delay", "--scheduler", "pim", "--load", "0.8",
        "--ports", "8", "--slots", "300", "--warmup", "0",
        "--backend", "fastpath", "--trace", path, "--profile",
    ])
    assert code == 0
    return path


class TestDelayProfile:
    def test_profile_prints_breakdown(self, capsys):
        code = main([
            "delay", "--scheduler", "pim", "--load", "0.5",
            "--ports", "4", "--slots", "100", "--warmup", "0", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "run/kernel" in out

    def test_trace_carries_manifest_and_profile(self, tmp_path, capsys):
        path = run_traced_profiled(tmp_path)
        events = list(read_events(path))
        # The manifest is the first record; the profile is emitted once.
        assert events[0].kind == "run_manifest"
        assert events[0].manifest["seed"] == 0
        assert events[0].manifest["config_hash"]
        profiles = [e for e in events if e.kind == "phase_profile"]
        assert len(profiles) == 1
        assert "run/kernel" in profiles[0].phases

    def test_profile_rejected_for_fifo(self, capsys):
        code = main([
            "delay", "--scheduler", "fifo", "--slots", "100", "--profile",
        ])
        assert code == 2
        assert "profile" in capsys.readouterr().err


class TestTraceSummarizeJson:
    def test_json_round_trips_the_text_summary(self, tmp_path, capsys):
        path = run_traced_profiled(tmp_path)
        capsys.readouterr()

        assert main(["trace", "summarize", path]) == 0
        text_out = capsys.readouterr().out

        assert main(["trace", "summarize", path, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)

        # The JSON mirrors the text rendering, field for field.
        assert summary["path"] == path
        assert f"slots traced    : {summary['slots_traced']}" in text_out
        assert f"offered cells   : {summary['offered_cells']}" in text_out
        assert f"carried cells   : {summary['carried_cells']}" in text_out
        assert summary["manifest"]["config_hash"] in text_out
        assert "phases" in summary
        assert "run/kernel" in summary["phases"]["phases"]
        assert summary["phases"]["wall_seconds"] > 0
        for name in summary["pim"]["within_k_pct"]:
            assert name in text_out

    def test_json_is_parseable_without_phases(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert main([
            "delay", "--scheduler", "pim", "--load", "0.5", "--ports", "4",
            "--slots", "100", "--warmup", "0", "--trace", path,
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", path, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["slots_traced"] == 100
        assert "phases" not in summary

    def test_csv_recorded_in_json_summary(self, tmp_path, capsys):
        path = run_traced_profiled(tmp_path)
        csv_path = str(tmp_path / "s.csv")
        capsys.readouterr()
        assert main([
            "trace", "summarize", path, "--format", "json", "--csv", csv_path,
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["csv"]["path"] == csv_path
        assert summary["csv"]["rows"] == 300
