"""CLI surface of the perf subsystem: ``repro-an2 perf`` and friends."""

import json

import pytest

from repro.cli import main
from repro.obs import read_events


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
            "delay", "--scheduler", "fifo", "--slots", "100", "--warmup", "10",
            "--profile",
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


@pytest.mark.parametrize(
    "backend", ["fastpath", "cbr", "statistical", "network", "object"]
)
@pytest.mark.parametrize("warmup", ["200", "100", "-1"])
def test_perf_report_rejects_a_warmup_outside_the_run(backend, warmup, capsys):
    # The default --warmup 200 over --slots 100 used to escape as a
    # ValueError traceback (or, on the object backend, time a run whose
    # window was empty).
    args = ["perf", "report", "--backend", backend, "--slots", "100"]
    if warmup != "200":
        args += ["--warmup", warmup]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --warmup must be in [0, 100) for --slots 100, got {warmup}\n"
    )
