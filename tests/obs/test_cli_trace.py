"""CLI surface of the telemetry layer: --trace/--metrics/--backend and
``repro trace summarize``."""

import pytest

from repro.cli import build_parser, main
from repro.obs import read_events


def _run_traced(tmp_path, extra=()):
    path = str(tmp_path / "trace.jsonl")
    code = main([
        "delay", "--scheduler", "pim", "--load", "0.8",
        "--ports", "8", "--slots", "400", "--warmup", "0",
        "--trace", path, *extra,
    ])
    assert code == 0
    return path


class TestDelayTracing:
    def test_trace_writes_jsonl(self, tmp_path, capsys):
        path = _run_traced(tmp_path)
        events = list(read_events(path))
        kinds = {e.kind for e in events}
        assert {"slot_begin", "crossbar_transfer", "cell_departure",
                "pim_iteration", "voq_snapshot"} <= kinds
        assert len([e for e in events if e.kind == "slot_begin"]) == 400
        assert "8x8 switch" in capsys.readouterr().out

    def test_trace_stride_thins_heavy_events(self, tmp_path, capsys):
        path = _run_traced(tmp_path, extra=["--trace-stride", "10"])
        events = list(read_events(path))
        assert all(e.slot % 10 == 0 for e in events if e.kind == "voq_snapshot")
        # Cheap events are unaffected by the stride.
        assert len([e for e in events if e.kind == "slot_begin"]) == 400

    def test_metrics_without_trace(self, capsys):
        code = main([
            "delay", "--scheduler", "pim", "--load", "0.5",
            "--ports", "4", "--slots", "200", "--warmup", "0", "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "cells.arrived" in out
        assert "pim.iterations" in out

    def test_fastpath_backend(self, capsys):
        code = main([
            "delay", "--scheduler", "pim", "--load", "0.5",
            "--ports", "8", "--slots", "400", "--warmup", "0",
            "--backend", "fastpath",
        ])
        assert code == 0
        assert "fastpath" in capsys.readouterr().out

    def test_fastpath_traced(self, tmp_path, capsys):
        path = str(tmp_path / "fast.jsonl")
        code = main([
            "delay", "--scheduler", "pim", "--load", "0.8",
            "--ports", "8", "--slots", "300", "--warmup", "0",
            "--backend", "fastpath", "--trace", path,
        ])
        assert code == 0
        events = list(read_events(path))
        assert any(e.kind == "pim_iteration" for e in events)
        # Fastpath pools VOQ snapshots over replicas.
        assert all(
            e.replica == -1 for e in events if e.kind == "voq_snapshot"
        )

    def test_fastpath_rejects_unsupported_scheduler(self, capsys):
        code = main([
            "delay", "--scheduler", "maximum", "--backend", "fastpath",
            "--slots", "100", "--warmup", "10",
        ])
        assert code == 2
        assert "fastpath" in capsys.readouterr().err

    def test_fastpath_accepts_registry_scheduler(self, capsys):
        code = main([
            "delay", "--scheduler", "islip", "--backend", "fastpath",
            "--slots", "100", "--warmup", "10",
        ])
        assert code == 0
        assert "fastpath" in capsys.readouterr().out

    def test_trace_rejects_fifo(self, capsys, tmp_path):
        code = main([
            "delay", "--scheduler", "fifo", "--slots", "100", "--warmup", "10",
            "--trace", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "trac" in capsys.readouterr().err

    def test_bad_stride_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["delay", "--trace-stride", "0"])


class TestTraceSummarize:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = _run_traced(tmp_path)
        capsys.readouterr()  # discard the delay command's output
        return path

    def test_summarize_reports_anatomy(self, trace_path, capsys):
        assert main(["trace", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "slots traced    : 400" in out
        assert "PIM anatomy" in out
        assert "cf. Table 1" in out
        assert "K=1" in out and "K=2" in out
        assert "VOQ snapshots" in out

    def test_summarize_csv(self, trace_path, tmp_path, capsys):
        csv_path = str(tmp_path / "summary.csv")
        assert main(["trace", "summarize", trace_path, "--csv", csv_path]) == 0
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0].startswith("slot,arrivals,backlog")
        assert len(lines) == 401  # header + one row per slot
        assert "wrote per-slot summary" in capsys.readouterr().out

    def test_summarize_plot(self, trace_path, capsys):
        assert main(["trace", "summarize", trace_path, "--plot"]) == 0
        out = capsys.readouterr().out
        assert "backlog at slot start" in out

    def test_summarize_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "summarize", str(path)]) == 1
        assert "empty trace" in capsys.readouterr().err
