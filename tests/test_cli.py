"""Tests for the repro-an2 command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["delay", "--scheduler", "bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["delay"])
        assert args.scheduler == "pim"
        assert args.ports == 16


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "37.7 M cells/s" in out
        assert "optoelectronics" in out

    def test_delay(self, capsys):
        code = main([
            "delay", "--scheduler", "pim", "--load", "0.5",
            "--ports", "8", "--slots", "500", "--warmup", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "8x8 switch" in out

    def test_delay_fifo_and_oq(self, capsys):
        for scheduler in ("fifo", "output-queueing"):
            assert main([
                "delay", "--scheduler", scheduler, "--load", "0.3",
                "--ports", "4", "--slots", "300", "--warmup", "30",
            ]) == 0

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--loads", "0.3", "0.6", "--ports", "8",
            "--slots", "500", "--warmup", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.30" in out and "0.60" in out

    def test_table1(self, capsys):
        assert main(["table1", "--patterns", "200", "--ports", "8"]) == 0
        out = capsys.readouterr().out
        assert "K=1" in out
        assert "1.00" in out

    def test_cbr_bounds(self, capsys):
        assert main(["cbr-bounds", "--hops", "2", "--cells", "100"]) == 0
        out = capsys.readouterr().out
        assert "bound" in out

    def test_fairness(self, capsys):
        assert main(["fairness", "--slots", "2000"]) == 0
        out = capsys.readouterr().out
        assert "jain" in out

    def test_workload_variants(self, capsys):
        for workload in ("uniform", "clientserver", "bursty", "periodic"):
            assert main([
                "delay", "--workload", workload, "--load", "0.4",
                "--ports", "8", "--slots", "300", "--warmup", "30",
            ]) == 0

    def test_scheduler_variants(self, capsys):
        for scheduler in ("pim-inf", "islip", "wavefront", "maximum"):
            assert main([
                "delay", "--scheduler", scheduler, "--load", "0.4",
                "--ports", "4", "--slots", "200", "--warmup", "20",
            ]) == 0

    def test_cbr_object_backend(self, capsys):
        assert main([
            "cbr", "--ports", "4", "--frame", "8", "--slots", "200",
            "--warmup", "20", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "integrated switch" in out
        assert "cbr:" in out and "vbr:" in out
        assert "bound max" in out

    def test_cbr_fastpath_backend(self, capsys):
        assert main([
            "cbr", "--ports", "4", "--frame", "8", "--slots", "200",
            "--warmup", "20", "--seed", "1", "--backend", "fastpath",
            "--replicas", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "cbr-fastpath x8 replicas" in out
        assert "reserved slots used" in out

    def test_cbr_replicas_require_fastpath(self, capsys):
        assert main([
            "cbr", "--ports", "4", "--frame", "8", "--slots", "50",
            "--warmup", "10", "--replicas", "4",
        ]) == 2
        assert "--backend fastpath" in capsys.readouterr().err

    def test_check_churn_suite(self, capsys):
        assert main(["check", "--suite", "churn", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "[churn]" in out
        assert "all invariants held" in out

    def test_check_cbr_suite(self, capsys):
        assert main(["check", "--suite", "cbr", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "[cbr]" in out
        assert "all invariants held" in out


_STAT_HEADER = (
    "16x16 statistical matching, X=16 units (192 allocated), rounds 2, "
    "fill {}, load 0.8\n"
)

#: Byte-exact stdout of seeded runs.  The ``statistical`` lines pin the
#: lottery's draws through the backlog and the carried split; the
#: ``delay`` lines pin each crossbar scheduler the CLI builds.  Each
#: passes a ``--warmup`` below ``--slots``: the default 1,000-slot
#: warm-up would leave a 300-slot run nothing to measure, which
#: ``TestWarmupOutsideTheRun`` pins as an error.
GOLDEN_OUTPUT = {
    "fairness --slots 2000": (
        "Figure 8 with PIM: output 1 split ['0.295', '0.322', '0.325', "
        "'0.059'] jain=0.836\n"
        "With statistical matching:       ['0.271', '0.262', '0.254', "
        "'0.214'] jain=0.993\n"
    ),
    "statistical --backend object --slots 300 --warmup 100": (
        _STAT_HEADER.format("on")
        + "16x16 switch, 300 slots: offered 0.796, carried 0.794 per link, "
        "mean delay 3.50 slots, backlog 44\n"
    ),
    "statistical --backend object --slots 300 --warmup 100 --no-fill": (
        _STAT_HEADER.format("off")
        + "16x16 switch, 300 slots: offered 0.796, carried 0.360 per link, "
        "mean delay 27.91 slots, backlog 2191\n"
    ),
    "statistical --backend fastpath --slots 300 --warmup 100": (
        _STAT_HEADER.format("on")
        + "16x16 fastpath x1 replicas, 300+0 slots: offered 0.797, carried "
        "0.796 per link, mean delay 3.55 slots, backlog 55, statistical 361 "
        "/ fill 2186 cells\n"
    ),
    "delay --scheduler pim --slots 300 --warmup 100": (
        "16x16 switch, 300 slots: offered 0.894, carried 0.882 per link, "
        "mean delay 7.96 slots, backlog 125\n"
    ),
    **{
        f"delay --scheduler {name} --ports 8 --slots 300 --warmup 50": (
            f"8x8 switch, 300 slots: offered 0.891, carried {line}\n"
        )
        for name, line in [
            ("pim", "0.875 per link, mean delay 5.99 slots, backlog 62"),
            ("pim-inf", "0.875 per link, mean delay 5.99 slots, backlog 62"),
            ("islip", "0.874 per link, mean delay 6.91 slots, backlog 68"),
            ("lqf", "0.879 per link, mean delay 5.32 slots, backlog 55"),
            ("wavefront", "0.872 per link, mean delay 7.41 slots, backlog 77"),
            ("qps", "0.875 per link, mean delay 6.09 slots, backlog 67"),
            ("maximum", "0.880 per link, mean delay 3.49 slots, backlog 44"),
        ]
    },
    **{
        f"delay --scheduler {name} --iterations 1 --ports 8 --slots 300 "
        "--warmup 50": f"8x8 switch, 300 slots: offered 0.891, carried {line}\n"
        for name, line in [
            ("pim", "0.654 per link, mean delay 43.81 slots, backlog 571"),
            ("islip", "0.834 per link, mean delay 19.74 slots, backlog 190"),
            ("qps", "0.653 per link, mean delay 48.75 slots, backlog 585"),
        ]
    },
    # The probe feed: PIM, iSLIP and QPS-r put each slot's rounds in the
    # ``pim.iterations`` histogram, LQF feeds nothing, on both backends.
    "delay --scheduler pim --ports 8 --slots 300 --warmup 50 --metrics": (
        "8x8 switch, 300 slots: offered 0.891, carried 0.875 per link, "
        "mean delay 5.99 slots, backlog 62\n"
        "\n"
        "metrics:\n"
        "backlog               61\n"
        "cells.arrived         2142\n"
        "cells.departed        2080\n"
        "delay.slots           count=2080  mean=5.531  stddev=6.219  min=0  max=57\n"
        "pim.iterations        count=300  mean=2.010  stddev=0.487  min=1  max=3\n"
        "pim.iterations.total  603\n"
        "slots                 300\n"
    ),
    "delay --scheduler islip --ports 8 --slots 300 --warmup 50 --metrics": (
        "8x8 switch, 300 slots: offered 0.891, carried 0.874 per link, "
        "mean delay 6.91 slots, backlog 68\n"
        "\n"
        "metrics:\n"
        "backlog         68\n"
        "cells.arrived   2142\n"
        "cells.departed  2074\n"
        "delay.slots     count=2074  mean=6.360  stddev=6.980  min=0  max=55\n"
        "pim.iterations  count=300  mean=1.900  stddev=0.539  min=1  max=3\n"
        "slots           300\n"
    ),
    "delay --scheduler lqf --ports 8 --slots 300 --warmup 50 --metrics": (
        "8x8 switch, 300 slots: offered 0.891, carried 0.879 per link, "
        "mean delay 5.32 slots, backlog 55\n"
        "\n"
        "metrics:\n"
        "backlog         55\n"
        "cells.arrived   2142\n"
        "cells.departed  2087\n"
        "delay.slots     count=2087  mean=5.006  stddev=5.570  min=0  max=47\n"
        "slots           300\n"
    ),
    "delay --scheduler qps --ports 8 --slots 300 --warmup 50 --metrics": (
        "8x8 switch, 300 slots: offered 0.891, carried 0.875 per link, "
        "mean delay 6.09 slots, backlog 67\n"
        "\n"
        "metrics:\n"
        "backlog         66\n"
        "cells.arrived   2142\n"
        "cells.departed  2075\n"
        "delay.slots     count=2075  mean=5.706  stddev=5.521  min=0  max=36\n"
        "pim.iterations  count=300  mean=2.093  stddev=0.528  min=1  max=3\n"
        "slots           300\n"
    ),
    "delay --scheduler pim --ports 8 --slots 300 --warmup 50 --metrics "
    "--backend fastpath": (
        "8x8 fastpath x1 replicas, 300+0 slots: offered 0.891, carried 0.873 "
        "per link, mean delay 7.44 slots, backlog 73\n"
        "\n"
        "metrics:\n"
        "backlog               72\n"
        "cells.arrived         2142\n"
        "cells.departed        2069\n"
        "pim.iterations        count=300  mean=2.033  stddev=0.541  min=1  max=4\n"
        "pim.iterations.total  610\n"
        "slots                 300\n"
    ),
    "delay --scheduler islip --ports 8 --slots 300 --warmup 50 --metrics "
    "--backend fastpath": (
        "8x8 fastpath x1 replicas, 300+0 slots: offered 0.891, carried 0.874 "
        "per link, mean delay 7.33 slots, backlog 68\n"
        "\n"
        "metrics:\n"
        "backlog         68\n"
        "cells.arrived   2142\n"
        "cells.departed  2074\n"
        "pim.iterations  count=300  mean=1.900  stddev=0.539  min=1  max=3\n"
        "slots           300\n"
    ),
    "delay --scheduler lqf --ports 8 --slots 300 --warmup 50 --metrics "
    "--backend fastpath": (
        "8x8 fastpath x1 replicas, 300+0 slots: offered 0.891, carried 0.880 "
        "per link, mean delay 5.68 slots, backlog 53\n"
        "\n"
        "metrics:\n"
        "backlog         53\n"
        "cells.arrived   2142\n"
        "cells.departed  2089\n"
        "slots           300\n"
    ),
    "delay --scheduler qps --ports 8 --slots 300 --warmup 50 --metrics "
    "--backend fastpath": (
        "8x8 fastpath x1 replicas, 300+0 slots: offered 0.891, carried 0.875 "
        "per link, mean delay 6.64 slots, backlog 66\n"
        "\n"
        "metrics:\n"
        "backlog         65\n"
        "cells.arrived   2142\n"
        "cells.departed  2076\n"
        "pim.iterations  count=300  mean=2.130  stddev=0.511  min=1  max=4\n"
        "slots           300\n"
    ),
    "sweep --loads 0.5 0.9 --ports 8 --slots 300 --warmup 50": (
        "  load                  fifo                   pim       output-queueing\n"
        "  0.50           2.08 (0.52)           0.79 (0.52)           0.50 (0.52)\n"
        "  0.90          52.81 (0.64)           7.34 (0.89)           3.63 (0.90)\n"
    ),
    # The commands EXPERIMENTS.md names for regenerating Table 2, Fig. 4,
    # Fig. 5's PIM-1 row and Appendix B (their numbers are claims in
    # tests/claims/ or tests/cbr/); small sizes, so the documented
    # commands cannot drift silently.
    "info": (
        "AN2 switch (16 ports, 1 Gb/s links, 53-byte ATM cells)\n"
        "  scheduling budget per slot : 424 ns\n"
        "  aggregate cell rate        : 37.7 M cells/s\n"
        "  uncontended latency        : 2.2 us\n"
        "\n"
        "Component cost shares (Table 2):\n"
        "  unit               prototype  production\n"
        "  optoelectronics          48%         63%\n"
        "  crossbar                  4%          5%\n"
        "  buffer                   21%         19%\n"
        "  scheduling               10%          3%\n"
        "  control                  17%         10%\n"
    ),
    "sweep --workload clientserver --loads 0.5 0.9 --ports 8 --slots 300 "
    "--warmup 50": (
        "  load                  fifo                   pim       output-queueing\n"
        "  0.50           0.78 (0.40)           0.48 (0.40)           0.32 (0.40)\n"
        "  0.90          32.46 (0.59)           4.29 (0.72)           2.24 (0.73)\n"
    ),
    "sweep --iterations 1 --loads 0.5 0.9 --ports 8 --slots 300 --warmup 50": (
        "  load                  fifo                   pim       output-queueing\n"
        "  0.50           2.08 (0.52)           1.62 (0.52)           0.50 (0.52)\n"
        "  0.90          52.81 (0.64)          43.03 (0.66)           3.63 (0.90)\n"
    ),
    "cbr-bounds --cells 50": (
        "4 hops, frame 1000 slots, tolerance 0.0001\n"
        "  max adjusted latency :     6538.2 slots (bound 8080.8)\n"
        "  max buffer occupancy :          2 cells (bound 4.4 per unit reservation)\n"
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("command", sorted(GOLDEN_OUTPUT))
    def test_stdout_is_byte_exact(self, command, capsys):
        assert main(command.split()) == 0
        assert capsys.readouterr().out == GOLDEN_OUTPUT[command]


class TestWarmupOutsideTheRun:
    """A ``--warmup`` that leaves no slot to measure is a usage error:
    exit 2 and one stderr line, before anything runs or prints."""

    @pytest.mark.parametrize(
        "command",
        [
            "statistical --backend object --slots 300",
            "statistical --backend fastpath --slots 300",
            "delay --scheduler pim --slots 300",
            "delay --slots 300 --warmup -1",
            "sweep --loads 0.5 --ports 8 --slots 300",
            "cbr --slots 300",
            "network --slots 100",
            "network --slots 100 --warmup 100",
            "scenario run hotspot --slots 100 --warmup 100",
            "scenario smoke --slots 100 --warmup 100",
        ],
    )
    def test_exits_two_with_one_line(self, command, capsys):
        assert main(command.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --warmup must be in [0, ")
        assert err.count("\n") == 1


class TestScenarioCommands:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "websearch-incast" in out
        assert "hotspot" in out
        assert "permutation-churn" in out
        assert "skewed-uniform" in out

    def test_scenario_run_fastpath(self, capsys):
        code = main([
            "scenario", "run", "websearch-incast",
            "--slots", "150", "--warmup", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "websearch-incast" in out
        assert "FCT" in out or "flows" in out

    def test_scenario_run_object_backend(self, capsys):
        code = main([
            "scenario", "run", "hotspot", "--backend", "object",
            "--slots", "150", "--warmup", "0",
        ])
        assert code == 0

    def test_scenario_run_object_rejects_replicas(self, capsys):
        code = main([
            "scenario", "run", "hotspot", "--backend", "object",
            "--replicas", "2", "--slots", "100",
        ])
        assert code == 2

    def test_scenario_run_unknown_name(self, capsys):
        assert main(["scenario", "run", "bogus"]) == 2
        err = capsys.readouterr()
        assert "unknown scenario" in err.out + err.err

    def test_scenario_run_parity(self, capsys):
        code = main([
            "scenario", "run", "skewed-uniform", "--parity",
            "--slots", "120", "--warmup", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "object" in out and "fastpath" in out

    def test_scenario_smoke(self, capsys, tmp_path):
        out_file = tmp_path / "fct.txt"
        code = main([
            "scenario", "smoke", "--slots", "120", "--out", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "islip" in out
        assert out_file.exists()
        assert "scenario" in out_file.read_text()

    def test_check_scenario_suite(self, capsys, tmp_path):
        code = main([
            "check", "--suite", "scenario", "--seeds", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0


class TestTraceReplay:
    def _csv_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "slot,input,output\n" + "".join(
                f"{slot},{slot % 4},{(slot + 1) % 4}\n" for slot in range(40)
            )
        )
        return path

    def _json_trace(self, tmp_path):
        from repro.traffic.trace import TraceRecorder
        from repro.traffic.uniform import UniformTraffic

        recorder = TraceRecorder(UniformTraffic(4, load=0.6, seed=3))
        for slot in range(40):
            recorder.arrivals(slot)
        path = tmp_path / "trace.json"
        recorder.replay().save(path)
        return path

    def test_csv_replay_on_both_backends(self, capsys, tmp_path):
        path = self._csv_trace(tmp_path)
        for backend in ("object", "fastpath"):
            code = main([
                "scenario", "run", "--trace", str(path), "--ports", "4",
                "--backend", backend, "--drain", "100",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "trace replay" in out
            assert "40 cells" in out

    def test_json_replay_carries_its_own_ports(self, capsys, tmp_path):
        path = self._json_trace(tmp_path)
        code = main([
            "scenario", "run", "--trace", str(path), "--drain", "100",
        ])
        assert code == 0
        assert "4x4" in capsys.readouterr().out

    def test_csv_needs_ports(self, capsys, tmp_path):
        path = self._csv_trace(tmp_path)
        assert main(["scenario", "run", "--trace", str(path)]) == 2
        err = capsys.readouterr()
        assert "pass --ports" in err.out + err.err

    def test_trace_conflicts_with_a_scenario_name(self, capsys, tmp_path):
        path = self._csv_trace(tmp_path)
        code = main([
            "scenario", "run", "hotspot", "--trace", str(path),
            "--ports", "4",
        ])
        assert code == 2
        err = capsys.readouterr()
        assert "omit the scenario name" in err.out + err.err

    def test_trace_conflicts_with_parity(self, capsys, tmp_path):
        path = self._csv_trace(tmp_path)
        code = main([
            "scenario", "run", "--trace", str(path), "--ports", "4",
            "--parity",
        ])
        assert code == 2
        err = capsys.readouterr()
        assert "mutually exclusive" in err.out + err.err

    def test_run_without_name_or_trace_errors(self, capsys):
        assert main(["scenario", "run"]) == 2
        err = capsys.readouterr()
        assert "scenario list" in err.out + err.err

    def test_bad_trace_file_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,9,0\n")
        code = main([
            "scenario", "run", "--trace", str(path), "--ports", "4",
        ])
        assert code == 2
        err = capsys.readouterr()
        assert "outside" in err.out + err.err


class TestFleetCommands:
    def _spec(self, tmp_path, **overrides):
        import json as jsonlib

        document = {
            "name": "clitest",
            "kind": "delay",
            "grid": {"scheduler": ["pim", "islip"]},
            "defaults": {
                "ports": 4, "slots": 30, "replicas": 2, "iterations": 1,
            },
        }
        document.update(overrides)
        path = tmp_path / "clitest.json"
        path.write_text(jsonlib.dumps(document))
        return path

    def test_fleet_run_and_resume(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        argv = ["fleet", "run", str(spec), "--results", str(results)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cells (0 resumed, 2 run, 0 errors) -- complete" in out
        assert "mean_delay" in out
        # Second invocation resumes: nothing reruns.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(2 resumed, 0 run, 0 errors)" in out

    def test_fleet_run_set_overrides_and_pool(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        code = main([
            "fleet", "run", str(spec), "--results", str(results),
            "--set", "slots=40", "--pool", "2",
        ])
        assert code == 0
        assert "complete" in capsys.readouterr().out

    def test_fleet_run_reports_errors_and_fails(self, capsys, tmp_path):
        spec = self._spec(tmp_path, grid={"scheduler": ["warp-drive"]})
        code = main([
            "fleet", "run", str(spec), "--results", str(tmp_path / "r.jsonl"),
        ])
        assert code == 1
        assert "ERROR" in capsys.readouterr().out

    def test_fleet_status(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        assert main(["fleet", "status", str(spec),
                     "--results", str(results)]) == 0
        assert "0/2 done" in capsys.readouterr().out
        main(["fleet", "run", str(spec), "--results", str(results)])
        capsys.readouterr()
        assert main(["fleet", "status", str(spec),
                     "--results", str(results)]) == 0
        assert "2/2 done" in capsys.readouterr().out

    def test_fleet_report(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        # No cells yet: report exits 1.
        assert main(["fleet", "report", str(spec),
                     "--results", str(results)]) == 1
        capsys.readouterr()
        main(["fleet", "run", str(spec), "--results", str(results)])
        capsys.readouterr()
        out_file = tmp_path / "report.txt"
        code = main([
            "fleet", "report", str(spec), "--results", str(results),
            "--metrics", "throughput", "--out", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert out_file.exists()
        assert "throughput" in out_file.read_text()

    def test_fleet_record_and_gate(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        history = tmp_path / "history"
        code = main([
            "fleet", "run", str(spec), "--results", str(results),
            "--record", "--history", str(history),
        ])
        assert code == 0
        assert "recorded clitest run" in capsys.readouterr().out
        # Deterministic metric: the sweep gates against its own record.
        code = main([
            "fleet", "gate", str(spec), "--results", str(results),
            "--history", str(history), "--metric", "throughput",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline: 1 recorded runs" in out
        assert "PASS" in out
        assert "2 checks" in out

    def test_fleet_gate_without_history_prints_ungated(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        main(["fleet", "run", str(spec), "--results", str(results)])
        capsys.readouterr()
        code = main([
            "fleet", "gate", str(spec), "--results", str(results),
            "--history", str(tmp_path / "never-recorded"), "--metric", "throughput",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline: 0 recorded runs" in out
        assert "gate UNGATED" in out and "PASS" not in out

    def test_fleet_gate_on_a_metric_no_cell_records_errors(self, capsys, tmp_path):
        # Nothing records "thruput": the gate may not print UNGATED and
        # exit 0 without checking anything.  The default metric,
        # throughput, is one every cell records.
        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        main(["fleet", "run", str(spec), "--results", str(results)])
        capsys.readouterr()
        never = str(tmp_path / "never-recorded")
        gate = ["fleet", "gate", str(spec), "--results", str(results), "--history", never]
        assert main([*gate, "--metric", "thruput"]) == 1
        err = capsys.readouterr().err
        assert "carries metric" in err and "throughput" in err
        assert main(gate) == 0
        assert "gate UNGATED" in capsys.readouterr().out

    def test_fleet_gate_without_cells_errors(self, capsys, tmp_path):
        spec = self._spec(tmp_path)
        code = main([
            "fleet", "gate", str(spec),
            "--results", str(tmp_path / "empty.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr()
        assert "run the sweep first" in err.out + err.err

    def test_fleet_gate_fails_on_regression(self, capsys, tmp_path):
        import json as jsonlib

        spec = self._spec(tmp_path)
        results = tmp_path / "r.jsonl"
        history = tmp_path / "history"
        main([
            "fleet", "run", str(spec), "--results", str(results),
            "--record", "--history", str(history),
        ])
        capsys.readouterr()
        # Sabotage the current store: halve every throughput.
        lines = []
        for line in results.read_text().splitlines():
            record = jsonlib.loads(line)
            record["metrics"]["throughput"] *= 0.25
            lines.append(jsonlib.dumps(record))
        results.write_text("\n".join(lines) + "\n")
        code = main([
            "fleet", "gate", str(spec), "--results", str(results),
            "--history", str(history), "--metric", "throughput",
            "--tolerance", "0.4",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_fleet_bad_spec_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "kind": "warp", "grid": {"a": [1]}}')
        assert main(["fleet", "run", str(path)]) == 2
        err = capsys.readouterr()
        assert "kind" in err.out + err.err
