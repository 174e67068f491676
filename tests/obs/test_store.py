"""Perf-history store: record_result, load, gate."""

import multiprocessing

import pytest

from repro.obs.perf import RunManifest
from repro.obs.store import (
    PerfEntry,
    PerfStore,
    _median,
    append_jsonl_line,
    config_key,
    gate,
    read_jsonl_records,
    record_result,
)


def record(tmp_path, value, bench="fastpath", config=None, **kwargs):
    """One history entry with a single result row."""
    return record_result(
        bench,
        [
            {
                "config": config or {"ports": 16, "load": 0.8},
                "slots_per_sec": value * 1e5,
                "throughput": value,
            }
        ],
        config={"grid": "test"},
        seed=0,
        history_dir=tmp_path,
        **kwargs,
    )


class TestRecordResult:
    def test_appends_jsonl_history(self, tmp_path):
        record(tmp_path, 10.0)
        record(tmp_path, 11.0)
        entries = PerfStore(tmp_path).load("fastpath")
        assert len(entries) == 2
        assert entries[0].results[0]["throughput"] == 10.0
        assert entries[1].results[0]["throughput"] == 11.0

    def test_entry_carries_manifest(self, tmp_path):
        entry = record(tmp_path, 10.0)
        assert entry.manifest["seed"] == 0
        assert entry.manifest["python_version"]
        assert entry.manifest["timestamp"]

    def test_run_ids_are_unique(self, tmp_path):
        ids = {record(tmp_path, 10.0).run_id for _ in range(5)}
        assert len(ids) == 5

    def test_history_none_skips_append(self, tmp_path):
        record_result(
            "fastpath",
            [{"config": {}, "throughput": 1.0}],
            history_dir=None,
        )
        assert PerfStore(tmp_path).load("fastpath") == []

    def test_phases_round_trip_through_history(self, tmp_path):
        phases = {
            "phases": [
                {"path": "run", "calls": 1, "seconds": 0.5, "share": 1.0}
            ],
            "wall_seconds": 0.5,
            "slots": 100,
            "cells": 10,
        }
        record(tmp_path, 10.0, phases=phases)
        assert PerfStore(tmp_path).load("fastpath")[0].phases == phases

    def test_explicit_manifest_is_used(self, tmp_path):
        manifest = RunManifest.collect(seed=42, config={"x": 1})
        entry = record(tmp_path, 10.0, manifest=manifest)
        assert entry.manifest["seed"] == 42


class TestPerfStore:
    def test_missing_history_is_empty(self, tmp_path):
        assert PerfStore(tmp_path).load("nope") == []
        assert PerfStore(tmp_path / "absent").load("nope") == []

    def test_malformed_interior_line_raises_with_lineno(self, tmp_path):
        # An interior bad line cannot be a torn append: fail loudly.
        record(tmp_path, 1.0)
        path = PerfStore(tmp_path).path("fastpath")
        with open(path, "a") as handle:
            handle.write("{not json\n")
        record(tmp_path, 2.0)  # a good line AFTER the corruption
        with pytest.raises(ValueError, match=":2:"):
            PerfStore(tmp_path).load("fastpath")

    def test_torn_trailing_line_warns_and_loads_the_rest(self, tmp_path):
        # A crash mid-append leaves a truncated FINAL line; that used to
        # raise and make the whole history unreadable.  Now it is
        # dropped with a warning and everything before it survives.
        record(tmp_path, 1.0)
        record(tmp_path, 2.0)
        path = PerfStore(tmp_path).path("fastpath")
        with open(path, "a") as handle:
            handle.write('{"run_id": "torn", "bench": "fastp')
        with pytest.warns(UserWarning, match="torn trailing"):
            entries = PerfStore(tmp_path).load("fastpath")
        assert len(entries) == 2
        assert entries[-1].results[0]["throughput"] == 2.0

    def test_append_after_a_torn_line_keeps_the_history_loadable(self, tmp_path):
        # The next record used to be glued onto the torn fragment, and
        # the history then failed with "bad history line" for good.
        record(tmp_path, 1.0)
        path = PerfStore(tmp_path).path("fastpath")
        with open(path, "a") as handle:
            handle.write('{"run_id": "torn')
        with pytest.warns(UserWarning, match="torn trailing record dropped"):
            record(tmp_path, 2.0)
        entries = PerfStore(tmp_path).load("fastpath")
        assert [e.results[0]["throughput"] for e in entries] == [1.0, 2.0]
        assert path.read_bytes().count(b"\n") == 2


class TestGate:
    def test_passes_on_stable_history(self, tmp_path):
        for value in (10.0, 11.0, 10.5):
            record(tmp_path, value)
        report = gate(PerfStore(tmp_path).load("fastpath"))
        assert report.ok
        assert len(report.checks) == 1
        assert report.checks[0].baseline == pytest.approx(10.5)

    def test_fails_on_synthetic_2x_slowdown(self, tmp_path):
        for value in (10.0, 11.0, 10.5):
            record(tmp_path, value)
        record(tmp_path, 5.25)  # half the median: a 2x regression
        report = gate(PerfStore(tmp_path).load("fastpath"))
        assert not report.ok
        assert "FAIL" in report.describe()

    def test_tolerated_dip_passes(self, tmp_path):
        record(tmp_path, 10.0)
        record(tmp_path, 7.0)  # -30% < default 40% tolerance
        assert gate(PerfStore(tmp_path).load("fastpath")).ok

    def test_first_run_is_ungated_not_passed(self, tmp_path):
        record(tmp_path, 10.0)
        report = gate(PerfStore(tmp_path).load("fastpath"))
        assert report.ok
        assert report.checks == []
        assert report.ungated and report.verdict == "UNGATED"
        assert "gate UNGATED" in report.describe()
        assert "PASS" not in report.describe()

    def test_checked_history_is_not_ungated(self, tmp_path):
        record(tmp_path, 10.0)
        record(tmp_path, 10.0)
        report = gate(PerfStore(tmp_path).load("fastpath"))
        assert not report.ungated and report.verdict == "PASS"

    def test_new_configs_are_skipped_not_failed(self, tmp_path):
        record(tmp_path, 10.0)
        record(tmp_path, 0.1, config={"ports": 32, "load": 0.8})
        report = gate(PerfStore(tmp_path).load("fastpath"))
        assert report.ok and report.ungated
        assert report.skipped == [config_key({"ports": 32, "load": 0.8})]

    def test_metric_no_candidate_result_carries_is_an_error(self, tmp_path):
        # A misspelt or unrecorded metric must not read as UNGATED (0
        # checks, exit 0): the error names the fields the candidate has.
        record(tmp_path, 10.0)
        record(tmp_path, 10.0)
        entries = PerfStore(tmp_path).load("fastpath")
        with pytest.raises(
            ValueError,
            match="carries metric 'thruput'; its results carry: "
            "slots_per_sec, throughput",
        ):
            gate(entries, metric="thruput")

    def test_tolerance_validated(self, tmp_path):
        record(tmp_path, 10.0)
        entries = PerfStore(tmp_path).load("fastpath")
        with pytest.raises(ValueError):
            gate(entries, tolerance=1.0)
        with pytest.raises(ValueError):
            gate([], tolerance=0.4)


class TestMedian:
    def test_median_odd_and_even(self):
        assert _median([3.0, 1.0, 2.0]) == 2.0
        assert _median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_empty_list_is_a_named_value_error(self):
        # Used to escape as a bare IndexError from deep inside sorting
        # arithmetic; now it is a usage error that says what was empty.
        with pytest.raises(ValueError, match="median of empty sample list"):
            _median([])

    def test_what_names_the_config_in_gating_paths(self):
        with pytest.raises(
            ValueError,
            match='median of empty baseline samples for config {"ports":16}',
        ):
            _median([], what='baseline samples for config {"ports":16}')


def _append_payloads(path, worker, count):
    """Worker: append ``count`` large records to a shared history file."""
    # ~50 KB per record: far past any stdio buffer, so the pre-fix
    # json.dump write path would emit each record as many small writes.
    blob = "x" * 200
    for i in range(count):
        append_jsonl_line(
            path,
            {"worker": worker, "i": i, "chunks": [blob] * 256},
        )


class TestConcurrentAppend:
    def test_parallel_appenders_never_tear_lines(self, tmp_path):
        # Regression: PerfStore.append used to stream json.dump straight
        # to the file handle, so two processes appending at once could
        # interleave their chunks and corrupt the history.  The fix
        # serializes first and appends each record as ONE write.
        path = tmp_path / "history.jsonl"
        workers, per_worker = 4, 16
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_append_payloads, args=(path, worker, per_worker)
            )
            for worker in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        records = read_jsonl_records(path)  # raises on any torn line
        assert len(records) == workers * per_worker
        seen = {(r["worker"], r["i"]) for r in records}
        assert len(seen) == workers * per_worker


class TestPerfEntry:
    def test_record_round_trip(self):
        entry = PerfEntry(
            run_id="r1",
            bench="b",
            manifest={"seed": 1},
            results=[{"config": {"n": 2}, "m": 3.0}],
            extras={"x": 1},
            phases={"wall_seconds": 0.1},
        )
        assert PerfEntry.from_record(entry.to_record()) == entry

    def test_metric_map_skips_missing_metric(self):
        entry = PerfEntry(
            run_id="r1",
            bench="b",
            manifest={},
            results=[
                {"config": {"n": 1}, "m": 3.0},
                {"config": {"n": 2}},
            ],
        )
        assert entry.metric_map("m") == {config_key({"n": 1}): 3.0}
