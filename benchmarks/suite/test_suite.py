"""Self-test of the benchmark suite (not part of tier-1).

Run with ``python -m pytest benchmarks/suite -q`` from the repository
root.  Every workload runs through the same ``measure`` / ``trace``
functions the benchmark uses, at 1/20 of its slot count.
"""

import dataclasses
import functools
import json
import re

import pytest

import run  # noqa: I001  (pins thread pools and puts src/ on sys.path)
import workloads

SCALE = 1 / 20
NAMES = [w["name"] for w in run.BENCHMARK["workloads"]]
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@functools.lru_cache(maxsize=None)
def measured(name: str) -> dict:
    return run.measure(name, seed=0, seconds=0.0, scale=SCALE)


@functools.lru_cache(maxsize=None)
def traced(name: str) -> dict:
    return run.trace(name, seed=0, scale=SCALE)


def test_workloads_match_benchmark_json():
    assert NAMES == [cls.name for cls in workloads.WORKLOADS]
    assert set(run.GOLDEN["digests"]) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name):
    result = measured(name)
    assert result["failed"] == 0, result["failures"]
    assert result["metrics"]["op_fail_share"] == 0
    emitted = set(result["metrics"]) - set(run.SUITE_ONLY)
    assert emitted == set(run.END_TO_END)
    assert ("sim_p99_fct_slots" in result["metrics"]) == (name == "scenario-incast")
    line = json.loads(run.contract_line(result, run.END_TO_END))
    assert list(line["metrics"]) == list(run.END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_digest_repeats_across_calls(name, tmp_path):
    workload = workloads.build_workload(name, SCALE, tmp_path)
    workload.setup(0, run.harness.Tracer(name))
    first = workload.outcome(workload.operate()).digest
    assert workload.outcome(workload.operate()).digest == first
    assert measured(name)["digest"] == first


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_and_span_accounting(name):
    result = traced(name)
    assert result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) <= set(run.PER_LAYER)
    line = json.loads(run.contract_line(result, run.PER_LAYER))
    assert list(line["metrics"]) == list(run.PER_LAYER)

    spans = result["spans"]
    assert spans[0]["name"] == name and spans[0]["parent"] == -1
    assert all(span["workload"] == name for span in spans)
    accounted = sum(span["self"] for span in spans[1:])
    assert 0.98 <= accounted / result["traced_wall_s"] <= 1.0


def test_every_metric_name_is_produced_and_well_formed():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(name) for name in names)
    produced = set()
    for name in NAMES:
        produced |= set(traced(name)["metrics"])
    assert produced == set(run.PER_LAYER)


def test_corrupted_digest_counts_as_failed_operation(monkeypatch):
    calls = []
    original = workloads.XbarWideN32.outcome

    def corrupting(self, result):
        outcome = original(self, result)
        calls.append(outcome)
        if len(calls) == 2:
            return dataclasses.replace(outcome, digest="0" * 64)
        return outcome

    monkeypatch.setattr(workloads.XbarWideN32, "outcome", corrupting)
    result = run.measure("xbar-wide-n32", seed=0, seconds=0.0, scale=SCALE)
    assert result["failed"] == 1
    assert result["metrics"]["op_fail_share"] > 0
    assert json.loads(run.contract_line(result, run.END_TO_END))["correct"] is False
