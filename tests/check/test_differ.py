"""The one differ behind every parity oracle, and what the oracles feed it.

``diff_series`` compares two projected runs -- named integer series
whose rows are slots, end-of-run totals as one-row series -- and names
the first divergent (slot, series, index).  The healthy-pair tests
capture what :func:`backend_parity` hands the differ on a PIM pair.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.check import differential
from repro.check.differential import backend_parity, diff_series, fabric_parity
from repro.check.invariants import InvariantViolation
from repro.network.netsim import FlowSpec
from repro.network.topologies import build
from repro.obs.perf import PhaseTimer


def _captured(*args, **kwargs):
    """Run backend_parity and keep its sinks and both projections."""
    sinks, calls = [], []
    project, differ = differential._crossbar_series, differential.diff_series
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            differential, "_crossbar_series",
            lambda sink: sinks.append(sink) or project(sink),
        )
        patch.setattr(
            differential, "diff_series",
            lambda *call: calls.append(call) or differ(*call),
        )
        report = backend_parity(*args, **kwargs)
    (_, _, object_series, fast_series), = calls
    return SimpleNamespace(
        report=report, sinks=sinks, object=object_series, fast=fast_series
    )


@pytest.fixture(scope="module")
def pair():
    return _captured(4, 0.6, 150, seed=11, drain_slots=200)


class TestHealthyPair:
    def test_parity_holds(self, pair):
        assert pair.report.ok, pair.report.detail

    def test_arrivals_identical_every_slot(self, pair):
        arrivals = pair.object["slot_begin.arrivals"]
        assert arrivals.shape == (350, 1)
        assert arrivals[:150].sum() > 0 and arrivals[150:].sum() == 0
        assert (arrivals == pair.fast["slot_begin.arrivals"]).all()

    def test_totals_drain_to_offered(self, pair):
        offered = pair.object["slot_begin.arrivals"].sum()
        assert pair.object["carried"] == pair.fast["carried"] == [offered]

    def test_matches_identical_every_slot(self, pair):
        """The object PIM is the B = 1 call of the fast path's kernel on
        the same stream, so its projection holds the matches per slot."""
        matched = pair.object["crossbar_transfer.cells"]
        assert matched.shape == (350, 1) and matched.sum() > 0
        assert (matched == pair.fast["crossbar_transfer.cells"]).all()

    def test_describe_names_the_invariants(self, pair):
        detail = pair.report.detail
        assert "350 slots" in detail
        assert "arrivals identical per slot" in detail
        assert "matches identical per slot" in detail and "cells carried" in detail


class TestDivergenceDetection:
    def test_mismatched_traffic_seeds_are_caught(self):
        """An arrival-replication bug, simulated by pairing the object
        run of one seed with the fast run of another."""
        a = _captured(4, 0.6, 80, seed=1, drain_slots=120)
        b = _captured(4, 0.6, 80, seed=2, drain_slots=120)
        ours, theirs = a.object["slot_begin.arrivals"], b.fast["slot_begin.arrivals"]
        slot = np.flatnonzero(ours != theirs)[0]
        with pytest.raises(
            InvariantViolation,
            match=rf"at slot {slot}, slot_begin\.arrivals: "
            rf"object {ours[slot, 0]} fastpath {theirs[slot, 0]}",
        ):
            diff_series("backend-parity", "mixed", a.object, b.fast)

    def test_total_mismatch_flagged(self):
        with pytest.raises(
            InvariantViolation, match="at end of run, carried: object 2 fastpath 1"
        ):
            diff_series(
                "p", "run", {"arrivals": [1, 1], "carried": [2]},
                {"arrivals": [1, 1], "carried": [1]},
            )
        with pytest.raises(InvariantViolation, match="at slot 1, matched:"):
            diff_series(
                "p", "run", {"matched": [1, 1], "carried": [2]},
                {"matched": [1, 0], "carried": [1]},
            )


class TestDiffSeries:
    def test_identical_runs_pass(self):
        run = {"a": np.arange(6).reshape(3, 2), "total": [[4, 5]]}
        diff_series("p", "run", run, {k: np.array(v) for k, v in run.items()})

    def test_earliest_slot_wins_over_series_order(self):
        with pytest.raises(InvariantViolation, match="at slot 1, b: object 3"):
            diff_series("p", "run", {"a": [0, 0, 5], "b": [0, 3, 0]},
                        {"a": [0, 0, 0], "b": [0, 0, 0]})

    def test_ties_go_to_the_series_named_first(self):
        with pytest.raises(InvariantViolation, match="at slot 0, a: object 1"):
            diff_series("p", "run", {"a": [1, 0], "b": [2, 0]},
                        {"a": [0, 0], "b": [0, 0]})

    def test_index_names_the_entry(self):
        with pytest.raises(
            InvariantViolation,
            match=r"invariant 'p' violated: run: first divergence at slot 1, "
            r"x\[1\]: object 7 fastpath 0",
        ):
            diff_series("p", "run", {"x": [[0, 0], [0, 7]]}, {"x": [[0, 0], [0, 0]]})

    def test_length_mismatch_is_a_divergence(self):
        with pytest.raises(
            InvariantViolation, match="at slot 2, x: object 3 fastpath absent"
        ):
            diff_series("p", "run", {"x": [1, 2, 3]}, {"x": [1, 2]})
        with pytest.raises(
            InvariantViolation, match=r"at end of run, s\[2\]: object absent fastpath 3"
        ):
            diff_series("p", "run", {"s": [[1, 2]]}, {"s": [[1, 2, 3, 4]]})

    def test_an_empty_run_diverges_at_slot_zero(self):
        with pytest.raises(InvariantViolation, match="at slot 0, x: object absent"):
            diff_series("p", "run", {"x": []}, {"x": [0, 0]})


def test_fabric_parity_needs_every_slot(monkeypatch):
    """An object observer that misses the last slot is a divergence,
    not a shorter comparison."""
    simulator = differential.NetworkSimulator

    class Forgetful(simulator):
        def run(self, slots, warmup=0, observer=None):
            def all_but_the_last(record):
                if record.slot < slots - 1:
                    observer(record)

            return super().run(slots, warmup=warmup, observer=all_but_the_last)

    monkeypatch.setattr(differential, "NetworkSimulator", Forgetful)
    topo, hosts = build("chain", 2)
    with pytest.raises(InvariantViolation, match="at slot 39, injected: object absent"):
        fabric_parity(topo, [FlowSpec(1, hosts[0], hosts[-1], 0.5)], slots=40)


def test_parity_spans_the_suite_reads():
    """``benchmarks/suite/workloads.py`` times the object oracle through
    these two span paths of ``backend_parity(phase_timer=...)``."""
    timer = PhaseTimer()
    backend_parity(4, 0.6, 40, seed=0, phase_timer=timer)
    assert timer.calls["parity/object/run/kernel"] == 240
    assert timer.calls["parity/fastpath/run/kernel"] == 240
