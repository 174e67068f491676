"""Probe wiring through both simulator backends.

The trace must be *consistent with the aggregates*: summing per-slot
events reproduces the run's SwitchResult / FastpathResult counters.
"""

import numpy as np
import pytest

from repro.core.pim import BatchPIMScheduler, PIMScheduler
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink
from repro.sim.fastpath import run_fastpath
from repro.switch.switch import CrossbarSwitch
from repro.traffic.uniform import UniformTraffic

PORTS = 8
SLOTS = 400


@pytest.fixture()
def object_trace():
    sink = InMemorySink()
    probe = Probe(sink, stride=5)
    switch = CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=2))
    result = switch.run(
        UniformTraffic(PORTS, load=0.8, seed=7), slots=SLOTS, warmup=0, probe=probe
    )
    return sink, result, switch


class TestObjectBackend:
    def test_slot_begin_arrivals_sum_to_offered(self, object_trace):
        sink, result, _ = object_trace
        begins = sink.of_kind("slot_begin")
        assert len(begins) == SLOTS
        assert sum(e.arrivals for e in begins) == result.counter.offered

    def test_transfers_and_departures_sum_to_carried(self, object_trace):
        sink, result, _ = object_trace
        assert sum(e.cells for e in sink.of_kind("crossbar_transfer")) == result.counter.carried
        departures = sink.of_kind("cell_departure")
        assert len(departures) == result.counter.carried

    def test_departure_delays_match_delay_stats(self, object_trace):
        sink, result, _ = object_trace
        delays = [e.delay for e in sink.of_kind("cell_departure")]
        assert np.mean(delays) == pytest.approx(result.mean_delay)

    def test_departures_carry_real_ports(self, object_trace):
        sink, _, _ = object_trace
        for e in sink.of_kind("cell_departure"):
            assert 0 <= e.input < PORTS
            assert 0 <= e.output < PORTS
            assert e.delay >= 0

    def test_pim_anatomy_only_on_sampled_slots(self, object_trace):
        sink, _, _ = object_trace
        sampled = {e.slot for e in sink.of_kind("pim_iteration")}
        assert sampled  # load 0.8 always schedules something
        assert all(slot % 5 == 0 for slot in sampled)
        for slot in sampled:
            rounds = sorted(
                (e for e in sink.of_kind("pim_iteration") if e.slot == slot),
                key=lambda e: e.iteration,
            )
            assert [e.iteration for e in rounds] == list(range(1, len(rounds) + 1))
            matched = [e.matched for e in rounds]
            assert matched == sorted(matched)  # cumulative
            assert all(e.accepts >= 0 and e.grants >= e.accepts for e in rounds)

    def test_voq_snapshots_on_sampled_slots(self, object_trace):
        sink, _, _ = object_trace
        snaps = sink.of_kind("voq_snapshot")
        assert snaps and all(e.slot % 5 == 0 for e in snaps)
        assert all(len(e.occupancy) == PORTS for e in snaps)

    def test_probe_detached_from_scheduler_after_run(self, object_trace):
        # The scheduler must not retain the probe past the traced run,
        # or a later run could write into a closed sink.
        _, _, switch = object_trace
        assert switch.scheduler._probe is None

    def test_untraced_run_statistically_identical(self):
        """Tracing must not consume simulation randomness: same seeds
        with and without a probe give identical results."""
        def run(probe):
            switch = CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=4))
            return switch.run(
                UniformTraffic(PORTS, load=0.7, seed=5), slots=200, probe=probe
            )

        plain = run(None)
        traced = run(Probe(InMemorySink(), stride=2))
        assert plain.counter.carried == traced.counter.carried
        assert plain.mean_delay == traced.mean_delay
        assert tuple(plain.departures_by_output) == tuple(traced.departures_by_output)


class TestFastpathBackend:
    def test_trace_sums_match_result(self):
        sink = InMemorySink()
        result = run_fastpath(
            PORTS, 0.8, SLOTS, replicas=4, seed=1, probe=Probe(sink, stride=8)
        )
        begins = sink.of_kind("slot_begin")
        assert len(begins) == SLOTS
        assert sum(e.arrivals for e in begins) == int(result.offered_cells.sum())
        assert sum(e.cells for e in sink.of_kind("crossbar_transfer")) == int(
            result.carried_cells.sum()
        )

    def test_pooled_snapshots_at_stride(self):
        sink = InMemorySink()
        run_fastpath(
            PORTS, 0.8, 64, replicas=4, seed=1, probe=Probe(sink, stride=16)
        )
        snaps = sink.of_kind("voq_snapshot")
        assert [e.slot for e in snaps] == [0, 16, 32, 48]
        assert all(e.replica == -1 for e in snaps)

    def test_batched_pim_iterations_pool_replicas(self):
        sink = InMemorySink()
        run_fastpath(PORTS, 0.9, 50, replicas=3, seed=1, probe=Probe(sink))
        rounds = sink.of_kind("pim_iteration")
        assert rounds and all(e.replicas == 3 for e in rounds)
        assert all(e.requests >= e.grants >= e.accepts >= 0 for e in rounds)

    def test_tracing_does_not_change_results(self):
        plain = run_fastpath(PORTS, 0.8, 300, replicas=2, seed=6)
        traced = run_fastpath(
            PORTS, 0.8, 300, replicas=2, seed=6,
            probe=Probe(InMemorySink(), stride=4),
        )
        assert int(plain.carried_cells.sum()) == int(traced.carried_cells.sum())
        assert plain.mean_delay == traced.mean_delay
        assert np.array_equal(plain.departures_by_output, traced.departures_by_output)

    def test_a_run_leaves_the_probe_stride_alone(self):
        """Regression: the removed ``trace_stride=`` keyword wrote
        ``probe.stride``, so the next run on the same probe was thinned
        too (2 snapshots here, not 16).  Stride belongs to the probe."""
        sink = InMemorySink()
        probe = Probe(sink, stride=1)
        with pytest.raises(TypeError, match="trace_stride"):
            run_fastpath(4, 0.5, 16, probe=probe, trace_stride=8)
        run_fastpath(4, 0.5, 16, probe=probe)
        assert probe.stride == 1
        assert len(sink.of_kind("voq_snapshot")) == 16


class TestBatchSchedulerProbe:
    def test_empty_batch_emits_no_iterations(self):
        sink = InMemorySink()
        probe = Probe(sink)
        scheduler = BatchPIMScheduler(replicas=2, ports=4, seed=0)
        scheduler.attach_probe(probe)
        probe.begin_slot(0)
        scheduler.schedule(np.zeros((2, 4, 4), dtype=bool))
        assert sink.of_kind("pim_iteration") == []
