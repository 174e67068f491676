"""Tests for the multi-switch network simulator."""

import pytest

from repro.network.netsim import FlowSpec, NetworkSimulator
from repro.network.topology import Topology


def single_switch_topology():
    topo = Topology()
    topo.add_switch("s", 4)
    for h in ("a", "b", "sink"):
        topo.add_host(h)
    topo.connect("a", "s")
    topo.connect("b", "s")
    topo.connect("sink", "s")
    return topo


def chain_topology(switches=3):
    topo = Topology()
    names = [f"s{i}" for i in range(switches)]
    for name in names:
        topo.add_switch(name, 4)
    for a, b in zip(names, names[1:]):
        topo.connect(a, b)
    topo.add_host("src")
    topo.add_host("dst")
    topo.connect("src", names[0])
    topo.connect("dst", names[-1])
    return topo


class TestFlowSpec:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FlowSpec(1, "a", "b", -0.5)

    def test_nan_rate_rejected_naming_the_flow(self):
        """A NaN rate compares false with every threshold, so it used to
        pass ``rate < 0`` and make a flow that silently never injects."""
        with pytest.raises(ValueError, match=r"flow 7: .*non-negative, got nan"):
            FlowSpec(7, "a", "b", float("nan"))

    def test_infinite_rate_is_a_greedy_flow(self):
        sim = NetworkSimulator(single_switch_topology(), seed=0)
        sim.add_flow(FlowSpec(1, "a", "sink", float("inf")))
        assert sim.run(slots=200, warmup=0).delivered[1] >= 195


class TestNetworkSimulator:
    def test_single_flow_full_rate(self):
        sim = NetworkSimulator(single_switch_topology(), seed=0)
        sim.add_flow(FlowSpec(1, "a", "sink", 1.0))
        result = sim.run(slots=200, warmup=0)
        # One hop of link latency each way plus switch transit.
        assert result.delivered[1] >= 195

    def test_duplicate_flow_rejected(self):
        sim = NetworkSimulator(single_switch_topology(), seed=0)
        sim.add_flow(FlowSpec(1, "a", "sink", 1.0))
        with pytest.raises(ValueError, match="duplicate flow id"):
            sim.add_flow(FlowSpec(1, "b", "sink", 1.0))

    def test_stochastic_rate_approximated(self):
        sim = NetworkSimulator(single_switch_topology(), seed=1)
        sim.add_flow(FlowSpec(1, "a", "sink", 0.3))
        result = sim.run(slots=5000, warmup=500)
        assert result.throughput(1) == pytest.approx(0.3, abs=0.05)

    def test_two_flows_share_bottleneck_evenly(self):
        sim = NetworkSimulator(single_switch_topology(), seed=2)
        sim.add_flow(FlowSpec(1, "a", "sink", 1.0))
        sim.add_flow(FlowSpec(2, "b", "sink", 1.0))
        result = sim.run(slots=4000, warmup=500)
        shares = result.shares()
        assert shares[1] == pytest.approx(0.5, abs=0.05)
        assert shares[2] == pytest.approx(0.5, abs=0.05)

    def test_multi_hop_delivery_and_latency(self):
        sim = NetworkSimulator(chain_topology(3), seed=3)
        sim.add_flow(FlowSpec(1, "src", "dst", 0.5))
        result = sim.run(slots=3000, warmup=300)
        assert result.throughput(1) == pytest.approx(0.5, abs=0.05)
        # Uncontended: latency ~ path links (4 links at 1 slot each)
        # plus per-switch transit; must be small and at least 4.
        assert 4 <= result.delay[1].mean < 12

    def test_parking_lot_unfairness(self):
        """Figure 9: the flow merging at the last switch dominates."""
        topo = Topology()
        for s in ("s1", "s2", "s3"):
            topo.add_switch(s, 4)
        for h in ("hd", "hc", "hb", "ha", "sink"):
            topo.add_host(h)
        topo.connect("hd", "s1")
        topo.connect("hc", "s1")
        topo.connect("s1", "s2")
        topo.connect("hb", "s2")
        topo.connect("s2", "s3")
        topo.connect("ha", "s3")
        topo.connect("s3", "sink")
        sim = NetworkSimulator(topo, seed=42)
        for flow_id, host in [(1, "ha"), (2, "hb"), (3, "hc"), (4, "hd")]:
            sim.add_flow(FlowSpec(flow_id, host, "sink", 1.0))
        result = sim.run(slots=6000, warmup=1000)
        shares = result.shares()
        assert shares[1] == pytest.approx(0.5, abs=0.05)   # flow a
        for other in (2, 3, 4):
            assert shares[other] < 0.25

    def test_scheduler_factory_injected(self):
        from repro.core.wavefront import WavefrontScheduler

        created = []

        def factory(name, ports):
            created.append(name)
            return WavefrontScheduler()

        sim = NetworkSimulator(single_switch_topology(), scheduler_factory=factory, seed=0)
        sim.add_flow(FlowSpec(1, "a", "sink", 1.0))
        sim.run(slots=50)
        assert created == ["s"]

    def test_deterministic_given_seed(self):
        def run_once():
            sim = NetworkSimulator(chain_topology(2), seed=9)
            sim.add_flow(FlowSpec(1, "src", "dst", 0.7))
            return sim.run(slots=500).delivered[1]

        assert run_once() == run_once()

    def test_backlog_reported(self):
        sim = NetworkSimulator(single_switch_topology(), seed=0)
        sim.add_flow(FlowSpec(1, "a", "sink", 1.0))
        sim.add_flow(FlowSpec(2, "b", "sink", 1.0))
        sim.run(slots=100)
        assert sim.backlog() > 0  # saturated bottleneck builds queues


class TestRerunIsIndependentReplay:
    """Regression: ``run()`` used to leak state across invocations --
    ``_in_transit`` is keyed by absolute slot while the clock restarts
    at 0, and switch buffers and host pending/seqno counters survived
    -- so a second ``run()`` revived stale in-flight/buffered cells
    and recorded negative delays (``DelayStats.record`` raises)."""

    def build(self, seed=5):
        from repro.core.islip import ISLIPScheduler

        topo = single_switch_topology()
        sim = NetworkSimulator(
            topo,
            # Deterministic scheduler: replay equality is then exact.
            scheduler_factory=lambda name, ports: ISLIPScheduler(),
            seed=seed,
        )
        # Two saturated flows build a real backlog at the bottleneck;
        # the stochastic flow exercises the host-stream restart.
        sim.add_flow(FlowSpec(1, "a", "sink", 1.0))
        sim.add_flow(FlowSpec(2, "b", "sink", 1.0))
        sim.add_flow(FlowSpec(3, "a", "sink", 0.4))
        return sim

    def test_second_run_replays_the_first(self):
        sim = self.build()
        first = sim.run(slots=400, warmup=50)
        second = sim.run(slots=400, warmup=50)
        assert first.delivered == second.delivered
        for flow_id in first.delay:
            assert first.delay[flow_id].count == second.delay[flow_id].count
            assert first.delay[flow_id].mean == second.delay[flow_id].mean

    def test_add_flow_then_rerun_replays_draw_for_draw(self):
        """Adding a flow to an existing host goes through
        ``HostSource.add_flow`` (not private-state pokes); the enlarged
        simulator must still replay run-for-run."""
        sim = self.build(seed=7)
        sim.run(slots=200, warmup=0)  # dirty the counters
        sim.add_flow(FlowSpec(4, "b", "sink", 0.5))  # existing host "b"
        sim.add_flow(FlowSpec(5, "sink", "a", 0.7))  # brand-new source
        first = sim.run(slots=300, warmup=0)
        second = sim.run(slots=300, warmup=0)
        assert first.delivered == second.delivered
        assert first.delivered[4] > 0 and first.delivered[5] > 0
        for flow_id in first.delay:
            assert first.delay[flow_id].count == second.delay[flow_id].count
            assert first.delay[flow_id].mean == second.delay[flow_id].mean

    def test_second_run_sees_fresh_network(self):
        sim = self.build(seed=6)
        sim.run(slots=300, warmup=0)
        backlog_after_first = sim.backlog()
        assert backlog_after_first > 0  # saturated: queues did build
        second = sim.run(slots=60, warmup=0)
        # A fresh 60-slot run can never deliver more than the first 60
        # slots of the long run could feed through the bottleneck; with
        # leaked buffers it drained the old backlog instead.
        assert sum(second.delivered.values()) <= 60
