"""Tests for the whole-fabric vectorized network fast path.

The load-bearing guarantee is slot-exact parity with the object
:class:`repro.network.netsim.NetworkSimulator` at B=1 -- both backends
consume the same named RNG streams in the same order, so every
injection, transfer, delivery, and backlog count must match exactly on
every bundled topology.  The rest covers the batched (B>1) invariants,
determinism, warm-up accounting, and the fuzz-case JSON format.
"""

import sys

import numpy as np
import pytest

import repro.sim.fastpath_network as fastpath_network
from repro.check.differential import fabric_parity, network_parity
from repro.check.fuzz import Case, load_case, run_case
from repro.core.batch import BatchScheduler
from repro.core.pim import BatchPIMScheduler
from repro.network.netsim import FlowSpec
from repro.network.topologies import TOPOLOGIES, build, parking_lot
from repro.network.topology import Topology
from repro.sim.fastpath_network import NetworkFastpath, run_fastpath_network


def _parking_lot_flows(rate=0.5):
    topo, sources, sink = parking_lot(3)
    flows = [
        FlowSpec(k + 1, src, sink, rate) for k, src in enumerate(sources)
    ]
    return topo, flows


class TestObjectParity:
    """Slot-exact B=1 parity on every bundled topology."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_bundled_topology(self, topology):
        network_parity(topology=topology, size=3, n_flows=4, slots=200, seed=1)

    def test_with_credit_limit(self):
        network_parity(
            topology="parking_lot", n_flows=4, slots=250, seed=2, buffer_limit=4
        )

    def test_with_link_latency(self):
        network_parity(topology="chain", n_flows=4, slots=250, seed=3, latency=3)

    def test_with_warmup(self):
        network_parity(topology="campus", n_flows=4, slots=250, seed=4, warmup=50)


def _lopsided_fabric():
    """A 6-port and two 3-port switches in a row over latency-1 and
    latency-3 links, loaded so the stacked passes meet every shape they
    pad for:

    - flows 1-3 share VOQ (0, 1) of ``mid``, flows 4, 5 and 7 its VOQ
      (0, 2), flows 4-5 VOQ (0, 1) of ``far``, host a's and host b's
      flows their first VOQ at ``wide``: round-robin rings of different
      lengths beside single-flow VOQs;
    - host a drives two stochastic flows and a greedy one, host b a
      greedy and a stochastic one, hosts x and y answer back;
    - a credit limit blocks outputs of switches with different port
      counts, and hosts behind them.
    """
    topo = Topology()
    topo.add_switch("wide", 6)
    topo.add_switch("mid", 3)
    topo.add_switch("far", 3)
    for host in "abcdexyz":
        topo.add_host(host)
    for port, host in enumerate("abcd"):
        topo.connect(host, "wide", 0, port)
    topo.connect("wide", "mid", 4, 0, latency=3)
    topo.connect("wide", "e", 5, 0)
    topo.connect("mid", "x", 1, 0)
    topo.connect("mid", "far", 2, 0, latency=3)
    topo.connect("far", "y", 1, 0)
    topo.connect("far", "z", 2, 0)
    flows = [
        FlowSpec(1, "a", "x", 0.4),
        FlowSpec(2, "b", "x", 1.0),
        FlowSpec(3, "c", "x", 0.7),
        FlowSpec(4, "a", "y", 0.3),
        FlowSpec(5, "b", "y", 0.5),
        FlowSpec(6, "a", "e", 1.0),
        FlowSpec(7, "d", "z", 0.6),
        FlowSpec(8, "x", "a", 0.5),
        FlowSpec(9, "y", "d", 0.8),
    ]
    return topo, flows


class TestStackedLayout:
    """Slot-exact parity where switches, hosts and rings differ in size."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("buffer_limit", [None, 2, 5])
    def test_lopsided_fabric_parity(self, seed, buffer_limit):
        topo, flows = _lopsided_fabric()
        report = fabric_parity(
            topo, flows, slots=300, seed=seed, warmup=40, buffer_limit=buffer_limit
        )
        assert report.ok

    def test_conservation_under_credit_limit_across_replicas(self):
        topo, flows = _lopsided_fabric()
        sim = NetworkFastpath(topo, replicas=8, seed=6, buffer_limit=2)
        for flow in flows:
            sim.add_flow(flow)
        result = sim.run(300, check=True)
        # Every flow gets through, and credit keeps each input port of
        # the three switches within its two cells.
        assert (result.delivered.sum(axis=0) > 0).all()
        assert result.final_backlog.max() <= 2 * (6 + 3 + 3)
        replay = sim.run(300, check=True)
        np.testing.assert_array_equal(result.delay_integral, replay.delay_integral)

    def test_shared_voq_without_eligible_flow_names_slot_and_switch(self, monkeypatch):
        topo, flows = _lopsided_fabric()
        monkeypatch.setattr(fastpath_network.FlowRing, "append", lambda *_: None)
        with pytest.raises(IndexError, match=r"slot \d+: .*shared VOQ of wide"):
            run_fastpath_network(topo, flows, 100, replicas=2)
        with pytest.raises(AssertionError, match="rings out of step"):
            run_fastpath_network(topo, flows, 100, replicas=2, check=True)


def _fat_tree(size, **options):
    """A k-ary fat tree with one flow out of and one into every host."""
    topo, hosts = build("fat_tree", size)
    sim = NetworkFastpath(topo, seed=0, **options)
    for k, host in enumerate(hosts):
        sim.add_flow(FlowSpec(k + 1, host, hosts[(k + 3) % len(hosts)], (1.0, 0.6)[k % 2]))
    return sim


def _dispatches(replicas, slots=40, size=4):
    """Python and C calls the fabric slot loop itself makes in a run."""
    sim = _fat_tree(size, replicas=replicas)
    own = ("fastpath_network.py", "flowring.py")
    count = 0

    def profile(frame, event, _):
        nonlocal count
        caller = {"call": frame.f_back, "c_call": frame}.get(event)
        if caller is not None and caller.f_code.co_filename.endswith(own):
            count += 1

    sys.setprofile(profile)
    try:
        sim.run(slots)
    finally:
        sys.setprofile(None)
    return count


class TestNoPerCellPython:
    def test_dispatch_count_does_not_grow_with_replicas(self):
        """32x the cells, the same calls: only the number of switches
        with a request somewhere (hence kernel calls) may differ."""
        single, batched = _dispatches(1), _dispatches(32)
        assert batched <= 1.2 * single

    def test_no_deque(self):
        assert not hasattr(fastpath_network, "deque")

    @pytest.mark.parametrize("buffer_limit, turns", [(None, 1), (2, 3)])
    def test_one_kernel_call_per_turn_per_slot(self, monkeypatch, buffer_limit, turns):
        """Twenty switches, one ``schedule`` per slot; with a credit
        limit one per wave (cores, aggregation, edge) -- busy or not."""
        calls = []
        schedule = BatchPIMScheduler.schedule

        def counted(self, requests, occupancy=None):
            calls.append(requests.shape)
            return schedule(self, requests, occupancy)

        monkeypatch.setattr(BatchPIMScheduler, "schedule", counted)
        sim = _fat_tree(4, replicas=8, buffer_limit=buffer_limit)
        sim.run(40)
        assert len(sim._compile().turns) == turns
        assert len(calls) == 40 * turns
        assert sum(shape[0] for shape in calls[:turns]) == 20 * 8

    def test_dispatch_count_does_not_grow_with_switches(self):
        """Four times the switches (20 against 5), eight times the hosts,
        the same calls: no part of the slot is per switch."""
        def per_slot(size):  # 40 steady-state slots, compilation cancelled out
            return _dispatches(8, 80, size) - _dispatches(8, 40, size)

        assert per_slot(4) <= 1.3 * per_slot(2)


class _EdgeDrain(BatchScheduler):
    """Matches input 0 to output 0 in the last switch's blocks only,
    whatever was requested there."""

    def __init__(self, replicas, ports, **_):
        super().__init__(replicas, ports)

    def schedule(self, requests, occupancy=None):
        match = np.full((self.replicas, self.ports), -1, dtype=np.int64)
        match[-8:, 0] = 0
        return match


class TestChecks:
    def test_negative_occupancy_names_the_switch(self, monkeypatch):
        """One kernel serves twenty switches; the check still says whose
        VOQ went negative, from the cell's place in the stacked state."""
        monkeypatch.setattr(
            fastpath_network,
            "build_batch_scheduler",
            lambda name, replicas, ports, **_: _EdgeDrain(replicas, ports),
        )
        with pytest.raises(AssertionError, match="negative VOQ occupancy at edge3_1"):
            _fat_tree(4, replicas=8).run(5, check=True)

    def test_scheduler_and_accept_checked_at_construction(self):
        topo, _ = _parking_lot_flows()
        with pytest.raises(ValueError, match="unknown batch scheduler 'pmi'"):
            NetworkFastpath(topo, scheduler="pmi")
        with pytest.raises(ValueError, match="unknown accept policy: 'rr'"):
            NetworkFastpath(topo, accept="rr")
        with pytest.raises(ValueError, match="unknown batch scheduler"):
            run_fastpath_network(topo, [], 10, scheduler="lottery")


class TestBatchedRun:
    def test_invariants_checked_across_replicas(self):
        # check=True asserts per-slot cell conservation and
        # occupancy/queued agreement inside the run.
        topo, flows = _parking_lot_flows()
        result = run_fastpath_network(
            topo, flows, 300, replicas=16, seed=0, check=True
        )
        assert result.replicas == 16
        assert result.injected.shape == (16, len(flows))

    def test_replicas_differ_but_pool_sensibly(self):
        topo, flows = _parking_lot_flows(rate=0.5)
        result = run_fastpath_network(topo, flows, 2000, replicas=8, seed=0)
        # Independent replicas should not all be identical...
        assert len({int(row.sum()) for row in result.delivered}) > 1
        # ...but the pooled per-flow throughput stays near the offered
        # rate for the last-merge flow, which sees no contention.
        assert result.throughput(4) == pytest.approx(0.5, abs=0.06)

    def test_conservation_with_credit_limit(self):
        topo, flows = _parking_lot_flows(rate=1.0)
        result = run_fastpath_network(
            topo, flows, 400, replicas=8, seed=5, buffer_limit=2, check=True
        )
        # Saturated and credit-limited: backlog is bounded by the
        # credit limit times the number of outputs, not the load.
        assert result.final_backlog.max() <= 2 * 4 * len(topo.switches())

    def test_shares_sum_to_one(self):
        topo, flows = _parking_lot_flows(rate=1.0)
        result = run_fastpath_network(topo, flows, 500, replicas=4, seed=1)
        assert sum(result.shares().values()) == pytest.approx(1.0)


class TestDeterminism:
    def test_same_seed_same_result(self):
        topo, flows = _parking_lot_flows()
        a = run_fastpath_network(topo, flows, 400, replicas=8, seed=7)
        b = run_fastpath_network(topo, flows, 400, replicas=8, seed=7)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        np.testing.assert_array_equal(a.injected, b.injected)
        np.testing.assert_array_equal(a.delay_integral, b.delay_integral)

    def test_rerun_replays_exactly(self):
        # Unlike the object backend (whose PIM RNGs advance across
        # runs), the fast path derives fresh streams per run() call, so
        # a rerun on the same instance replays the first run.
        topo, flows = _parking_lot_flows()
        sim = NetworkFastpath(topo, replicas=4, seed=9)
        for flow in flows:
            sim.add_flow(flow)
        first = sim.run(300)
        second = sim.run(300)
        np.testing.assert_array_equal(first.delivered, second.delivered)

    def test_different_seeds_differ(self):
        topo, flows = _parking_lot_flows()
        a = run_fastpath_network(topo, flows, 400, replicas=4, seed=0)
        b = run_fastpath_network(topo, flows, 400, replicas=4, seed=1)
        assert not np.array_equal(a.delivered, b.delivered)

    def test_add_flow_after_run_recompiles(self):
        topo, sources, sink = parking_lot(3)
        sim = NetworkFastpath(topo, replicas=2, seed=3)
        sim.add_flow(FlowSpec(1, sources[0], sink, 0.5))
        before = sim.run(300)
        sim.add_flow(FlowSpec(2, sources[-1], sink, 0.5))
        after = sim.run(300)
        assert list(before.flow_ids) == [1]
        assert list(after.flow_ids) == [1, 2]
        assert int(after.delivered[:, 1].sum()) > 0


class TestWarmup:
    def test_window_and_delivered_accounting(self):
        topo, flows = _parking_lot_flows(rate=0.5)
        warm = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2,
                                    warmup=400)
        cold = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2)
        assert warm.window == 600 and cold.window == 1000
        # delivered counts only post-warm-up slots; injected counts all.
        assert warm.delivered.sum() < cold.delivered.sum()
        np.testing.assert_array_equal(warm.injected, cold.injected)

    def test_delay_counts_only_warm_cells(self):
        # Rate 0.15 x 4 flows keeps the sink link under load 1 so the
        # network drains and warm-injected cells actually deliver.
        topo, flows = _parking_lot_flows(rate=0.15)
        warm = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2,
                                    warmup=400)
        cold = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2)
        assert 0 < warm.delay_cells.sum() < cold.delay_cells.sum()
        for fid in warm.flow_ids:
            assert warm.mean_delay(fid) >= 1.0  # >= uncontended latency


class TestFuzzCase:
    def test_round_trips_through_json(self):
        case = Case("network", 11, dict(topology="mesh", size=2, n_flows=4,
                                        latency=2, buffer_limit=4, slots=120,
                                        warmup=25))
        assert load_case(case.to_json()) == case

    def test_run_case_executes_parity(self):
        run_case(Case("network", 0))

    def test_zero_buffer_limit_means_unlimited(self):
        # buffer_limit=0 encodes None so the dataclass stays
        # JSON-primitive; the parity driver must translate it.
        run_case(Case("network", 1, dict(buffer_limit=0, slots=120)))
