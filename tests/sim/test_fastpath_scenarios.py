"""Fast path driven by scenario sources (run_fastpath(sources=...))."""

import numpy as np
import pytest

from repro.core.islip import ISLIPScheduler
from repro.sim.fastpath import ScenarioArrivals, run_fastpath
from repro.switch.buffers import VOQBuffer
from repro.switch.cell import Cell
from repro.switch.switch import CrossbarSwitch
from repro.traffic.flows import FlowRecord, FlowTraffic, SizeDist, WindowedSource
from repro.traffic.scenarios import get_scenario
from repro.traffic.trace import TraceTraffic
from repro.traffic.uniform import UniformTraffic


def _run(scenario="websearch-incast", slots=200, drain=600, seed=0, **kw):
    spec = get_scenario(scenario)
    defaults = dict(
        replicas=1,
        iterations=4,
        scheduler="islip",
        seed=seed,
        sources=[spec.build_source(seed)],
        drain_slots=drain,
        warmup_mode="arrival",
        check=True,
    )
    defaults.update(kw)
    return run_fastpath(spec.ports, spec.load, slots, **defaults)


class TestScenarioMode:
    def test_conservation_with_sources(self):
        result = _run()
        assert result.offered_cells > 0
        assert result.carried_cells + result.final_backlog == result.offered_cells

    def test_fct_present_for_flow_aware_sources(self):
        result = _run()
        assert result.fct is not None
        assert result.fct.count > 0
        assert result.fct.mean_fct >= 1.0
        assert result.fct.mean_slowdown >= 1.0

    def test_fct_absent_for_cell_level_sources(self):
        spec = get_scenario("websearch-incast")
        result = run_fastpath(
            spec.ports, 0.5, 200, replicas=1, scheduler="islip",
            sources=[UniformTraffic(spec.ports, load=0.5, seed=0)],
        )
        assert result.fct is None

    def test_fct_absent_without_sources(self):
        result = run_fastpath(8, 0.5, 200, replicas=1, scheduler="islip",
                              arrival_seeds=[3])
        assert result.fct is None

    def test_every_scheduler_accepts_sources(self):
        from repro.core.batch import BATCH_SCHEDULERS

        for scheduler in BATCH_SCHEDULERS:
            result = _run(slots=120, drain=400, scheduler=scheduler)
            assert result.carried_cells > 0, scheduler
            assert result.fct is not None, scheduler


class TestArgumentErrors:
    def test_sources_and_arrival_seeds_are_mutually_exclusive(self):
        spec = get_scenario("websearch-incast")
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_fastpath(
                spec.ports, spec.load, 100, replicas=1,
                sources=[spec.build_source(0)], arrival_seeds=[0],
            )

    def test_sources_length_must_match_replicas(self):
        spec = get_scenario("websearch-incast")
        with pytest.raises(ValueError, match="sources has 1 entries"):
            run_fastpath(
                spec.ports, spec.load, 100, replicas=2,
                sources=[spec.build_source(0)],
            )

    def test_source_ports_must_match(self):
        spec = get_scenario("websearch-incast")
        with pytest.raises(ValueError, match="ports"):
            run_fastpath(
                4, spec.load, 100, replicas=1,
                sources=[spec.build_source(0)],  # 8-port source
            )


class TestDeterminism:
    def test_rerun_with_fresh_sources_is_identical(self):
        a, b = _run(seed=5), _run(seed=5)
        assert a.carried_cells == b.carried_cells
        assert a.delay_integral == b.delay_integral
        assert a.fct.observations() == b.fct.observations()

    def test_reused_source_is_reset_by_the_run(self):
        """run_fastpath must reset() the sources it is handed, so the
        same source object can drive two runs identically."""
        spec = get_scenario("hotspot")
        source = spec.build_source(9)
        common = dict(
            replicas=1, iterations=4, scheduler="islip", seed=9,
            drain_slots=600, warmup_mode="arrival",
        )
        first = run_fastpath(spec.ports, spec.load, 200,
                             sources=[source], **common)
        second = run_fastpath(spec.ports, spec.load, 200,
                              sources=[source], **common)
        assert first.carried_cells == second.carried_cells
        assert first.fct.observations() == second.fct.observations()

    def test_replicas_with_distinct_sources(self):
        spec = get_scenario("skewed-uniform")
        result = run_fastpath(
            spec.ports, spec.load, 150, replicas=2, iterations=4,
            scheduler="islip", seed=0,
            sources=[spec.build_source(0), spec.build_source(1)],
            drain_slots=500, warmup_mode="arrival",
        )
        assert result.replicas == 2
        assert result.fct is not None
        assert result.fct.count > 0


class _ScriptedFlows:
    """Flow-aware source replaying ``(slot, input, output, flow_id)`` cells.

    Unlike FlowTraffic it may put several cells on one input -- even
    into one VOQ -- in a single slot.
    """

    def __init__(self, ports, cells):
        self.ports = ports
        self._by_slot = {}
        self._records = {}
        for slot, input_port, output, flow_id in cells:
            record = self._records.setdefault(
                flow_id, FlowRecord(flow_id, input_port, output, 0, slot)
            )
            self._by_slot.setdefault(slot, []).append(
                (input_port, output, flow_id, record.size)
            )
            record.size += 1

    def arrivals(self, slot):
        return [
            (input_port, Cell(flow_id=flow_id, output=output, seqno=seqno))
            for input_port, output, flow_id, seqno in self._by_slot.get(slot, [])
        ]

    def flow_records(self):
        return self._records


def _random_flow_cells(rng, ports, slots, flows, burst):
    """Cells of ``flows`` flows crowded onto few VOQs: each flow sends
    its cells in a few bursts, so it empties and re-joins its VOQ's
    round-robin list while others wait there."""
    cells = []
    for flow_id in range(flows):
        input_port, output = rng.integers(ports, size=2)
        for start in rng.integers(0, slots, size=rng.integers(1, 4)):
            for offset in range(rng.integers(1, burst + 1)):
                cells.append(
                    (int(start + offset), int(input_port), int(output), 100 + 7 * flow_id)
                )
    return sorted(cells, key=lambda cell: cell[0])


class TestRoundRobinShadow:
    """The array shadow serves flows exactly as a VOQBuffer would."""

    def _drive(self, ports, sources, slots, seed):
        """Run shadow and reference side by side under random service;
        returns (shadow, reference completion slot per (replica, flow))."""
        rng = np.random.default_rng(seed)
        shadow = ScenarioArrivals(ports, sources, slots)
        buffers = [[VOQBuffer(ports) for _ in range(ports)] for _ in sources]
        departed, completion = {}, {}
        for slot in range(slots + 400):
            if slot < slots:
                expected = np.zeros((len(sources), ports, ports), dtype=np.int64)
                for b, source in enumerate(sources):
                    for input_port, cell in source.arrivals(slot):
                        buffers[b][input_port].enqueue(cell)
                        expected[b, input_port, cell.output] += 1
                cells = shadow.slot_cells()
                assert (np.diff(cells) >= 0).all()
                counts = np.bincount(cells, minlength=expected.size)
                assert (counts == expected.reshape(-1)).all()
            served = []
            for b, source in enumerate(sources):
                for i in range(ports):
                    ready = [j for j in range(ports) if buffers[b][i].has_cell_for(j)]
                    if ready and rng.random() < 0.6:
                        j = int(rng.choice(ready))
                        flow_id = buffers[b][i].dequeue(j).flow_id
                        served.append((b, i, j))
                        count = departed[b, flow_id] = departed.get((b, flow_id), 0) + 1
                        if count == source.flow_records()[flow_id].size:
                            completion[b, flow_id] = slot
            bb, ii, jj = np.array(served, dtype=np.int64).reshape(-1, 3).T
            shadow.on_departures(bb, ii, jj, slot)
        return shadow, completion

    def _expected_fct(self, sources, completion):
        observations, incomplete = [], 0
        for b, source in enumerate(sources):
            for flow_id, record in source.flow_records().items():
                if (b, flow_id) in completion:
                    observations.append(
                        (record.size, completion[b, flow_id] - record.start_slot + 1)
                    )
                else:
                    incomplete += 1
        return observations, incomplete

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_voqbuffer_on_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        sources = [
            _ScriptedFlows(2, _random_flow_cells(rng, 2, 120, flows=14, burst=5))
            for _ in range(3)
        ]
        shadow, completion = self._drive(2, sources, 130, seed)
        observations, incomplete = self._expected_fct(sources, completion)
        fct = shadow.fct_stats(0)
        assert fct.observations() == observations
        assert fct.incomplete == incomplete
        assert len(observations) > 20

    def test_crowded_voq_grows_the_ring(self):
        """Nine flows waiting in one VOQ overflow the initial ring."""
        cells = [(0, 0, 1, flow_id) for flow_id in range(9) for _ in range(3)]
        cells += [(slot, 0, 1, 50) for slot in range(1, 30)]
        sources = [_ScriptedFlows(2, cells)]
        shadow, completion = self._drive(2, sources, 30, seed=4)
        assert shadow._eligible.width > 4
        observations, incomplete = self._expected_fct(sources, completion)
        assert shadow.fct_stats(0).observations() == observations
        assert incomplete == 0

    def test_thousands_of_flows_grow_the_flow_arrays(self):
        """One-cell flows at high load outrun the initial per-flow
        arrays; FCTs still match the object switch flow for flow."""
        def build():
            return FlowTraffic(4, 0.9, sizes=SizeDist.fixed(1), seed=3)

        fast = run_fastpath(4, 0.9, 600, scheduler="islip", iterations=4,
                            sources=[build()], drain_slots=200)
        reference = CrossbarSwitch(4, ISLIPScheduler(iterations=4)).run(
            WindowedSource(build(), 600), slots=800
        )
        assert fast.fct.count > 1500
        assert fast.fct.observations() == reference.fct.observations()

    def test_departure_from_an_empty_voq_raises(self):
        shadow = ScenarioArrivals(2, [_ScriptedFlows(2, [(0, 0, 1, 5)])], 4)
        shadow.slot_cells()
        one = np.array([0])
        shadow.on_departures(one, one, np.array([1]), 0)
        with pytest.raises(IndexError, match="no eligible flow"):
            shadow.on_departures(one, one, np.array([1]), 1)

    def test_out_of_range_port_raises(self):
        shadow = ScenarioArrivals(2, [_ScriptedFlows(2, [(0, 0, 2, 5)])], 4)
        with pytest.raises(ValueError, match="output port"):
            shadow.slot_cells()

    def test_cell_of_an_unrecorded_flow_raises(self):
        source = _ScriptedFlows(2, [(0, 0, 1, 5)])
        source.flow_records().clear()
        with pytest.raises(KeyError):
            ScenarioArrivals(2, [source], 4).slot_cells()

    def test_flow_changing_its_voq_raises(self):
        source = _ScriptedFlows(2, [(0, 0, 1, 5), (1, 1, 1, 5)])
        with pytest.raises(ValueError, match="moved a flow"):
            ScenarioArrivals(2, [source], 4).slot_cells()

    def test_nothing_is_generated_past_the_arrival_slots(self):
        source = get_scenario("websearch-incast").build_source(1)
        shadow = ScenarioArrivals(source.ports, [source], 300)
        for _ in range(300):
            shadow.slot_cells()
        twin = get_scenario("websearch-incast").build_source(1)
        for slot in range(300):
            twin.arrivals(slot)
        assert source.flow_records() == twin.flow_records()


class TestCompiledPath:
    def test_scalar_arrivals_is_never_called(self, monkeypatch):
        """The compiled path is the path: no per-cell fallback."""

        def forbidden(self, slot):
            raise AssertionError("run_fastpath called FlowTraffic.arrivals")

        monkeypatch.setattr(FlowTraffic, "arrivals", forbidden)
        result = _run()
        assert result.fct.count > 0

    def test_uniform_source_matches_the_object_compat_stream(self):
        """sources=[UniformTraffic] is arrival_seeds= by another door."""
        common = dict(replicas=2, scheduler="islip", seed=4, drain_slots=100,
                      warmup=20, warmup_mode="arrival")
        by_source = run_fastpath(
            8, 0.6, 300,
            sources=[UniformTraffic(8, load=0.6, seed=s) for s in (5, 6)], **common,
        )
        by_seed = run_fastpath(8, 0.6, 300, arrival_seeds=[5, 6], **common)
        for name in ("offered_cells", "carried_cells", "backlog_integral",
                     "arrivals_by_input", "departures_by_output",
                     "delay_cells", "delay_integral"):
            assert (getattr(by_source, name) == getattr(by_seed, name)).all(), name

    def test_several_cells_on_one_input_in_one_slot(self):
        """A trace may burst past line rate; counts and the shadow take
        the slot's cells for one VOQ one at a time."""
        cells = [(0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 1, 2), (0, 0, 0, 3),
                 (1, 0, 1, 2), (2, 1, 1, 4)]
        trace = TraceTraffic.from_script(2, [
            (slot, i, Cell(flow_id=flow_id, output=j)) for slot, i, j, flow_id in cells
        ])
        common = dict(replicas=1, scheduler="islip", iterations=4, seed=0,
                      drain_slots=20, check=True)
        plain = run_fastpath(2, 0.5, 3, sources=[trace], **common)
        assert plain.fct is None
        assert plain.offered_cells.tolist() == [6]
        assert plain.arrivals_by_input.tolist() == [[5, 1]]
        assert plain.departures_by_output.tolist() == [[1, 5]]
        assert plain.final_backlog.tolist() == [0]

        flows = run_fastpath(2, 0.5, 3, sources=[_ScriptedFlows(2, cells)], **common)
        switch = CrossbarSwitch(2, ISLIPScheduler(iterations=4))
        reference = switch.run(
            WindowedSource(_ScriptedFlows(2, cells), 3), slots=23
        )
        assert flows.backlog_integral.tolist() == plain.backlog_integral.tolist()
        assert flows.fct.observations() == reference.fct.observations()
        assert flows.fct.count == 4
