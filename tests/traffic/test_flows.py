"""Tests for the flow-level traffic generator (repro.traffic.flows)."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traffic.flows import (
    FlowRecord,
    FlowTraffic,
    SizeDist,
    WindowedSource,
    arrivals_batch,
)
from repro.traffic.scenarios import SCENARIOS
from repro.traffic.trace import TraceTraffic
from repro.traffic.uniform import UniformTraffic


class TestSizeDist:
    def test_fixed(self):
        dist = SizeDist.fixed(8)
        rng = np.random.default_rng(0)
        assert dist.mean() == 8.0
        assert {dist.sample(rng) for _ in range(20)} == {8}

    def test_fixed_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SizeDist.fixed(0)

    def test_empirical_mean_and_support(self):
        dist = SizeDist.empirical([1, 10], [0.9, 0.1])
        assert dist.mean() == pytest.approx(0.9 * 1 + 0.1 * 10)
        rng = np.random.default_rng(1)
        samples = [dist.sample(rng) for _ in range(500)]
        assert set(samples) <= {1, 10}
        # 10% weight on 10: expect roughly 50 of 500 (binomial, wide net).
        big = sum(1 for s in samples if s == 10)
        assert 20 <= big <= 100

    def test_empirical_consumes_the_stream_of_generator_choice(self):
        """sample() searches one random() in the cdf by hand; it must
        stay draw-for-draw what ``rng.choice(p=)`` does (pins NumPy)."""
        sizes = [1, 2, 4, 16, 64, 256]
        weights = [0.30, 0.20, 0.20, 0.15, 0.10, 0.05]
        dist = SizeDist.empirical(sizes, weights)
        ours, numpy_rng = np.random.default_rng(11), np.random.default_rng(11)
        probs = np.array(weights) / sum(weights)
        for _ in range(5000):
            assert dist.sample(ours) == sizes[numpy_rng.choice(len(sizes), p=probs)]
        assert ours.random() == numpy_rng.random()

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            SizeDist.empirical([], [])
        with pytest.raises(ValueError):
            SizeDist.empirical([1, 2], [1.0])
        with pytest.raises(ValueError):
            SizeDist.empirical([1, 0], [0.5, 0.5])
        with pytest.raises(ValueError):
            SizeDist.empirical([1, 2], [1.0, -0.5])

    def test_pareto_samples_in_range(self):
        dist = SizeDist.pareto(alpha=1.3, min_size=2, max_size=50)
        rng = np.random.default_rng(2)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 2
        assert max(samples) <= 50
        # Heavy tail: the cap must actually be exercised sometimes.
        assert max(samples) > 20

    def test_pareto_mean_matches_samples(self):
        """mean() is the exact discretized mean; a large sample average
        must converge to it (KS-style sanity, not a strict fit test)."""
        dist = SizeDist.pareto(alpha=1.5, min_size=1, max_size=100)
        rng = np.random.default_rng(3)
        n = 40_000
        average = sum(dist.sample(rng) for _ in range(n)) / n
        assert average == pytest.approx(dist.mean(), rel=0.05)

    def test_pareto_tail_heavier_than_fixed(self):
        """Chi-square-style shape check: the discretized bounded-Pareto
        pmf from mass differences must match the empirical histogram."""
        dist = SizeDist.pareto(alpha=1.2, min_size=1, max_size=64)
        rng = np.random.default_rng(4)
        n = 30_000
        counts = {}
        for _ in range(n):
            s = dist.sample(rng)
            counts[s] = counts.get(s, 0) + 1
        # P(X = k) for the floor-clipped sampler: CDF(k+1) - CDF(k).
        def pmf(k):
            lo, hi, a = 1, 64, 1.2
            def cdf(x):
                if x <= lo:
                    return 0.0
                if x >= hi:
                    return 1.0
                return (1 - (lo / x) ** a) / (1 - (lo / hi) ** a)
            if k == hi:
                return 1.0 - cdf(hi)
            return cdf(k + 1) - cdf(k)
        chi2 = 0.0
        dof = 0
        for k in (1, 2, 3, 4, 8, 16, 64):
            expected = n * pmf(k)
            if expected < 10:
                continue
            chi2 += (counts.get(k, 0) - expected) ** 2 / expected
            dof += 1
        # chi2(7) critical value at 0.001 is ~24.3; seeded, so stable.
        assert chi2 < 25.0, f"chi2={chi2:.1f} over {dof} cells"


class TestFlowTrafficBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowTraffic(0, 0.5)
        with pytest.raises(ValueError):
            FlowTraffic(4, 1.0)
        with pytest.raises(ValueError):
            FlowTraffic(4, 0.5, process="nope")
        with pytest.raises(ValueError):
            FlowTraffic(4, 0.5, matrix="nope")
        with pytest.raises(ValueError):
            FlowTraffic(4, 0.5, matrix="incast", fanin=4)  # needs fanin < N

    def test_infeasible_hotspot_load_rejected(self):
        # Hot output share = 0.5 + 0.5/4 = 0.625; load 0.5 over 4 ports
        # offers 4*0.5*0.625 = 1.25 cells/slot to one output.
        with pytest.raises(ValueError, match="infeasible workload"):
            FlowTraffic(4, 0.5, matrix="hotspot", hot_fraction=0.5)

    def test_at_most_one_cell_per_input_per_slot(self):
        traffic = FlowTraffic(4, 0.6, sizes=SizeDist.fixed(4), seed=0)
        for slot in range(400):
            inputs = [i for i, _ in traffic.arrivals(slot)]
            assert len(inputs) == len(set(inputs))

    def test_deterministic_under_fixed_seed(self):
        def trace(seed):
            t = FlowTraffic(8, 0.5, matrix="incast", fanin=3, seed=seed)
            return [
                [(i, c.flow_id, c.output, c.seqno) for i, c in t.arrivals(s)]
                for s in range(200)
            ]

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_offered_load_calibrated(self):
        """Long-run offered load must approach the requested load."""
        load, ports, slots = 0.5, 8, 12_000
        traffic = FlowTraffic(
            ports, load, sizes=SizeDist.pareto(1.5, 1, 50), seed=1
        )
        cells = sum(len(traffic.arrivals(s)) for s in range(slots))
        measured = cells / (slots * ports)
        assert measured == pytest.approx(load, rel=0.1)

    def test_flow_records_consistent_with_cells(self):
        traffic = FlowTraffic(4, 0.4, sizes=SizeDist.fixed(3), seed=2)
        seen = {}
        for slot in range(300):
            for i, cell in traffic.arrivals(slot):
                seen.setdefault(cell.flow_id, []).append((slot, i, cell.seqno))
        records = traffic.flow_records()
        for fid, emissions in seen.items():
            record = records[fid]
            assert isinstance(record, FlowRecord)
            # Round-robin injection can delay the first cell past the
            # flow's start slot, never the other way round.
            assert record.start_slot <= emissions[0][0]
            assert len(emissions) <= record.size
            # seqnos are 0..k-1 in order, single input port.
            assert [e[2] for e in emissions] == list(range(len(emissions)))
            assert len({e[1] for e in emissions}) == 1


class TestMatrices:
    def test_incast_groups_share_destination_distinct_sources(self):
        traffic = FlowTraffic(8, 0.4, matrix="incast", fanin=4,
                              sizes=SizeDist.fixed(2), seed=3)
        records = {}
        for slot in range(400):
            traffic.arrivals(slot)
        records = traffic.flow_records()
        by_start = {}
        for record in records.values():
            by_start.setdefault(record.start_slot, []).append(record)
        # A slot with exactly ``fanin`` flows holds exactly one group
        # (groups are atomic); slots with multiples hold several groups
        # whose sources may legitimately collide with each other.
        groups = [g for g in by_start.values() if len(g) == 4]
        assert groups, "expected at least one isolated incast group"
        for group in groups:
            dsts = {r.dst for r in group}
            srcs = [r.src for r in group]
            assert len(dsts) == 1, "fan-in group must share one destination"
            assert len(set(srcs)) == len(srcs), "sources must be distinct"
            assert dsts.pop() not in srcs

    def test_permutation_is_conflict_free(self):
        traffic = FlowTraffic(8, 0.7, matrix="permutation",
                              sizes=SizeDist.fixed(8), seed=4)
        for slot in range(300):
            traffic.arrivals(slot)
        dst_of_src = {}
        for record in traffic.flow_records().values():
            dst_of_src.setdefault(record.src, set()).add(record.dst)
        for dsts in dst_of_src.values():
            assert len(dsts) == 1
        all_dsts = [next(iter(d)) for d in dst_of_src.values()]
        assert len(set(all_dsts)) == len(all_dsts)

    def test_permutation_churn_redraws(self):
        traffic = FlowTraffic(8, 0.7, matrix="permutation", churn_every=50,
                              sizes=SizeDist.fixed(4), seed=5)
        for slot in range(400):
            traffic.arrivals(slot)
        pairs = {(r.src, r.dst) for r in traffic.flow_records().values()}
        srcs_with_multiple = sum(
            1 for s in range(8)
            if len({d for (src, d) in pairs if src == s}) > 1
        )
        assert srcs_with_multiple > 0, "churn never re-drew the permutation"

    def test_hotspot_concentrates_on_hot_port(self):
        traffic = FlowTraffic(8, 0.2, matrix="hotspot", hot_port=2,
                              hot_fraction=0.5, sizes=SizeDist.fixed(2),
                              seed=6)
        for slot in range(2000):
            traffic.arrivals(slot)
        records = list(traffic.flow_records().values())
        hot = sum(1 for r in records if r.dst == 2)
        # Expected share: 0.5 + 0.5/8 = 0.5625 of flows.
        assert hot / len(records) > 0.4

    def test_skewed_zipf_ranks_outputs(self):
        traffic = FlowTraffic(8, 0.25, matrix="skewed", zipf_s=1.0, seed=7)
        cells_to = [0] * 8
        for slot in range(4000):
            for _, cell in traffic.arrivals(slot):
                cells_to[cell.output] += 1
        assert cells_to[0] == max(cells_to)
        assert cells_to[0] > 2 * cells_to[7]


class TestOnOff:
    def test_onoff_burstier_than_poisson(self):
        """Index of dispersion of per-slot cell counts: ON/OFF must be
        clearly over-dispersed relative to Poisson at the same load."""

        def dispersion(process):
            traffic = FlowTraffic(
                8, 0.5, process=process, sizes=SizeDist.fixed(4),
                burst_slots=40.0, duty=0.25, seed=8,
            )
            counts = [len(traffic.arrivals(s)) for s in range(6000)]
            mean = sum(counts) / len(counts)
            var = sum((c - mean) ** 2 for c in counts) / len(counts)
            return var / mean

        assert dispersion("onoff") > 2.0 * dispersion("poisson")


def _rows(batch):
    """A batch's cells as (slot, input, output, flow_id) tuples."""
    return list(zip(*(column.tolist() for column in batch)))


def _scalar_cells(source, slots):
    return [
        (slot, input_port, cell.output, cell.flow_id)
        for slot in range(slots)
        for input_port, cell in source.arrivals(slot)
    ]


class TestWindowedSource:
    def test_cuts_off_arrivals(self):
        inner = FlowTraffic(4, 0.4, sizes=SizeDist.fixed(2), seed=9)
        window = WindowedSource(inner, 50)
        total = sum(len(window.arrivals(s)) for s in range(100))
        after = sum(len(window.arrivals(s)) for s in range(50, 100))
        assert total > 0
        assert after == 0

    def test_forwards_reset_and_flow_records(self):
        inner = FlowTraffic(4, 0.4, sizes=SizeDist.fixed(2), seed=9)
        window = WindowedSource(inner, 30)
        first = [
            [(i, c.flow_id) for i, c in window.arrivals(s)] for s in range(30)
        ]
        assert window.flow_records() is inner.flow_records()
        window.reset()
        second = [
            [(i, c.flow_id) for i, c in window.arrivals(s)] for s in range(30)
        ]
        assert first == second
        assert window.ports == 4

    def test_batch_honours_limit(self):
        """A batch reaching past ``limit`` is cut there and leaves the
        wrapped source where ``limit`` scalar calls leave it."""
        scalar = FlowTraffic(4, 0.4, sizes=SizeDist.fixed(2), seed=9)
        cells = _scalar_cells(scalar, 50)
        inner = FlowTraffic(4, 0.4, sizes=SizeDist.fixed(2), seed=9)
        window = WindowedSource(inner, 50)
        got = _rows(window.arrivals_batch(0, 30)) + _rows(window.arrivals_batch(30, 70))
        assert got == cells
        assert _rows(window.arrivals_batch(100, 20)) == []
        assert inner.flow_records() == scalar.flow_records()
        assert inner._rng.random() == scalar._rng.random()

    @pytest.mark.parametrize("clone", [
        lambda w: pickle.loads(pickle.dumps(w)), copy.copy, copy.deepcopy,
    ])
    def test_survives_pickle_and_copy(self, clone):
        """__getattr__ used to look ``source`` up on the bare instance
        pickle/copy create, recursing until RecursionError."""
        window = WindowedSource(FlowTraffic(4, 0.4, seed=9), 30)
        twin = clone(window)
        assert (twin.ports, twin.limit) == (4, 30)
        cells = _scalar_cells(twin, 40)
        window.reset()  # a shallow copy shares the wrapped source
        assert cells == _scalar_cells(window, 40)
        with pytest.raises(AttributeError):
            twin.no_such_attribute


_BATCH_SOURCES = {name: spec.build_source for name, spec in SCENARIOS.items()}
_BATCH_SOURCES["onoff"] = lambda seed: FlowTraffic(
    8, 0.5, process="onoff", sizes=SizeDist.fixed(4), burst_slots=20.0, seed=seed
)
# Sparse enough for the Poisson look-ahead, which must stop at every
# permutation re-draw.
_BATCH_SOURCES["churn"] = lambda seed: FlowTraffic(
    8, 0.05, sizes=SizeDist.fixed(8), matrix="permutation", churn_every=37,
    seed=seed,
)


class TestArrivalsBatch:
    """arrivals_batch is arrivals, however the slots are cut up."""

    @pytest.mark.parametrize("name", sorted(_BATCH_SOURCES))
    @given(
        seed=st.integers(0, 2**16),
        cuts=st.lists(
            st.tuples(st.sampled_from([1, 2, 5, 63, 64, 65, 130, 400]), st.booleans()),
            min_size=1, max_size=12,
        ),
    )
    def test_equals_scalar_under_any_split(self, name, seed, cuts):
        build = _BATCH_SOURCES[name]
        batched = build(seed)
        got, slot = [], 0
        for length, as_batch in cuts:
            if as_batch:
                got += _rows(batched.arrivals_batch(slot, length))
            else:
                got += [
                    (s, i, cell.output, cell.flow_id)
                    for s in range(slot, slot + length)
                    for i, cell in batched.arrivals(s)
                ]
            slot += length
        scalar = build(seed)
        assert got == _scalar_cells(scalar, slot)
        assert batched.flow_records() == scalar.flow_records()
        assert batched.pending_cells() == scalar.pending_cells()
        # Same position in the stream, same injection state: the next
        # slot, and the draw after it, agree.
        assert _rows(batched.arrivals_batch(slot, 1)) == [
            (slot, i, cell.output, cell.flow_id)
            for i, cell in scalar.arrivals(slot)
        ]
        assert batched._rng.random() == scalar._rng.random()

    def test_scalar_cells_carry_on_after_a_batch(self):
        """seqno state is shared: scalar cells after a batch continue
        each flow's numbering."""
        batched = SCENARIOS["websearch-incast"].build_source(3)
        scalar = SCENARIOS["websearch-incast"].build_source(3)
        batched.arrivals_batch(0, 200)
        for slot in range(200):
            scalar.arrivals(slot)
        for slot in range(200, 260):
            assert [
                (i, c.flow_id, c.seqno) for i, c in batched.arrivals(slot)
            ] == [(i, c.flow_id, c.seqno) for i, c in scalar.arrivals(slot)]

    def test_protocol_only_sources_are_flattened(self):
        source = UniformTraffic(4, load=0.7, seed=2)
        twin = UniformTraffic(4, load=0.7, seed=2)
        assert _rows(arrivals_batch(source, 0, 50)) == _scalar_cells(twin, 50)

    def test_flattening_keeps_several_cells_per_input(self):
        from repro.switch.cell import Cell

        trace = TraceTraffic.from_script(2, [
            (1, 0, Cell(flow_id=7, output=1)),
            (1, 0, Cell(flow_id=8, output=1)),
            (3, 1, Cell(flow_id=9, output=0)),
        ])
        assert _rows(arrivals_batch(trace, 0, 5)) == [
            (1, 0, 1, 7), (1, 0, 1, 8), (3, 1, 0, 9),
        ]
        assert _rows(arrivals_batch(trace, 5, 5)) == []

