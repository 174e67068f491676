"""Regressions for the deterministic ``seed=None`` fallback policy.

Pre-fix, every ``seed=None`` constructor drew OS entropy via
``np.random.default_rng(None)``, so two identically-configured
schedulers produced different matchings and no default-seeded run was
replayable.  The policy (documented in :mod:`repro.sim.rng`) now
routes all fallbacks through ``default_seed(component)``:
deterministic per component, distinct across components, with
``RandomStreams(seed=None)`` remaining the sanctioned entropy escape
hatch.
"""

import numpy as np
import pytest

from repro.cbr.reservations import ReservationTable
from repro.core.pim import BatchPIMScheduler, PIMScheduler
from repro.core.statistical import StatisticalMatcher
from repro.sim.fastpath import run_fastpath
from repro.sim.fastpath_cbr import run_fastpath_cbr
from repro.sim.fastpath_statistical import run_fastpath_statistical
from repro.sim.rng import DEFAULT_SEED_ROOT, default_generator, default_seed, derive_seed
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow
from repro.traffic.uniform import UniformTraffic


class TestDefaultSeedDerivation:
    def test_deterministic_and_component_scoped(self):
        assert default_seed("pim") == default_seed("pim")
        assert default_seed("pim") == derive_seed(DEFAULT_SEED_ROOT, "pim")
        assert default_seed("pim") != default_seed("lqf")

    def test_default_generator_replayable(self):
        a = default_generator("anything").random(8)
        b = default_generator("anything").random(8)
        np.testing.assert_array_equal(a, b)


class TestSchedulerFallbacks:
    def test_two_default_pim_schedulers_agree(self):
        """Regression: used to differ run to run (OS entropy)."""
        requests = np.ones((8, 8), dtype=bool)
        first = PIMScheduler().schedule(requests)
        second = PIMScheduler().schedule(requests)
        assert first.pairs == second.pairs

    def test_seeded_pim_scheduler_unaffected(self):
        requests = np.ones((8, 8), dtype=bool)
        default = PIMScheduler().schedule(requests)
        seeded = PIMScheduler(seed=default_seed("pim")).schedule(requests)
        assert default.pairs == seeded.pairs

    def test_two_default_batch_schedulers_agree(self):
        requests = np.ones((3, 8, 8), dtype=bool)
        first = BatchPIMScheduler(replicas=3, ports=8).schedule(requests)
        second = BatchPIMScheduler(replicas=3, ports=8).schedule(requests)
        np.testing.assert_array_equal(first, second)

    def test_default_statistical_matcher_replayable(self):
        allocations = np.array([[2, 1], [1, 2]])
        requests = np.ones((2, 2), dtype=bool)
        runs = []
        for _ in range(2):
            matcher = StatisticalMatcher(allocations, units=4, fill=True)
            runs.append([matcher.schedule(requests).pairs for _ in range(50)])
        assert runs[0] == runs[1]


class TestTrafficFallbacks:
    def test_default_uniform_traffic_replayable(self):
        def offered(slot_count=100):
            traffic = UniformTraffic(ports=8, load=0.7)
            return [
                [(i, cell.output) for i, cell in traffic.arrivals(slot)]
                for slot in range(slot_count)
            ]

        assert offered() == offered()

    def test_explicit_seed_still_wins(self):
        default = UniformTraffic(ports=8, load=0.7)
        seeded = UniformTraffic(ports=8, load=0.7, seed=12345)
        a = [(i, c.output) for i, c in default.arrivals(0)]
        b = [(i, c.output) for i, c in seeded.arrivals(0)]
        # Not a strict guarantee slot-by-slot, but over many slots the
        # streams must diverge if the explicit seed is honoured.
        for slot in range(1, 50):
            a += [(i, c.output) for i, c in default.arrivals(slot)]
            b += [(i, c.output) for i, c in seeded.arrivals(slot)]
        assert a != b


class TestFastpathArrivalSeedFallbacks:
    """A ``None`` entry of ``arrival_seeds`` falls back as an omitted
    ``UniformTraffic`` seed does.  Regression: it used to draw OS
    entropy, so two identical runs offered different traffic."""

    def test_two_runs_agree(self):
        first, second = (
            run_fastpath(8, 0.8, 200, replicas=1, seed=0, arrival_seeds=[None])
            for _ in range(2)
        )
        np.testing.assert_array_equal(first.arrivals_by_input, second.arrivals_by_input)
        assert first.mean_delay == second.mean_delay

    def test_replica_twins_default_uniform_traffic(self):
        result = run_fastpath(
            8, 0.8, 200, replicas=1, seed=0, arrival_seeds=[None], drain_slots=200
        )
        traffic = UniformTraffic(ports=8, load=0.8)
        by_input, by_output = np.zeros((2, 8), dtype=np.int64)
        for slot in range(200):
            for i, cell in traffic.arrivals(slot):
                by_input[i] += 1
                by_output[cell.output] += 1
        assert result.final_backlog.tolist() == [0]
        assert result.arrivals_by_input[0].tolist() == by_input.tolist()
        assert result.departures_by_output[0].tolist() == by_output.tolist()

    def test_cbr_and_statistical_runs_agree(self):
        table = ReservationTable(4, 4)
        table.admit(
            Flow(flow_id=1, src=0, dst=1, service=ServiceClass.CBR, cells_per_frame=2)
        )
        cbr = [
            run_fastpath_cbr(
                table, 0.6, 100, replicas=2, vbr_arrival_seeds=[None, None]
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(cbr[0].offered_vbr, cbr[1].offered_vbr)
        allocations = np.array([[2, 1], [1, 2]])
        stat = [
            run_fastpath_statistical(allocations, 4, 0.8, 100, arrival_seeds=[None])
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            stat[0].arrivals_by_input, stat[1].arrivals_by_input
        )
