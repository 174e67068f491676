"""Tests for the unsynchronized-clock model and Appendix B bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbr.clock import (
    ChainResult,
    ClockModel,
    cbr_buffer_bound,
    cbr_latency_bound,
    controller_frame_slots,
    max_active_frames,
    simulate_cbr_chain,
)


def make_clock(tolerance=1e-3, switch_slots=100):
    controller = controller_frame_slots(switch_slots, tolerance)
    return ClockModel(
        slot_time=1.0,
        switch_frame_slots=switch_slots,
        controller_frame_slots=controller,
        tolerance=tolerance,
    )


class TestControllerFrameSlots:
    def test_strictly_longer_than_slowest_switch(self):
        for tol in (0.0, 1e-6, 1e-4, 1e-2):
            slots = controller_frame_slots(1000, tol)
            clock = ClockModel(1.0, 1000, slots, tol)
            assert clock.controller_frame_min > clock.switch_frame_max

    def test_zero_tolerance_minimal_padding(self):
        assert controller_frame_slots(1000, 0.0) == 1001

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            controller_frame_slots(0, 0.1)
        with pytest.raises(ValueError, match="tolerance"):
            controller_frame_slots(100, 1.0)
        with pytest.raises(ValueError, match="margin"):
            controller_frame_slots(100, 0.1, margin_slots=0)


class TestClockModel:
    def test_frame_extremes_ordered(self):
        clock = make_clock(tolerance=0.01)
        assert clock.switch_frame_min < clock.switch_frame_max
        assert clock.controller_frame_min < clock.controller_frame_max
        assert clock.switch_frame_max < clock.controller_frame_min

    def test_unpadded_controller_rejected(self):
        with pytest.raises(ValueError, match="not padded enough"):
            ClockModel(1.0, 1000, 1000, 0.001)

    def test_reservable_fraction(self):
        clock = make_clock(tolerance=1e-4, switch_slots=1000)
        # Padding costs a tiny fraction of bandwidth (Section 4).
        assert 0.99 < clock.reservable_fraction < 1.0

    def test_padding_slots(self):
        clock = make_clock()
        assert clock.padding_slots == clock.controller_frame_slots - clock.switch_frame_slots


class TestBounds:
    def test_latency_bound_formula(self):
        clock = make_clock()
        bound = cbr_latency_bound(3, clock, link_latency=5.0)
        assert bound == pytest.approx(2 * 3 * (clock.switch_frame_max + 5.0))

    def test_latency_bound_validation(self):
        clock = make_clock()
        with pytest.raises(ValueError, match="non-negative"):
            cbr_latency_bound(-1, clock, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            cbr_latency_bound(1, clock, -1.0)

    def test_buffer_bound_small_for_lan_parameters(self):
        """Appendix B: 'Four or five frames of buffers are sufficient
        for values of these parameters that are reasonable for LANs.'"""
        clock = ClockModel(
            slot_time=1.0,
            switch_frame_slots=1000,
            controller_frame_slots=controller_frame_slots(1000, 1e-4, margin_slots=5),
            tolerance=1e-4,
        )
        bound = cbr_buffer_bound(hops=5, clock=clock, link_latency=10.0)
        assert 4.0 <= bound <= 5.0

    def test_zero_drift_needs_exactly_four(self):
        clock = make_clock(tolerance=0.0)
        assert cbr_buffer_bound(3, clock, 1.0) == pytest.approx(4.0)

    def test_max_active_frames_positive(self):
        clock = make_clock()
        assert max_active_frames(4, clock, 2.0) >= 1


class TestChainSimulation:
    def test_validation(self):
        clock = make_clock()
        with pytest.raises(ValueError, match="at least one switch"):
            simulate_cbr_chain(clock, hops=0, link_latency=1.0, cells=5)
        with pytest.raises(ValueError, match="at least one cell"):
            simulate_cbr_chain(clock, hops=1, link_latency=1.0, cells=0)
        with pytest.raises(ValueError, match="rate errors"):
            simulate_cbr_chain(clock, hops=2, link_latency=1.0, cells=5, rate_errors=[0.0])
        with pytest.raises(ValueError, match="exceeds tolerance"):
            simulate_cbr_chain(
                clock, hops=1, link_latency=1.0, cells=5, rate_errors=[0.0, 0.5]
            )

    def test_latency_bound_holds_random_drift(self):
        clock = make_clock(tolerance=5e-3, switch_slots=50)
        for seed in range(20):
            result = simulate_cbr_chain(
                clock, hops=4, link_latency=3.0, cells=100, seed=seed
            )
            assert result.max_adjusted_latency() <= cbr_latency_bound(4, clock, 3.0)

    def test_latency_bound_holds_adversarial_drift(self):
        """Fast controller, alternating fast/slow switches."""
        tol = 5e-3
        clock = make_clock(tolerance=tol, switch_slots=50)
        hops = 5
        errors = [tol] + [tol if i % 2 == 0 else -tol for i in range(hops)]
        result = simulate_cbr_chain(
            clock, hops=hops, link_latency=3.0, cells=200,
            rate_errors=errors, seed=1,
        )
        assert result.max_adjusted_latency() <= cbr_latency_bound(hops, clock, 3.0)

    def test_buffer_bound_holds(self):
        tol = 5e-3
        clock = make_clock(tolerance=tol, switch_slots=50)
        hops = 5
        bound = cbr_buffer_bound(hops, clock, 3.0)
        for seed in range(10):
            result = simulate_cbr_chain(
                clock, hops=hops, link_latency=3.0, cells=200, seed=seed
            )
            assert max(result.max_buffer_occupancy) <= bound

    def test_adjusted_latency_monotone_in_active_runs(self):
        """Formula 2: within consecutive active frames adjusted latency
        strictly decreases -- check it never increases along the run."""
        clock = make_clock(tolerance=1e-3, switch_slots=50)
        result = simulate_cbr_chain(clock, hops=1, link_latency=2.0, cells=100, seed=3)
        frame = clock.switch_frame_max
        last_switch = result.hops
        for c in range(1, 100):
            gap = result.departures[last_switch][c] - result.departures[last_switch][c - 1]
            if gap <= frame + 1e-9:  # consecutive frames -> active run
                assert result.adjusted_latency(c, last_switch) < result.adjusted_latency(
                    c - 1, last_switch
                ) + 1e-9

    def test_fifo_order_preserved(self):
        clock = make_clock()
        result = simulate_cbr_chain(clock, hops=3, link_latency=1.0, cells=50, seed=0)
        for n in range(len(result.departures)):
            departures = result.departures[n]
            assert all(a < b for a, b in zip(departures, departures[1:]))

    def test_synchronized_clocks_two_frames_per_hop(self):
        """With zero drift the classic 2 frames/hop bound applies."""
        clock = make_clock(tolerance=0.0, switch_slots=50)
        result = simulate_cbr_chain(
            clock, hops=3, link_latency=0.5, cells=100,
            rate_errors=[0.0] * 4, seed=2,
        )
        bound = 2 * 3 * (clock.switch_frame_max + 0.5)
        assert result.max_adjusted_latency() <= bound


class TestAppendixBAtLanScale:
    """1000-slot frames, 100 ppm clocks, 10-slot links, 1-8 hops."""

    TOLERANCE = 1e-4
    LINK = 10.0

    def clock(self, switch_slots=1000):
        return ClockModel(
            slot_time=1.0,
            switch_frame_slots=switch_slots,
            controller_frame_slots=controller_frame_slots(
                switch_slots, self.TOLERANCE, margin_slots=5
            ),
            tolerance=self.TOLERANCE,
        )

    def test_bounds_hold_under_adversarial_and_random_drift(self):
        """Both bounds hold on every drift pattern; the latency bound
        is not vacuous (the worst case reaches past 0.3 of it) and the
        buffer bound stays at 'four or five frames'."""
        tol = self.TOLERANCE
        clock = self.clock()
        rng = np.random.default_rng(0)
        worst_ratio = 0.0
        for hops in (1, 2, 4, 8):
            latency_bound = cbr_latency_bound(hops, clock, self.LINK)
            buffer_bound = cbr_buffer_bound(hops, clock, self.LINK)
            assert buffer_bound <= 5.5
            patterns = [
                [-tol] + [tol] * hops,
                [tol] + [-tol] * hops,
                [tol] + [tol if n % 2 == 0 else -tol for n in range(hops)],
            ] + [list(rng.uniform(-tol, tol, size=hops + 1)) for _ in range(3)]
            for seed, errors in enumerate(patterns):
                result = simulate_cbr_chain(
                    clock, hops=hops, link_latency=self.LINK, cells=400,
                    rate_errors=errors, seed=seed,
                )
                assert result.max_adjusted_latency() <= latency_bound
                assert max(result.max_buffer_occupancy) <= buffer_bound
                worst_ratio = max(
                    worst_ratio, result.max_adjusted_latency() / latency_bound
                )
        assert worst_ratio > 0.3

    def test_smaller_frames_bound_latency_lower(self):
        """Section 4's trade-off: a smaller frame lowers the latency
        bound, at a coarser allocation granularity (1 / frame)."""
        frames = (125, 250, 500, 1000, 2000)
        bounds = [cbr_latency_bound(4, self.clock(f), self.LINK) for f in frames]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
