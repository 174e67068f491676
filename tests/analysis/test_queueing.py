"""Tests for the closed-form queueing references."""

import math

import pytest

from repro.analysis.queueing import (
    hol_saturation_limit,
    output_queueing_delay,
    output_queueing_mean_queue,
)
from repro.core.output_queueing import OutputQueuedSwitch
from repro.traffic.uniform import UniformTraffic


class TestOutputQueueingDelay:
    def test_validation(self):
        with pytest.raises(ValueError, match="load"):
            output_queueing_delay(1.0, 16)
        with pytest.raises(ValueError, match="ports"):
            output_queueing_delay(0.5, 0)

    def test_zero_load_zero_delay(self):
        assert output_queueing_delay(0.0, 16) == 0.0

    def test_single_port_never_queues(self):
        """N = 1: arrivals never collide, waiting time is zero."""
        assert output_queueing_delay(0.9, 1) == 0.0

    def test_monotone_in_load(self):
        delays = [output_queueing_delay(rho, 16) for rho in (0.2, 0.5, 0.8, 0.95)]
        assert delays == sorted(delays)

    def test_known_value(self):
        # rho = 0.8, N -> large: 0.8 / 0.4 / 2 = 2; x 15/16 for N=16.
        assert output_queueing_delay(0.8, 16) == pytest.approx(2.0 * 15 / 16)

    def test_littles_law_consistency(self):
        rho, n = 0.7, 8
        assert output_queueing_mean_queue(rho, n) == pytest.approx(
            rho * output_queueing_delay(rho, n)
        )

    @pytest.mark.parametrize("load", [0.3, 0.6, 0.9])
    def test_simulated_oq_switch_matches_formula(self, load):
        """The simulator lands on Karol's closed form."""
        switch = OutputQueuedSwitch(16)
        result = switch.run(
            UniformTraffic(16, load=load, seed=11), slots=30_000, warmup=3_000
        )
        assert result.mean_delay == pytest.approx(
            output_queueing_delay(load, 16), rel=0.10, abs=0.05
        )


class TestHOLSaturation:
    def test_asymptote(self):
        assert hol_saturation_limit() == pytest.approx(2 - math.sqrt(2))

    def test_small_n_values(self):
        assert hol_saturation_limit(1) == 1.0
        assert hol_saturation_limit(2) == 0.75
        assert hol_saturation_limit(4) == pytest.approx(0.6553)

    def test_decreasing_toward_asymptote(self):
        values = [hol_saturation_limit(n) for n in (2, 4, 8, 16, 64, 1024)]
        assert values == sorted(values, reverse=True)
        assert values[-1] > 2 - math.sqrt(2)

    def test_validation(self):
        with pytest.raises(ValueError, match="ports"):
            hol_saturation_limit(0)
