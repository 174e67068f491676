"""Tests for the head-of-line saturation analysis."""

import math

import pytest

from repro.analysis.queueing import fifo_saturation_throughput, hol_saturation_limit


class TestKarolLimit:
    def test_value(self):
        assert hol_saturation_limit() == pytest.approx(2 - math.sqrt(2))
        assert hol_saturation_limit() == pytest.approx(0.586, abs=0.001)


class TestMeasuredSaturation:
    def test_larger_switch_closer_to_limit(self):
        small = fifo_saturation_throughput(4, slots=10_000, warmup=1_000, seed=1)
        large = fifo_saturation_throughput(32, slots=10_000, warmup=1_000, seed=1)
        # Convergence from above as N grows (Karol et al. 1987).
        assert large < small
