"""Degenerate-input behaviour locked in across every matcher.

The fuzz harness (``repro check``) shrinks failures toward the
smallest reproducer, which is usually an empty or all-zero request
matrix -- so the N = 0 and all-zero corners must be well-defined for
every matching algorithm, not just PIM.  These tests pin the
conventions: empty matchings come back (no exceptions), and PIM's
``iterations == 0`` bookkeeping convention for slots where no round
ran.
"""

import numpy as np
import pytest

from repro.core.islip import ISLIPScheduler
from repro.core.maximum import hopcroft_karp
from repro.core.pim import PIMScheduler, pim_match
from repro.core.rrm import RRMScheduler
from repro.core.statistical import StatisticalMatcher
from repro.core.wavefront import WavefrontScheduler


def empty_matrix(n):
    return np.zeros((n, n), dtype=bool)


class TestZeroPorts:
    """N = 0: a switch with no ports schedules nothing, trivially."""

    def test_pim(self):
        result = pim_match(empty_matrix(0), np.random.default_rng(0))
        assert len(result.matching) == 0
        assert result.completed
        assert result.iterations_run == 0

    def test_islip(self):
        assert len(ISLIPScheduler().schedule(empty_matrix(0))) == 0

    def test_rrm(self):
        assert len(RRMScheduler().schedule(empty_matrix(0))) == 0

    def test_wavefront(self):
        assert len(WavefrontScheduler().schedule(empty_matrix(0))) == 0

    def test_hopcroft_karp(self):
        assert len(hopcroft_karp(empty_matrix(0))) == 0

    def test_statistical(self):
        matcher = StatisticalMatcher(np.zeros((0, 0), dtype=np.int64), units=4)
        assert len(matcher.match()) == 0


class TestAllZeroRequests:
    """No requests: every scheduler returns the empty matching."""

    N = 8

    def test_pim_iterations_zero_convention(self):
        # No requests -> no round runs -> iterations_run == 0 even
        # though cumulative_sizes keeps its (0,) sentinel.
        result = pim_match(empty_matrix(self.N), np.random.default_rng(0))
        assert len(result.matching) == 0
        assert result.completed
        assert result.iterations_run == 0
        assert tuple(result.cumulative_sizes) == (0,)

    def test_pim_scheduler(self):
        assert len(PIMScheduler().schedule(empty_matrix(self.N))) == 0

    def test_islip_scheduler_and_pointers_untouched(self):
        scheduler = ISLIPScheduler(ports=self.N)
        before = scheduler._grant_pointers.copy()
        assert len(scheduler.schedule(empty_matrix(self.N))) == 0
        assert (scheduler._grant_pointers == before).all()

    def test_rrm_scheduler(self):
        assert len(RRMScheduler().schedule(empty_matrix(self.N))) == 0

    def test_wavefront(self):
        assert len(WavefrontScheduler().schedule(empty_matrix(self.N))) == 0

    def test_hopcroft_karp(self):
        assert len(hopcroft_karp(empty_matrix(self.N))) == 0

    def test_statistical_zero_allocations(self):
        matcher = StatisticalMatcher(
            np.zeros((self.N, self.N), dtype=np.int64), units=4, fill=True
        )
        assert len(matcher.match()) == 0
        # With no queued cells either, fill has nothing to add.
        assert len(matcher.schedule(empty_matrix(self.N))) == 0


class TestTraceSummarizeHardening:
    """`repro trace summarize` exits cleanly on bad inputs."""

    def test_missing_file(self, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", "/nonexistent/trace.jsonl"]) == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_malformed_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "slot_begin"\nnot json at all\n')
        assert main(["trace", "summarize", str(path)]) == 1
        assert "malformed trace" in capsys.readouterr().err
