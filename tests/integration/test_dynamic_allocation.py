"""Integration: rapidly changing bandwidth needs (Section 5's motivation).

"Another [motivation] is to support applications that require
guaranteed performance and have bandwidth requirements that vary over
time, as can be the case with compressed video."

A compressed-video flow alternates between low- and high-rate scenes;
statistical matching retargets its delivered bandwidth with one
``set_allocation`` call per scene change (O(two ports) work), while
the Slepian-Duguid path would recompute frame schedules network-wide.
"""

import numpy as np
import pytest

from repro.core.statistical import StatisticalMatcher


class TestDynamicAllocation:
    def test_delivered_rate_tracks_scene_changes(self):
        """Video on (0, 0) switches between 2 and 8 units of 16 every
        2000 slots; background flows keep their 4 units throughout."""
        units = 16
        alloc = np.zeros((4, 4), dtype=np.int64)
        alloc[0, 0] = 2
        alloc[1, 1] = alloc[2, 2] = alloc[3, 3] = 4
        matcher = StatisticalMatcher(alloc, units=units, rounds=2, seed=0)

        def measure(slots):
            counts = np.zeros((4, 4))
            for _ in range(slots):
                for i, j in matcher.match():
                    counts[i, j] += 1
            return counts / slots

        low_scene = measure(4000)
        matcher.set_allocation(0, 0, 8)   # scene change: action sequence
        high_scene = measure(4000)
        matcher.set_allocation(0, 0, 2)   # back to talking heads
        back = measure(4000)

        # Delivered rate scales with the allocation (same 2-round
        # efficiency factor ~0.73-0.87 throughout).
        assert high_scene[0, 0] > 3.0 * low_scene[0, 0]
        assert back[0, 0] == pytest.approx(low_scene[0, 0], rel=0.25)
        # Background flows keep their service across the changes.
        for k in (1, 2, 3):
            assert high_scene[k, k] == pytest.approx(low_scene[k, k], rel=0.20)

    def test_allocation_changes_are_local(self):
        """A rate change must touch only the two ports involved: the
        other outputs' grant tables are bit-identical before/after."""
        alloc = np.diag([4, 4, 4, 4])
        matcher = StatisticalMatcher(alloc, units=8, seed=1)
        before = matcher._kernel.tables.grant_cdf.copy()
        matcher.set_allocation(0, 0, 6)
        after = matcher._kernel.tables.grant_cdf
        # Output 0's table changed; outputs 1-3 untouched.
        assert not np.array_equal(before[0], after[0])
        for j in (1, 2, 3):
            np.testing.assert_array_equal(before[j], after[j])

    def test_infeasible_scene_rejected_atomically(self):
        alloc = np.zeros((2, 2), dtype=np.int64)
        alloc[0, 0] = 4
        alloc[1, 0] = 4
        matcher = StatisticalMatcher(alloc, units=8, seed=2)
        with pytest.raises(ValueError, match="over-allocated"):
            matcher.set_allocation(0, 0, 5)  # output 0 would hold 9 > 8
        assert matcher.allocations[0, 0] == 4
