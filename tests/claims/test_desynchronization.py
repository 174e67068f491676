"""Section 1: randomness desynchronizes the arbiters.

Section 1 motivates PIM's coin flips: "randomness can de-synchronize
decisions made by a large number of agents".  The deterministic
alternative is RRM, round-robin grant and accept pointers that move one
past every choice (:mod:`repro.core.rrm`).  Under symmetric load the
grant pointers fall into step, several outputs grant the same input,
and one iteration leaves most of them unmatched.  The claim: RRM with
one iteration saturates below PIM-4.

**Sample.**  ``BatchRRMScheduler(64, 16, iterations=1)`` and
``BatchPIMScheduler(64, 16, iterations=4, seed=1)`` step side by side
on common arrivals (``_coupled.coupled_crossbars``): every input
receives a cell in every slot (load 1.0), for a uniformly drawn output,
seed 1.  2,000 slots, the first 500 a warm-up.  Per replica, PIM-4's
carried cells per link per slot minus RRM-1's over the window; the
replicas share no state, so the 64 differences are i.i.d.

**Test.**  H0: the mean difference is <= 0.  One-sided at 99.9 %: the
test passes when ``mean - t * s / 8`` (t = 3.2248, the 0.999 quantile
of Student's t at 63 d.o.f., from ``_stats``) is above 0.  A pilot
run at another seed gave 0.400 for RRM-1 and 0.976 for PIM-4.
"""

from repro.core.pim import BatchPIMScheduler
from repro.core.rrm import BatchRRMScheduler

from ._coupled import coupled_crossbars
from ._stats import half_width

PORTS = 16
REPLICAS = 64
SLOTS = 2_000
WARMUP = 500


def test_rrm1_saturates_below_pim4():
    kernels = [
        BatchRRMScheduler(REPLICAS, PORTS, iterations=1),
        BatchPIMScheduler(REPLICAS, PORTS, iterations=4, seed=1),
    ]
    carried, _ = coupled_crossbars(
        lambda slot: kernels, REPLICAS, PORTS, 1.0, SLOTS, WARMUP, seed=1
    )
    rrm1, pim4 = carried / (PORTS * (SLOTS - WARMUP))
    gap = pim4 - rrm1
    lower = gap.mean() - half_width(gap, 0.999)
    assert lower > 0, (rrm1.mean(), pim4.mean(), lower)
