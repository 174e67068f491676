"""Section 3.3: PIM is insensitive to how randomness is approximated.

"Our simulations indicate that the number of iterations needed by
parallel iterative matching is relatively insensitive to the technique
used to approximate randomness."  The hardware approximation here is
:func:`repro.hardware.random_select.lfsr_pim_rng`: one 16-bit LFSR per
port, with the modulo bias of reducing its state to a choice.  The
claim: on the batched kernel, PIM run to completion on LFSR keys needs
the same iterations as on PCG64 keys, and finds the same share of its
matches in the first iteration.

**Sample.**  64 batches.  Batch b draws 32 request patterns, 16 x 16,
each pair requested with probability 0.5 (generator seed ``[33, b]``),
and runs them through two ``BatchPIMScheduler(32, 16,
iterations=None)`` kernels: one on PCG64 (seed 3400 + b), and one
LFSR kernel (``lfsr_pim_rng(seed=0xBEEF)``) that runs on across the
batches, as the hardware's registers would.  A pattern's iterations are
its resolving iterations, read from ``last_cumulative_sizes`` (up to
and including the last that added a pair).  A batch's statistics are
its mean iterations and its first-iteration share: pairs matched in
iteration 1 over pairs matched in all, in percent.  Each batch's
statistic is LFSR minus PCG64, on the same patterns; the 64 differences
are treated as i.i.d.

**Test.**  Equivalence at the margins the paper's wording leaves: H0
that the mean difference in iterations lies outside (-0.1, 0.1), and
H0 that the mean difference in first-iteration share lies outside
(-1.5, 1.5) points.  Two-sided at 99.9 %: each is rejected, and the
test passes, when ``mean +- t * s / 8`` (t = 3.4518, the 0.9995
quantile of Student's t at 63 d.o.f., from ``_stats``) lies inside.
"""

import numpy as np

from repro.core.pim import BatchPIMScheduler
from repro.hardware.random_select import lfsr_pim_rng

from ._stats import half_width

PORTS = 16
BATCHES = 64
PATTERNS = 32
DENSITY = 0.5
#: Equivalence margins: iterations, and first-iteration share in points.
ITERATION_MARGIN = 0.1
SHARE_MARGIN = 1.5


def batch_statistics(kernel: BatchPIMScheduler, requests: np.ndarray):
    """Mean resolving iterations and first-iteration share (%) of a batch."""
    kernel.schedule(requests)
    sizes = kernel.last_cumulative_sizes
    grew = np.diff(sizes, axis=1, prepend=0) > 0
    iterations = sizes.shape[1] - np.argmax(grew[:, ::-1], axis=1)
    return iterations.mean(), 100.0 * sizes[:, 0].sum() / sizes[:, -1].sum()


def test_lfsr_keys_need_the_same_iterations_as_pcg64():
    lfsr = BatchPIMScheduler(
        PATTERNS, PORTS, iterations=None, rng=lfsr_pim_rng(seed=0xBEEF)
    )
    gaps = []
    for batch in range(BATCHES):
        requests = np.random.default_rng([33, batch]).random(
            (PATTERNS, PORTS, PORTS)
        ) < DENSITY
        pcg64 = BatchPIMScheduler(
            PATTERNS, PORTS, iterations=None, seed=3400 + batch
        )
        gaps.append(
            np.subtract(batch_statistics(lfsr, requests), batch_statistics(pcg64, requests))
        )
    gaps = np.array(gaps)
    mean, half = gaps.mean(axis=0), half_width(gaps, 0.9995)
    for k, margin in enumerate((ITERATION_MARGIN, SHARE_MARGIN)):
        assert -margin < mean[k] - half[k] and mean[k] + half[k] < margin, (
            k, mean[k], half[k],
        )
