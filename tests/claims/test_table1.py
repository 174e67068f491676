"""Table 1 on the fast path: the share of PIM's match found within K iterations.

Table 1 of the paper reports, for a 16 x 16 switch whose every VOQ
requests independently with probability p, the percentage of the total
matches of PIM run to a maximal match that are found within K = 1..4
iterations.  Here each printed cell is a statistical test on the
batched kernel the fast paths run
(``BatchPIMScheduler(iterations=None, track_sizes=True)``).

- **Samples.**  At each p in {0.1, 0.25, 0.5, 0.75, 1.0}, 64 batches of 256
  i.i.d. Bernoulli(p) request matrices (16,384 patterns), each batch one
  ``schedule`` call whose 256 replicas are the patterns.
- **Statistic.**  A batch's share within K is the matches its patterns
  hold after K iterations over the matches they hold at the end, in
  percent (``last_cumulative_sizes``; a batch that converged in fewer
  than K iterations holds its final match).  Batches share no state --
  random accept carries none across slots -- so the 64 batch shares are
  i.i.d.
- **Test.**  H0: the mean share equals the paper's printed value, read
  to its printed precision: a window of half a unit of the last printed
  digit either side (64 -> [63.5, 64.5], 99.97 -> [99.965, 99.975]).
  Two-sided at 99.9 %: the test passes when ``mean +- t * s / sqrt(64)``
  (t = 3.4518, the 0.9995 quantile of Student's t at 63 d.o.f., from
  ``_stats``) meets the window.  At the fixed seeds the means run from
  75.25 / 97.58 / 99.972 / 100.000 at p = 0.25 to 64.41 / 88.21 /
  97.26 / 99.881 at p = 1.0; the closest call is p = 0.75, K = 4:
  99.962 +- 0.013 against [99.965, 99.975].
- **The sparse row.**  The paper prints p = 0.10 for K = 1..3 only (87,
  99.8, 100; K = 4 is blank), so that row is three cells under the same
  seed rule and windows.  H0 per cell: the mean share is 87, 99.8 and
  100 to the printed precision.  Written before the run, from a probe
  of the same kernel: 87.10 +- 0.26, 99.75 +- 0.05 and 100.0, all
  inside or touching their windows.  At the fixed seeds the row reads
  87.10 +- 0.26, 99.750 +- 0.048 and 100.000 +- 0: the K = 2 mean sits
  on its window's lower edge, and the bound reaches 99.798.
"""

import numpy as np
import pytest

from repro.core.pim import BatchPIMScheduler

from ._stats import half_width

PORTS = 16
BATCHES = 64
PATTERNS = 256

#: Table 1 as printed: % of the total matches found within K = 1..4
#: (K = 1..3 at p = 0.10, whose K = 4 cell the paper leaves blank).
PAPER = {
    0.1: ("87", "99.8", "100"),
    0.25: ("75", "97.6", "99.97", "100"),
    0.5: ("69", "93", "99.6", "99.997"),
    0.75: ("66", "90", "98.6", "99.97"),
    1.0: ("64", "88", "97", "99.9"),
}


def window(printed: str):
    """The values that print as ``printed``: +- half a unit of its last digit."""
    decimals = len(printed.partition(".")[2])
    half = 0.5 * 10.0**-decimals
    return float(printed) - half, float(printed) + half


def batch_shares(p: float) -> np.ndarray:
    """``(BATCHES, 4)``: each batch's % of its final match within K."""
    traffic = np.random.default_rng(int(100 * p))
    kernel = BatchPIMScheduler(
        PATTERNS, PORTS, iterations=None, seed=int(100 * p) + 1, track_sizes=True
    )
    shares = np.empty((BATCHES, 4))
    for batch in range(BATCHES):
        kernel.schedule(traffic.random((PATTERNS, PORTS, PORTS)) < p)
        assert kernel.last_completed.all()  # every pattern ran to maximality
        sizes = kernel.last_cumulative_sizes.sum(axis=0)
        within = sizes[np.minimum(np.arange(4), sizes.size - 1)]
        shares[batch] = 100.0 * within / sizes[-1]
    return shares


def test_windows_read_the_printed_precision():
    assert window("64") == (63.5, 64.5)
    assert window("99.97") == pytest.approx((99.965, 99.975))
    assert window("100") == (99.5, 100.5)


@pytest.mark.parametrize("p", sorted(PAPER))
def test_share_within_k_iterations_meets_table_1(p):
    shares = batch_shares(p)
    mean = shares.mean(axis=0)
    half = half_width(shares, 0.9995)
    for k, printed in enumerate(PAPER[p]):
        low, high = window(printed)
        assert mean[k] - half[k] <= high and mean[k] + half[k] >= low, (
            p, k + 1, printed, mean[k], half[k],
        )
