"""Table 1 on the fast path: the share of PIM's match found within K iterations.

Table 1 of the paper reports, for a 16 x 16 switch whose every VOQ
requests independently with probability p, the percentage of the total
matches of PIM run to a maximal match that are found within K = 1..4
iterations.  Here each printed cell is a statistical test on the
batched kernel the fast paths run
(``BatchPIMScheduler(iterations=None, track_sizes=True)``).

- **Samples.**  At each p in {0.25, 0.5, 0.75, 1.0}, 64 batches of 256
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
  (t = 3.45, the 0.9995 quantile of Student's t at 63 d.o.f.) meets the
  window.  At the fixed seeds the means run from 75.25 / 97.58 /
  99.972 / 100.000 at p = 0.25 to 64.41 / 88.21 / 97.26 / 99.881 at
  p = 1.0; the closest call is p = 0.75, K = 4: 99.962 +- 0.013
  against [99.965, 99.975].
"""

import math

import numpy as np
import pytest

from repro.core.pim import BatchPIMScheduler

PORTS = 16
BATCHES = 64
PATTERNS = 256
#: 0.9995 quantile of Student's t at BATCHES - 1 = 63 d.o.f.
T_TWO_SIDED = 3.45

#: Table 1 as printed: % of the total matches found within K = 1..4.
PAPER = {
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
    half = T_TWO_SIDED * shares.std(axis=0, ddof=1) / math.sqrt(BATCHES)
    for k, printed in enumerate(PAPER[p]):
        low, high = window(printed)
        assert mean[k] - half[k] <= high and mean[k] + half[k] >= low, (
            p, k + 1, printed, mean[k], half[k],
        )
