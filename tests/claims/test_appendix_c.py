"""Appendix C on the fast path: the statistical-matching lottery.

Appendix C proves that one round of the Section 5 lottery matches a
connection allocated X_ij of X units with probability exactly
(X_ij / X)(1 - q), q = ((X - 1) / X)^X, so every connection is
delivered the same fraction 1 - q of its allocation whatever the
pattern; and that two rounds deliver at least (1 - q)(1 + q^2) of it.
Here both are statistical tests on the batched lottery the fast paths
run (:func:`repro.sim.fastpath_statistical.match_counts`, no PIM fill),
at N = 8 and X = 16, where the fractions are 0.6439 and 0.7256.

- **Patterns.**  Three fully allocated shapes: uniform (2 units on
  every pair), diagonal (all 16 units on one pair per line) and skewed
  (8, 4 and 4 units on three pairs per line).
- **Samples.**  65,536 lotteries per (pattern, rounds): 64 independent
  batches of 1,024, each batch one ``match_counts`` call with its own
  seed.  A batch's statistic is the delivered fraction -- matches over
  lotteries over ``X_ij / X`` -- averaged over the allocated pairs, so
  the 64 batch means are i.i.d. whatever the correlation between pairs
  inside one lottery.
- **One round.**  H0: the mean equals ``single_round_fraction(X)``,
  two-sided at 99.9 %: the test passes when ``|mean - f| <= t * s /
  sqrt(64)`` with t = 3.4518, the 0.9995 quantile of Student's t at 63
  degrees of freedom (``_stats``).  At the fixed seeds the three means sit within
  0.0015 of 0.6439, against half-widths of 0.0017 to 0.0022.
- **Two rounds.**  H0: the mean is below ``two_round_fraction(X)``,
  one-sided at 99.9 %: the test passes when ``mean - t * s / sqrt(64)``
  (t = 3.2248, the 0.999 quantile) is above the bound.  The means are 0.734, 0.874 and
  0.740; their lower confidence bounds clear 0.7256 by 0.0073 or more.
"""

import numpy as np
import pytest

from repro.analysis.statistical_theory import single_round_fraction, two_round_fraction
from repro.sim.fastpath_statistical import match_counts

from ._stats import half_width

PORTS = 8
UNITS = 16
BATCHES = 64
LOTTERIES = 1024


def allocation(pattern: str) -> np.ndarray:
    lines = np.arange(PORTS)
    matrix = np.zeros((PORTS, PORTS), dtype=np.int64)
    if pattern == "uniform":
        matrix[:] = UNITS // PORTS
    elif pattern == "diagonal":
        matrix[lines, lines] = UNITS
    else:
        matrix[lines, lines] = UNITS // 2
        matrix[lines, (lines + 1) % PORTS] = UNITS // 4
        matrix[lines, (lines + 2) % PORTS] = UNITS // 4
    assert (matrix.sum(axis=0) == UNITS).all() and (matrix.sum(axis=1) == UNITS).all()
    return matrix


def batch_fractions(pattern: str, rounds: int) -> np.ndarray:
    """Per batch, the delivered fraction averaged over allocated pairs."""
    matrix = allocation(pattern)
    allocated = matrix > 0
    share = matrix[allocated] / UNITS
    fractions = []
    for batch in range(BATCHES):
        counts, samples = match_counts(
            matrix, UNITS, rounds=rounds, trials=LOTTERIES, replicas=LOTTERIES,
            seed=1000 * rounds + batch,
        )
        assert samples == LOTTERIES
        fractions.append((counts[allocated] / samples / share).mean())
    return np.array(fractions)


PATTERNS = ["uniform", "diagonal", "skewed"]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_one_round_delivers_exactly_one_minus_q(pattern):
    fractions = batch_fractions(pattern, rounds=1)
    mean, half = fractions.mean(), half_width(fractions, 0.9995)
    expected = single_round_fraction(UNITS)
    assert abs(mean - expected) <= half, (pattern, mean, half, expected)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_two_rounds_deliver_at_least_the_bound(pattern):
    fractions = batch_fractions(pattern, rounds=2)
    mean, half = fractions.mean(), half_width(fractions, 0.999)
    bound = two_round_fraction(UNITS)
    assert mean - half > bound, (pattern, mean, half, bound)
