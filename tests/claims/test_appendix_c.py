"""Appendix C on the fast path: the statistical-matching lottery.

Appendix C proves that one round of the Section 5 lottery matches a
connection allocated X_ij of X units with probability exactly
(X_ij / X)(1 - q), q = ((X - 1) / X)^X, so every connection is
delivered the same fraction 1 - q of its allocation whatever the
pattern; and that two rounds deliver at least (1 - q)(1 + q^2) of it.
Here each is a statistical test on the batched lottery the fast paths
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
- **A third round.**  The paper finds further rounds add
  insignificantly as X grows; at finite X a third round still adds a
  little, but less than the second.  Per pattern, three rounds on another 64 batches
  (seed 3000 + b); batch b's statistic is ``(two - one) - (three -
  two)`` over its one-, two- and three-round fractions, i.i.d. across
  batches.  H0: its mean is <= 0.01.  One-sided at 99.9 %: the test
  passes when ``mean - t * s / sqrt(64)`` is above 0.01.  At the fixed
  seeds the second round adds 0.090, 0.229 and 0.096 (uniform,
  diagonal, skewed) and the third 0.052, 0.081 and 0.049; the lower
  bounds of the shortfall are 0.035, 0.144 and 0.043.
- **Other X.**  The one-round law on the uniform pattern at X = 8 (1
  unit per pair, f = 0.6564) and X = 32 (4 units, f = 0.6379), as for
  X = 16 above, on 64 batches at seed 1000 + 100 (X = 8) or 1000 + 200
  (X = 32) plus the batch.  At the fixed seeds: 0.6560 +- 0.0016 and
  0.6375 +- 0.0016.
"""

import functools

import numpy as np
import pytest

from repro.analysis.statistical_theory import single_round_fraction, two_round_fraction
from repro.sim.fastpath_statistical import match_counts

from ._stats import half_width

PORTS = 8
UNITS = 16
BATCHES = 64
LOTTERIES = 1024
#: Added to a batch's seed at the other X values of the one-round law.
SEED_OFFSET = {UNITS: 0, 8: 100, 32: 200}
#: "Less than the second": the third round's gain falls short by this.
THIRD_ROUND_MARGIN = 0.01


def allocation(pattern: str, units: int = UNITS) -> np.ndarray:
    lines = np.arange(PORTS)
    matrix = np.zeros((PORTS, PORTS), dtype=np.int64)
    if pattern == "uniform":
        matrix[:] = units // PORTS
    elif pattern == "diagonal":
        matrix[lines, lines] = units
    else:
        matrix[lines, lines] = units // 2
        matrix[lines, (lines + 1) % PORTS] = units // 4
        matrix[lines, (lines + 2) % PORTS] = units // 4
    assert (matrix.sum(axis=0) == units).all() and (matrix.sum(axis=1) == units).all()
    return matrix


@functools.lru_cache(maxsize=None)
def batch_fractions(pattern: str, rounds: int, units: int = UNITS) -> np.ndarray:
    """Per batch, the delivered fraction averaged over allocated pairs."""
    matrix = allocation(pattern, units)
    allocated = matrix > 0
    share = matrix[allocated] / units
    fractions = []
    for batch in range(BATCHES):
        counts, samples = match_counts(
            matrix, units, rounds=rounds, trials=LOTTERIES, replicas=LOTTERIES,
            seed=1000 * rounds + SEED_OFFSET[units] + batch,
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


@pytest.mark.parametrize("pattern", PATTERNS)
def test_a_third_round_adds_less_than_the_second(pattern):
    one, two, three = (batch_fractions(pattern, rounds) for rounds in (1, 2, 3))
    shortfall = (two - one) - (three - two)
    mean, half = shortfall.mean(), half_width(shortfall, 0.999)
    assert mean - half > THIRD_ROUND_MARGIN, (pattern, mean, half)


@pytest.mark.parametrize("units", [8, 32])
def test_one_round_law_holds_at_other_x(units):
    fractions = batch_fractions("uniform", 1, units)
    mean, half = fractions.mean(), half_width(fractions, 0.9995)
    expected = single_round_fraction(units)
    assert abs(mean - expected) <= half, (units, mean, half, expected)
