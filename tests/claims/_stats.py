"""Confidence bounds on the mean of i.i.d. samples, shared by the claims.

Every claim in this directory reduces its run to n independent samples
-- batch means or replica statistics -- and compares ``mean +- t * s /
sqrt(n)`` against the paper's number, with t a quantile of Student's t
at n - 1 degrees of freedom: 0.999 for a one-sided 99.9 % bound, 0.9995
for a two-sided one.  The quantiles are tabled, not computed (SciPy is
not a dependency), each rounded up once at the fourth decimal so that a
bound is never narrower than the exact one; ``test_stats.py`` checks
every entry against the t density integrated with NumPy alone, and
against SciPy where it is installed.
"""

import math

import numpy as np

#: (quantile, degrees of freedom) -> Student's t quantile, rounded up.
T_QUANTILES = {
    (0.999, 63): 3.2248,
    (0.9995, 63): 3.4518,
    (0.999, 2047): 3.0943,
    (0.9995, 31): 3.6335,
}


def half_width(samples, quantile: float) -> np.ndarray:
    """``t * s / sqrt(n)`` over the first axis of ``samples`` (n rows).

    ``quantile`` is 0.999 for a one-sided 99.9 % bound and 0.9995 for a
    two-sided one; ``t`` is read from :data:`T_QUANTILES` at n - 1
    degrees of freedom.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    t = T_QUANTILES[(quantile, n - 1)]
    return t * samples.std(axis=0, ddof=1) / math.sqrt(n)
