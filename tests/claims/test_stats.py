"""The tabled t quantiles behind every claim's confidence bound."""

import math

import numpy as np
import pytest

from ._stats import T_QUANTILES, half_width


def t_cdf(x: float, dof: int, points: int = 200_001) -> float:
    """Student's t cdf at ``x >= 0``: one half plus Simpson's rule for
    the density on [0, x] over ``points`` (odd) nodes."""
    grid = np.linspace(0.0, x, points)
    log_scale = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)
    log_scale -= 0.5 * math.log(dof * math.pi)
    density = np.exp(log_scale - (dof + 1) / 2 * np.log1p(grid * grid / dof))
    odd, even = density[1:-1:2].sum(), density[2:-1:2].sum()
    simpson = density[0] + density[-1] + 4 * odd + 2 * even
    return 0.5 + x / (points - 1) / 3 * simpson


def test_t_cdf_matches_the_closed_forms():
    # One degree of freedom is Cauchy; two have cdf 1/2 + x / (2 sqrt(2 + x^2)).
    assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)
    assert t_cdf(3.0, 2) == pytest.approx(0.5 + 3 / (2 * math.sqrt(11)), abs=1e-12)


@pytest.mark.parametrize("key", sorted(T_QUANTILES))
def test_each_quantile_is_rounded_up_once_by_the_integrated_density(key):
    quantile, dof = key
    tabled = T_QUANTILES[key]
    assert t_cdf(tabled, dof) >= quantile
    assert t_cdf(tabled - 1e-4, dof) < quantile


@pytest.mark.parametrize("key", sorted(T_QUANTILES))
def test_each_quantile_is_rounded_up_once(key):
    stats = pytest.importorskip("scipy.stats")
    exact = stats.t.ppf(*key)
    assert exact <= T_QUANTILES[key] < exact + 1e-4


def test_half_width_reads_the_quantile_at_n_minus_one_degrees():
    samples = np.arange(128.0).reshape(64, 2)
    want = 3.4518 * samples.std(axis=0, ddof=1) / 8.0
    assert np.array_equal(half_width(samples, 0.9995), want)
    assert half_width(samples[:, 0], 0.999) == 3.2248 * samples[:, 0].std(ddof=1) / 8.0
    with pytest.raises(KeyError):  # no quantile tabled at 9 d.o.f.
        half_width(samples[:10], 0.999)
