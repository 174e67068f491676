"""The tabled t quantiles behind every claim's confidence bound."""

import numpy as np
import pytest

from ._stats import T_QUANTILES, half_width


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
