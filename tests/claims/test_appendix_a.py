"""Appendix A on the fast path: PIM is maximal in E[C] <= log2 N + 4/3.

Appendix A proves that the expected number of iterations C for PIM to
reach a maximal match is at most log2 N + 4/3, whatever the request
pattern.  Here the claim is a statistical test on the batched kernel
(``BatchPIMScheduler(iterations=None, track_sizes=True)``), the one the
fast paths run, not on the object scheduler.

- **Samples.**  At each N in {4, 8, 16, 32, 64} and request probability
  p in {0.5, 1.0}, 256 replicas x 8 slots = 2,048 i.i.d. Bernoulli(p)
  request matrices.  Each replica of each slot is one independent
  sample: random accept carries no state across slots or replicas.
- **Statistic.**  C of a sample is its resolving iterations, read from
  ``last_cumulative_sizes`` by the convention of
  :func:`repro.analysis.iterations._resolving_iterations`: the
  iterations up to and including the last that added a pair.
- **Test.**  H0: E[C] > log2 N + 4/3, one-sided.  H0 is rejected, and
  the test passes, when the 99.9 % upper confidence bound on the mean,
  ``mean + t * s / sqrt(2048)`` (t = 3.0943, the 0.999 quantile of
  Student's t at 2047 d.o.f., from ``_stats``), lies below
  log2 N + 4/3.  At the
  fixed seeds that upper bound runs from 1.52 (N = 4, p = 0.5) to 4.79
  (N = 64, p = 1.0), against bounds of 3.33 and 7.33.

The single-hot-output pattern (every input requests one output, the
"adversarial" case of the Appendix A bench) must need at most 2
iterations on average: the one grant resolves the whole column.
"""

import numpy as np
import pytest

from repro.analysis.iterations import _resolving_iterations, expected_iterations_bound
from repro.core.pim import BatchPIMScheduler

from ._stats import half_width

REPLICAS = 256
SLOTS = 8


def resolving_iterations(kernel, requests):
    """Per-replica resolving iterations C of one run-to-maximality slot."""
    kernel.schedule(requests)
    return [_resolving_iterations(tuple(row)) for row in kernel.last_cumulative_sizes]


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("ports", [4, 8, 16, 32, 64])
def test_mean_iterations_to_maximal_is_below_the_bound(ports, p):
    traffic = np.random.default_rng(1000 * ports + int(10 * p))
    kernel = BatchPIMScheduler(
        REPLICAS, ports, iterations=None, seed=ports, track_sizes=True
    )
    samples = np.array(
        [
            c
            for _ in range(SLOTS)
            for c in resolving_iterations(
                kernel, traffic.random((REPLICAS, ports, ports)) < p
            )
        ]
    )
    assert samples.size == REPLICAS * SLOTS
    assert kernel.last_completed.all()  # every replica ran to maximality
    upper = samples.mean() + half_width(samples, 0.999)
    bound = expected_iterations_bound(ports)
    assert upper < bound, (ports, p, samples.mean(), upper, bound)


@pytest.mark.parametrize("ports", [4, 32, 64])
def test_single_hot_output_needs_at_most_two_iterations(ports):
    hot = np.random.default_rng(ports).integers(0, ports, REPLICAS)
    requests = np.zeros((REPLICAS, ports, ports), dtype=bool)
    requests[np.arange(REPLICAS), :, hot] = True
    kernel = BatchPIMScheduler(
        REPLICAS, ports, iterations=None, seed=ports, track_sizes=True
    )
    samples = resolving_iterations(kernel, requests)
    assert np.mean(samples) <= 2.0
