"""Appendix A on the fast path: PIM is maximal in E[C] <= log2 N + 4/3.

Appendix A proves that the expected number of iterations C for PIM to
reach a maximal match is at most log2 N + 4/3, whatever the request
pattern, from a lemma: each iteration resolves, on average, at least
3/4 of the requests still unresolved (a request is unresolved while its
input and its output are both unmatched).  Here both are statistical
tests on the batched kernel (``BatchPIMScheduler(iterations=None)``),
the one the fast paths run, not on the object scheduler.

**The bound.**

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

**Growth.**  Sixteen times the ports cost fewer than four more
iterations: at p = 1.0, E[C] at N = 64 minus E[C] at N = 4 is below 4
(the growth of log2 N over the same range).  The samples are the two
sets of 2,048 above, paired by index; the pairs are independent, so the
2,048 differences are i.i.d.  H0: E[C64 - C4] >= 4; the test passes when
``mean + t * s / sqrt(2048)`` (t = 3.0943 as above) lies below 4.  At
the fixed seeds the mean difference is 2.69 and the upper bound 2.74.

**The 3/4 lemma.**

- **Samples.**  At each N in {4, 16, 64} and p in {0.25, 0.5, 1.0}, 64
  slots of 64 replicas run to maximality under a
  :class:`repro.obs.probe.Probe` that samples every slot.  R_k of a slot
  is the ``requests`` count of its k-th ``pim_iteration`` event: the
  unresolved requests entering iteration k, pooled over the 64
  replicas (0 once the slot has stopped).  Each slot is one sample, and
  the 64 are i.i.d.: fresh Bernoulli(p) matrices, and random accept
  carries no state across slots.
- **Statistic.**  D_k = R_{k+1} - R_k / 4 per slot.
- **Test.**  H0: E[D_k] > 0 (more than a quarter of the requests
  entering iteration k survive it on average), one-sided.  The test
  passes when ``mean + t * s / sqrt(64)`` (t = 3.2248, the 0.999 quantile
  at 63 d.o.f.) lies below 0, for every k whose mean entering count is
  at least one request per replica.  The lemma holds from every state;
  later iterations are left out only because their few requests leave
  the test without power.  At the fixed seeds 25 iterations are
  tested, the ratio of means E[R_{k+1}] / E[R_k] runs from 0.03 to
  0.14, and the largest upper bound on E[D_k] is -0.45 E[R_k] / 4.
"""

import numpy as np
import pytest

from repro.analysis.iterations import _resolving_iterations, expected_iterations_bound
from repro.core.pim import BatchPIMScheduler
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink

from ._stats import half_width

REPLICAS = 256
SLOTS = 8


def resolving_iterations(kernel, requests):
    """Per-replica resolving iterations C of one run-to-maximality slot."""
    kernel.schedule(requests)
    return [_resolving_iterations(tuple(row)) for row in kernel.last_cumulative_sizes]


def iteration_samples(ports, p):
    """The 2,048 samples of C at one (N, p), at its fixed seeds."""
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
    return samples


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("ports", [4, 8, 16, 32, 64])
def test_mean_iterations_to_maximal_is_below_the_bound(ports, p):
    samples = iteration_samples(ports, p)
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


def test_iterations_grow_less_than_log2_n_from_4_to_64_ports():
    growth = iteration_samples(64, 1.0) - iteration_samples(4, 1.0)
    upper = growth.mean() + half_width(growth, 0.999)
    assert upper < 4.0, (growth.mean(), upper)


DECAY_SLOTS = DECAY_REPLICAS = 64


def unresolved_entering(ports, p):
    """(64, K) requests entering iteration k + 1 of each slot, pooled."""
    sink = InMemorySink()
    probe = Probe(sink)
    kernel = BatchPIMScheduler(
        DECAY_REPLICAS, ports, iterations=None, seed=ports + 1, track_sizes=False
    )
    kernel.attach_probe(probe)
    traffic = np.random.default_rng(7000 + 1000 * ports + int(100 * p))
    for slot in range(DECAY_SLOTS):
        probe.begin_slot(slot)
        kernel.schedule(traffic.random((DECAY_REPLICAS, ports, ports)) < p)
    events = [e for e in sink.events if e.kind == "pim_iteration"]
    # One column past the longest slot: nothing is left to enter it.
    counts = np.zeros((DECAY_SLOTS, max(e.iteration for e in events) + 1))
    for e in events:
        assert e.replicas == DECAY_REPLICAS
        counts[e.slot, e.iteration - 1] = e.requests
    return counts


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("ports", [4, 16, 64])
def test_each_iteration_leaves_at_most_a_quarter_unresolved(ports, p):
    counts = unresolved_entering(ports, p)
    cells = DECAY_REPLICAS * ports * ports
    assert counts[:, 0].mean() == pytest.approx(cells * p, rel=0.05)
    tested = 0
    for k in range(counts.shape[1] - 1):
        entering = counts[:, k]
        if entering.mean() < DECAY_REPLICAS:
            break
        surplus = counts[:, k + 1] - entering / 4.0
        upper = surplus.mean() + half_width(surplus, 0.999)
        assert upper < 0.0, (k + 1, counts[:, k + 1].mean() / entering.mean(), upper)
        tested += 1
    assert tested >= 1
