"""Every maximal kernel's matching is at least half a maximum matching.

A matching is *maximal* when no request can be added to it: every
requested (input, output) pair has its input or its output matched.
Each edge of a maximum matching then shares an endpoint with an edge of
the maximal one, and a maximal edge has only two endpoints to share, so
a maximal matching holds at least ceil(|M*| / 2) pairs, where |M*| is
the maximum.  The Cogill-Lall delay bound for maximal schedulers
(arXiv cs/0605030) rests on this property alone; a change of draw order
or of a kernel's rounds that lost maximality would void it without any
byte pin noticing.

- **Kernels.**  The four the fast paths run to maximality:
  ``BatchPIMScheduler(iterations=None)``, ``BatchISLIPScheduler`` with
  ``iterations=None``, ``BatchLQFScheduler`` (handed random queue
  depths) and ``BatchWavefrontScheduler``.
- **Inputs.**  At N in {4, 16, 32} and request density p in
  {0.1, 0.3, 0.6, 1.0}, 8 slots of B = 64 seeded Bernoulli(p) request
  matrices, fed to one kernel in turn so pointers and streams carry
  over from slot to slot as in a run.
- **Assertion.**  For every replica of every slot: the matching is
  legal (each pair requested, each port used at most once), maximal,
  and at least ceil(|HK| / 2) pairs, where |HK| is the size of
  :func:`repro.core.maximum.hopcroft_karp` on that replica's requests.
  The property is exact, not statistical, so it is asserted on every
  sample: no interval, no tolerated misses.
"""

import numpy as np
import pytest

from repro.core.islip import BatchISLIPScheduler
from repro.core.lqf import BatchLQFScheduler
from repro.core.maximum import hopcroft_karp
from repro.core.pim import BatchPIMScheduler
from repro.core.wavefront import BatchWavefrontScheduler

REPLICAS = 64
SLOTS = 8
PORTS = (4, 16, 32)
DENSITIES = (0.1, 0.3, 0.6, 1.0)

KERNELS = {
    "pim": lambda n: BatchPIMScheduler(REPLICAS, n, iterations=None, seed=11),
    "islip": lambda n: BatchISLIPScheduler(REPLICAS, n, iterations=None),
    "lqf": lambda n: BatchLQFScheduler(REPLICAS, n, seed=12),
    "wavefront": lambda n: BatchWavefrontScheduler(REPLICAS, n),
}


def assert_maximal_half(requests: np.ndarray, match: np.ndarray) -> None:
    """Legal, maximal and at least half of Hopcroft-Karp, per replica."""
    for b in range(requests.shape[0]):
        inputs = (match[b] >= 0).nonzero()[0]
        outputs = match[b, inputs]
        assert requests[b, inputs, outputs].all(), f"replica {b}: unrequested pair"
        assert np.unique(outputs).size == outputs.size, f"replica {b}: output twice"
        open_in = np.ones(requests.shape[1], dtype=bool)
        open_out = open_in.copy()
        open_in[inputs] = False
        open_out[outputs] = False
        addable = requests[b] & open_in[:, None] & open_out[None, :]
        assert not addable.any(), f"replica {b}: not maximal"
        maximum = len(hopcroft_karp(requests[b]))
        assert 2 * inputs.size >= maximum, (
            f"replica {b}: {inputs.size} pairs against a maximum of {maximum}"
        )


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("ports", PORTS)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_maximal_matching_is_at_least_half_maximum(name, ports, density):
    kernel = KERNELS[name](ports)
    rng = np.random.default_rng([ports, int(density * 10)])
    for _ in range(SLOTS):
        requests = rng.random((REPLICAS, ports, ports)) < density
        depths = np.where(requests, rng.integers(1, 6, requests.shape), 0)
        assert_maximal_half(requests, kernel.schedule(requests, depths))
