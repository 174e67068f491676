"""Fig. 2: the anatomy of PIM on a 4 x 4 request pattern.

Figure 2 walks one example: requests are made, each output grants one
requester, each input accepts one grant, and a second iteration adds
the pairs the first left open, after which the match is maximal.  The
pattern here (numbered from 0) has six requests: input 0 asks for
outputs 0 and 1, inputs 1 and 2 for output 1, and input 3 for outputs 1
and 3.

**Derivation.**  Outputs 0 and 3 each have one requester and grant it;
output 1 grants one of its four requesters, each with probability 1/4.
So iteration 1 issues exactly 3 grants.

- Output 1 grants input 1 or 2 (probability 1/2): each input holds one
  grant and accepts it; 3 pairs, maximal after one iteration.
- Output 1 grants input 0 (1/4): input 0 holds grants from outputs 0 and
  1 and accepts each with probability 1/2.  Accepting output 0 leaves
  output 1 to inputs 1 and 2 in iteration 2: 3 pairs.  Accepting output
  1 leaves output 0 with no unmatched requester: 2 pairs, maximal.
- Output 1 grants input 3 (1/4): the same with outputs 3 and 1.

So P(iteration 1 matches 3 pairs) = 1/2, P(the final match has 2 pairs)
= 1/8 + 1/8 = 1/4, and no trial needs a third iteration.

**Sample.**  ``BatchPIMScheduler(64, 4, iterations=None, seed=2)``, the
kernel the fast paths run, fed the pattern in all 64 replicas for 32
slots: 2,048 trials.  Random accept keeps no state across slots and the
replicas draw independent keys, so a replica's 32 trials are i.i.d. and
the 64 replica means are i.i.d. samples.

**Exact, on every trial.**  Iteration 1 issues 3 grants per replica
(the kernel's ``pim_iteration`` event pools them: 3 x 64), the final
match is legal and maximal, and no slot runs a third round.

**Statistical.**  H0: P(iteration-1 size = 3) = 1/2, and H0: P(final
size = 2) = 1/4.  Each two-sided at 99.9 %: the test passes when
``|mean - p| <= t * s / sqrt(64)`` (t = 3.4518, the 0.9995 quantile of
Student's t at 63 d.o.f., from ``_stats``).
"""

import numpy as np

from repro.core.pim import BatchPIMScheduler
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink

from ._stats import half_width

PORTS = 4
REPLICAS = 64
SLOTS = 32


def figure2_requests() -> np.ndarray:
    requests = np.zeros((PORTS, PORTS), dtype=bool)
    requests[0, [0, 1]] = True
    requests[[1, 2], 1] = True
    requests[3, [1, 3]] = True
    return requests


def test_fig2_anatomy():
    kernel = BatchPIMScheduler(REPLICAS, PORTS, iterations=None, seed=2)
    probe = Probe(InMemorySink())
    kernel.attach_probe(probe)
    requests = np.repeat(figure2_requests()[None], REPLICAS, axis=0)
    first = np.zeros((SLOTS, REPLICAS))
    final = np.zeros((SLOTS, REPLICAS))
    for slot in range(SLOTS):
        probe.begin_slot(slot, arrivals=int(requests.sum()))
        match = kernel.schedule(requests)
        rounds = probe.sink.of_kind("pim_iteration")
        assert rounds[0].grants == 3 * REPLICAS
        assert kernel.last_cumulative_sizes.shape[1] <= 2
        assert kernel.last_completed.all()
        matched_in = match >= 0
        matched_out = np.zeros_like(matched_in)
        replica, source = np.nonzero(matched_in)
        matched_out[replica, match[replica, source]] = True
        assert requests[replica, source, match[replica, source]].all()
        assert (matched_out.sum(axis=1) == matched_in.sum(axis=1)).all()
        open_pairs = requests & ~matched_in[:, :, None] & ~matched_out[:, None, :]
        assert not open_pairs.any()
        first[slot] = kernel.last_cumulative_sizes[:, 0]
        final[slot] = matched_in.sum(axis=1)
        probe.sink.clear()
    for name, hits, p in [
        ("iteration 1 matches 3", first == 3, 1 / 2),
        ("final size 2", final == 2, 1 / 4),
    ]:
        rates = hits.mean(axis=0)
        mean, half = rates.mean(), half_width(rates, 0.9995)
        assert abs(mean - p) <= half, (name, mean, half)
