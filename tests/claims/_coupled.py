"""Batched crossbars driven side by side on common arrivals.

Two claims compare kernels that the fast-path registry does not pair up
-- RRM against PIM at saturation, PIM-4 against PIM run to completion
-- so they step one :class:`repro.sim.fastpath.FastpathCrossbar` per
kernel here, all fed the same slot of arrivals.  Each slot every input
receives a cell with probability ``load``, for an output drawn
uniformly (the Fig. 3 workload); the draws come from their own
generator, so every crossbar sees the same cells whatever its kernel
draws.
"""

import numpy as np

from repro.sim.fastpath import FastpathCrossbar


def coupled_crossbars(kernels, replicas, ports, load, slots, warmup, seed):
    """Step one crossbar per kernel over ``slots`` slots of common arrivals.

    ``kernels(slot)`` returns the slot's kernels, one per crossbar, in a
    fixed order: the same objects every slot for kernels that keep state
    across slots, or new ones built for the slot.

    Returns ``(carried, held)``, each ``(K, B)`` over the K crossbars and
    B replicas: cells departed in slots ``warmup..slots-1``, and the
    backlog at the end of each of those slots, summed.
    """
    crossbars = [
        FastpathCrossbar(ports, replicas, kernel) for kernel in kernels(0)
    ]
    carried = np.zeros((len(crossbars), replicas))
    held = np.zeros((len(crossbars), replicas))
    rng = np.random.default_rng(seed)
    for slot in range(slots):
        arrive = rng.random((replicas, ports)) < load
        destination = rng.integers(0, ports, (replicas, ports))
        replica, source = np.nonzero(arrive)
        cells = np.zeros((replicas, ports, ports), dtype=np.int64)
        cells[replica, source, destination[replica, source]] = 1
        for k, (crossbar, kernel) in enumerate(zip(crossbars, kernels(slot))):
            crossbar.scheduler = kernel
            departed = crossbar.step(cells)[0]
            if slot >= warmup:
                carried[k] += np.bincount(departed, minlength=replicas)
                held[k] += crossbar.occupancy.sum(axis=(1, 2))
    return carried, held
