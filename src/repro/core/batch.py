"""The ``BatchScheduler`` protocol: batched ``(B, N, N)`` matching kernels.

The fast-path simulators (:mod:`repro.sim.fastpath`,
:mod:`repro.sim.fastpath_cbr`, :mod:`repro.sim.fastpath_network`)
advance B independent switch replicas per step and hand the scheduler
one ``(B, N, N)`` boolean request batch.  Historically the only such
kernel was :class:`repro.core.pim.BatchPIMScheduler`; this module
extracts the contract it implemented so the scheduler zoo (iSLIP, LQF,
wavefront, QPS-r) can plug into every fast path interchangeably:

- ``schedule(requests, occupancy=None)`` maps a ``(B, N, N)`` request
  batch to a ``(B, N)`` int64 match array (``match[b, i]`` is the
  output matched to input i of replica b, -1 when unmatched).  Every
  matched pair is backed by a request, no input exceeds one match, no
  output exceeds ``output_capacity``.
- **Masked requests**: callers may pass any subset of the "occupied
  VOQ" matrix -- the CBR gap-filler masks out inputs/outputs already
  reserved this slot and the network fast path masks outputs whose
  downstream buffer is full.  Kernels must never match outside the
  request mask.
- **Occupancy-aware kernels** (``needs_occupancy = True``, e.g. LQF
  and QPS-r) additionally receive the ``(B, N, N)`` queue-depth counts;
  entries outside the request mask are ignored (callers may pass the
  raw counts -- the base class masks them).
- ``reset()`` restores *all* cross-slot state (pointers, RNG streams)
  to the as-constructed state so a rerun replays the first run draw
  for draw -- the reset/rerun contract the object schedulers honor.
- ``attach_probe(probe)`` accepts a :class:`repro.obs.probe.Probe`;
  kernels with per-slot iteration structure feed the
  ``pim.iterations`` histogram via ``probe.slot_iterations``.

**B = 1 parity convention.**  Each batched kernel is draw-for-draw and
pointer-for-pointer identical to its object scheduler at ``B == 1``
with a shared seed: numpy ``Generator`` streams consume by element
count, so a ``(1, N, N)`` uniform draw yields the same numbers as the
object kernel's ``(N, N)`` draw.  The differential harness
(:func:`repro.check.differential.backend_parity`) exploits this to
demand *slot-exact* trace equality between the object backend and the
fast path for every non-PIM kernel.

:func:`build_batch_scheduler` / :func:`build_object_scheduler` are the
name registry the fast paths, the CLI and the differential harness
share, so "the same scheduler on both backends" is spelled identically
everywhere.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BATCH_SCHEDULERS",
    "BatchScheduler",
    "as_request_batch",
    "build_batch_scheduler",
    "build_object_scheduler",
    "pointer_offsets",
    "replay_generator",
    "resolve_generator",
]

#: Registry names accepted by :func:`build_batch_scheduler` (and, with
#: the same spelling, by :func:`build_object_scheduler`, the fast-path
#: ``scheduler=`` parameters and the CLI ``--scheduler`` flags).
BATCH_SCHEDULERS = ("pim", "islip", "lqf", "wavefront", "qps")


def as_request_batch(requests: np.ndarray) -> np.ndarray:
    """Validate and normalize a (B, N, N) boolean request batch.

    A batch that is already boolean is returned as is, not copied:
    kernels treat ``requests`` as read-only.
    """
    batch = np.asarray(requests).astype(bool, copy=False)
    if batch.ndim != 3 or batch.shape[1] != batch.shape[2]:
        raise ValueError(f"expected (B, N, N) requests, got shape {batch.shape}")
    return batch


@lru_cache(maxsize=None)
def pointer_offsets(ports: int) -> np.ndarray:
    """The rotating-priority table ``table[p, x] = (x - p) % ports``.

    Round-robin arbiters pick the candidate with the smallest offset
    past their pointer.  The offsets depend on the pointer value alone,
    so ``pointer_offsets(n)[pointers]`` gathers, for a ``(B, N)``
    pointer array, the ``(B, N, N)`` cube ``(x - pointers[b, k]) % n``
    (x along the last axis) without redoing the modulo every
    iteration.  The (N, N) int64 table is cached per ``ports`` and
    read-only, since every kernel shares it.
    """
    ports_range = np.arange(ports)
    table = (ports_range[None, :] - ports_range[:, None]) % ports
    table.flags.writeable = False
    return table


def resolve_generator(
    seed: Optional[int], rng, component: str
) -> Tuple[object, Tuple[str, object]]:
    """Resolve the ``(seed, rng)`` constructor convention to a generator.

    Returns ``(generator, replay_token)``.  ``rng`` wins when both are
    given; ``seed=None`` falls back to the deterministic per-component
    stream of the :mod:`repro.sim.rng` default-seed policy.  The token
    is what :func:`replay_generator` needs to restore the stream in
    ``reset()``: the seed when we own the generator, or a deep copy of
    the injected generator's ``bit_generator.state`` (``None`` for
    non-numpy sources such as the LFSR hardware RNG, whose state we
    cannot snapshot -- ``reset()`` then leaves the stream where it is,
    and the caller owns replay).
    """
    if rng is not None:
        bit = getattr(rng, "bit_generator", None)
        state = copy.deepcopy(bit.state) if bit is not None else None
        return rng, ("state", state)
    if seed is None:
        # Imported lazily: repro.sim's package init pulls in the
        # fast-path simulators, which import this module back.
        from repro.sim.rng import default_seed

        seed = default_seed(component)
    return np.random.default_rng(seed), ("seed", int(seed))


def replay_generator(rng, token: Tuple[str, object]):
    """Restore a generator to its :func:`resolve_generator` state.

    Returns the generator to use from here on (a fresh one for
    seed-owned streams, the original -- rewound when possible -- for
    injected ones).
    """
    kind, value = token
    if kind == "seed":
        return np.random.default_rng(value)
    if value is not None:
        rng.bit_generator.state = copy.deepcopy(value)
    return rng


class BatchScheduler:
    """Base class for batched matching kernels (see module docstring).

    Subclasses implement :meth:`schedule` and :meth:`reset`; the base
    provides construction-time validation and the request/occupancy
    normalization helpers so every kernel enforces the same contract.

    Parameters
    ----------
    replicas, ports:
        Batch shape B and switch size N.
    output_capacity:
        Matches each output may take per slot (the k-grant
        generalization for replicated fabrics; inputs always accept at
        most one match per slot).
    """

    name = "batch"
    #: True for kernels whose choice depends on queue depths (LQF,
    #: QPS-r); the fast paths then pass the occupancy counts alongside
    #: the boolean request mask.
    needs_occupancy = False

    def __init__(self, replicas: int, ports: int, output_capacity: int = 1):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        if output_capacity < 1:
            raise ValueError(f"output_capacity must be >= 1, got {output_capacity}")
        self.replicas = replicas
        self.ports = ports
        self.output_capacity = output_capacity
        self._probe = None

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` (None detaches)."""
        self._probe = probe

    def _validate_batch(self, requests: np.ndarray) -> np.ndarray:
        """Normalize ``requests`` and check it matches (B, N, N)."""
        batch = as_request_batch(requests)
        if batch.shape != (self.replicas, self.ports, self.ports):
            raise ValueError(
                f"expected ({self.replicas}, {self.ports}, {self.ports}) "
                f"requests, got {batch.shape}"
            )
        return batch

    def _occupancy_counts(
        self, batch: np.ndarray, occupancy: Optional[np.ndarray]
    ) -> np.ndarray:
        """Masked (B, N, N) int64 queue depths for occupancy-aware kernels.

        ``None`` degrades to boolean occupancy (each requested VOQ
        counts one cell); otherwise the counts are validated and masked
        by the request batch, so a VOQ outside the request mask never
        contributes weight even when cells are queued behind it (the
        CBR gap-fill / blocked-output convention).
        """
        if occupancy is None:
            return batch.astype(np.int64)
        occ = np.asarray(occupancy)
        if occ.shape != batch.shape:
            raise ValueError(
                f"occupancy shape {occ.shape} does not match requests "
                f"{batch.shape}"
            )
        if (occ < 0).any():
            raise ValueError("occupancy must be non-negative")
        return np.where(batch, occ.astype(np.int64), 0)

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings for all replicas."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore all cross-slot state to the as-constructed state."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(replicas={self.replicas}, "
            f"ports={self.ports})"
        )


def build_batch_scheduler(
    name: str,
    replicas: int,
    ports: int,
    *,
    iterations: Optional[int] = None,
    accept: str = "random",
    seed: Optional[int] = None,
    rng=None,
    output_capacity: int = 1,
    track_sizes: bool = False,
) -> BatchScheduler:
    """Build a batched kernel by registry name (see ``BATCH_SCHEDULERS``).

    ``iterations`` maps onto each kernel's own notion of per-slot
    rounds: the PIM/iSLIP iteration budget (``None`` = run the slot to
    convergence) and the QPS-r round count r (``None`` = N rounds).
    Wavefront and LQF are single-pass and ignore it, as they ignore
    ``accept`` (a PIM-only policy).  ``track_sizes`` is PIM's Table 1
    diagnostic and is likewise ignored elsewhere.
    """
    # Imported lazily to avoid module-level cycles (the kernels import
    # this module for the base class).
    if name == "pim":
        from repro.core.pim import BatchPIMScheduler

        return BatchPIMScheduler(
            replicas=replicas,
            ports=ports,
            iterations=iterations,
            accept=accept,
            seed=seed,
            rng=rng,
            output_capacity=output_capacity,
            track_sizes=track_sizes,
        )
    if name == "islip":
        from repro.core.islip import BatchISLIPScheduler

        return BatchISLIPScheduler(
            replicas=replicas,
            ports=ports,
            iterations=iterations,
            output_capacity=output_capacity,
        )
    if name == "lqf":
        from repro.core.lqf import BatchLQFScheduler

        return BatchLQFScheduler(
            replicas=replicas,
            ports=ports,
            seed=seed,
            rng=rng,
            output_capacity=output_capacity,
        )
    if name == "wavefront":
        from repro.core.wavefront import BatchWavefrontScheduler

        return BatchWavefrontScheduler(
            replicas=replicas, ports=ports, output_capacity=output_capacity
        )
    if name == "qps":
        from repro.core.qps import BatchQPSScheduler

        return BatchQPSScheduler(
            replicas=replicas,
            ports=ports,
            rounds=iterations,
            seed=seed,
            rng=rng,
            output_capacity=output_capacity,
        )
    raise ValueError(
        f"unknown batch scheduler {name!r}; known: {', '.join(BATCH_SCHEDULERS)}"
    )


def build_object_scheduler(
    name: str,
    *,
    iterations: Optional[int] = None,
    accept: str = "random",
    seed: Optional[int] = None,
    rng=None,
    output_capacity: int = 1,
    ports: Optional[int] = None,
):
    """Build the object-model twin of a registry kernel.

    With the same ``seed`` (or an identically-positioned ``rng``) as
    the batched kernel, the returned scheduler is draw-for-draw
    identical to the B = 1 batch -- the pairing the slot-exact
    differential parity checks are built on.  ``ports`` is only needed
    to resolve ``iterations=None`` for iSLIP (the object scheduler
    wants a concrete budget; N iterations always reach convergence).
    """
    if name == "pim":
        from repro.core.pim import PIMScheduler

        return PIMScheduler(
            iterations=iterations,
            accept=accept,
            seed=seed,
            rng=rng,
            output_capacity=output_capacity,
        )
    if name == "islip":
        from repro.core.islip import ISLIPScheduler

        if iterations is None:
            if ports is None:
                raise ValueError("islip with iterations=None needs ports")
            iterations = ports
        return ISLIPScheduler(iterations=iterations)
    if name == "lqf":
        from repro.core.lqf import LQFScheduler

        return LQFScheduler(seed=seed, rng=rng)
    if name == "wavefront":
        from repro.core.wavefront import WavefrontScheduler

        return WavefrontScheduler()
    if name == "qps":
        from repro.core.qps import QPSScheduler

        return QPSScheduler(rounds=iterations, seed=seed, rng=rng)
    raise ValueError(
        f"unknown scheduler {name!r}; known: {', '.join(BATCH_SCHEDULERS)}"
    )
