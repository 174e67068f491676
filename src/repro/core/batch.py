"""The ``BatchScheduler`` protocol: batched ``(B, N, N)`` matching kernels.

The fast-path simulators (:mod:`repro.sim.fastpath`,
:mod:`repro.sim.fastpath_cbr`, :mod:`repro.sim.fastpath_network`)
advance B independent switch replicas per step and hand the scheduler
one ``(B, N, N)`` boolean request batch.  Historically the only such
kernel was :class:`repro.core.pim.BatchPIMScheduler`; this module
extracts the contract it implemented so the scheduler zoo (iSLIP, LQF,
wavefront, QPS-r) can plug into every fast path interchangeably, and
so Section 5's lottery can be one more kernel
(:class:`repro.sim.fastpath_statistical.BatchStatisticalMatcher`:
lottery + masked PIM fill, built from an allocation matrix rather than
a registry name):

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
- **Occupancy**: the fast paths always call ``schedule(requests,
  counts)`` with the raw ``(B, N, N)`` queue-depth counts, unmasked and
  whatever the kernel -- only requested cells are ever read, by the
  kernels that weigh them (``needs_occupancy = True``: LQF, QPS-r; the
  attribute is what the object ``CrossbarSwitch`` dispatches on), and
  the rest ignore the argument.
- **Request graph**: PIM, iSLIP, LQF and QPS-r carry a slot's
  unresolved requests as one C-ordered edge list
  (:func:`request_edges`) and resolve every per-port choice with
  :func:`line_winners`; a kernel is a key function plus that helper's
  tie rule (a line's equal keys go to its first edge).
- **Stream contract**: how far a kernel advances its stream depends
  only on the batch shape and the rounds it runs, never on who
  requests -- by one whole ``(B, N, N)`` cube per PIM grant / random
  accept of an executed iteration and per LQF slot, by one ``(B, N)``
  block per QPS-r round (proposers or not), not at all for iSLIP and
  wavefront.  Of a cube the kernel reads only the keys at its edges
  (:meth:`BatchScheduler._cube_keys`): the numbers a dense
  ``random((B, N, N))`` would have put there.  On a PCG64
  ``Generator`` only a dense round generates the cube: a sparse one
  jumps the stream from key to key, a mid-density one computes every
  key from the LCG's closed form in one vectorized pass, and both then
  leave the stream at the cube's end.
- **Stream bank**: a kernel handed a *sequence* of K generators as
  ``rng`` schedules K independent switches in one call
  (:class:`StreamBank`).  Its replica axis is K equal blocks, block k
  advances generator k alone, and by exactly what a kernel of its own
  over that block would have drawn: nothing while the block holds no
  request (an idle switch is not scheduled), otherwise PIM one block
  per grant / random accept of every round in which the block still
  has an unresolved request, LQF one block per slot, QPS-r one block
  per round of the slot.  Matches, pointers and every generator's
  state therefore equal K separate kernels' -- what lets
  :mod:`repro.sim.fastpath_network` schedule a whole fabric per call.
  Banks always draw their armed blocks densely.
  (Stacking needs no bank where nothing is drawn: iSLIP's pointers are
  per replica row already; wavefront keeps one start diagonal per
  kernel, so stacked switches turn it together, once per call.)
- ``reset()`` restores *all* cross-slot state (pointers, RNG streams)
  to the as-constructed state so a rerun replays the first run draw
  for draw -- the reset/rerun contract the object schedulers honor.
- ``attach_probe(probe)`` accepts a :class:`repro.obs.probe.Probe`;
  kernels with per-slot iteration structure feed the
  ``pim.iterations`` histogram via ``probe.slot_iterations``.

**B = 1 parity convention.**  Each object scheduler is its batched
kernel called at ``B == 1`` (QPS-r's shares the kernel's rounds), so
with a shared seed the two are draw-for-draw and pointer-for-pointer
identical.  The differential harness
(:func:`repro.check.differential.backend_parity`) exploits this to
demand *slot-exact* trace equality between the object backend and the
fast path for every kernel.

:func:`build_batch_scheduler` / :func:`build_object_scheduler` are the
name registry the fast paths, the CLI and the differential harness
share, so "the same scheduler on both backends" is spelled identically
everywhere.
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BATCH_SCHEDULERS",
    "BatchScheduler",
    "StreamBank",
    "as_request_batch",
    "build_batch_scheduler",
    "build_object_scheduler",
    "line_winners",
    "occupancy_edges",
    "replay_generator",
    "request_edges",
    "resolve_generator",
]

#: Registry names accepted by :func:`build_batch_scheduler` (and, with
#: the same spelling, by :func:`build_object_scheduler`, the fast-path
#: ``scheduler=`` parameters and the CLI ``--scheduler`` flags).
BATCH_SCHEDULERS = ("pim", "islip", "lqf", "wavefront", "qps")

#: What each way of reading a cube's keys off a PCG64 stream costs, in
#: dense cells: drawing the cube costs its cells, the scalar jump
#: ``_JUMP_BREAK_EVEN`` per key, the vectorized jump
#: ``_VECTOR_PER_KEY`` per key plus ``_VECTOR_FIXED``; the cheapest
#: runs.  Measured on a 2-vCPU x86-64 host with NumPy 2.x, as per-call
#: wall inside N = 32, B = 256 PIM-4 runs, each over that run's dense
#: cost per cell: a scalar-jumped key (one ``advance`` plus one scalar
#: ``random()``) costs 450-600 cells, a vectorized call 18-20k cells
#: plus 7-8 per key up to about 16k keys and more beyond, as its
#: temporaries outgrow the cache -- so 17 per key, which puts the
#: vector/dense edge of a 262,144-cell cube at 14k keys, below that
#: knee.  The fixed cost keeps a 16,384-cell cube (N = 16, B = 64) off
#: the vectorized jump, which costs about what its dense draw does.
_JUMP_BREAK_EVEN = 450
_VECTOR_PER_KEY = 17
_VECTOR_FIXED = 22_000

#: PCG64's 128-bit LCG multiplier (NumPy's ``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: The jump tables split k steps as k = q * _JUMP_LOW + r, r < _JUMP_LOW.
_JUMP_BITS = 8
_JUMP_LOW = 1 << _JUMP_BITS
# Every operand of the 128-bit arithmetic is a uint64: mixed with an
# int64 it would promote to float64.
_U11 = np.uint64(11)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_LOW32 = np.uint64(0xFFFFFFFF)


def as_request_batch(requests: np.ndarray) -> np.ndarray:
    """Validate and normalize a (B, N, N) boolean request batch.

    A batch that is already boolean is returned as is, not copied:
    kernels treat ``requests`` as read-only.
    """
    batch = np.asarray(requests).astype(bool, copy=False)
    if batch.ndim != 3 or batch.shape[1] != batch.shape[2]:
        raise ValueError(f"expected (B, N, N) requests, got shape {batch.shape}")
    return batch


def request_edges(batch: np.ndarray) -> np.ndarray:
    """The request graph of a (B, N, N) boolean batch as a (3, E) edge list.

    One column per request, in C order: its flat cell index, its input
    line ``b * N + i`` and its output line ``b * N + j``.  Kernels carry
    the unresolved requests in this form and filter it after each
    round, so a round costs array work per request, not per cell.  Line
    indices are congruent to the port mod N: ``(cell - p) % N`` is the
    output's offset past a pointer p, ``(input_line - p) % N`` the input's.
    """
    n = batch.shape[-1]
    cells = batch.reshape(-1).nonzero()[0]
    edges = np.empty((3, cells.size), dtype=np.intp)
    edges[0] = cells
    line = np.floor_divide(cells, n, out=edges[1])
    np.subtract(cells, (line - line // n) * n, out=edges[2])
    return edges


def occupancy_edges(
    batch: np.ndarray, occupancy: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(edges, weights)``: the request graph of an occupancy-aware kernel.

    ``weights[e] >= 1`` is the int64 queue depth of edge e's cell;
    requests for an empty VOQ are dropped.  ``None`` degrades to boolean
    occupancy (each requested VOQ counts one cell); otherwise the
    (B, N, N) counts are validated and read at the requested cells
    only, so a VOQ outside the request mask never contributes weight
    even when cells are queued behind it (the CBR gap-fill /
    blocked-output convention).
    """
    edges = request_edges(batch)
    if occupancy is None:
        return edges, np.ones(edges.shape[1], dtype=np.int64)
    occ = np.asarray(occupancy)
    if occ.shape != batch.shape:
        raise ValueError(
            f"occupancy shape {occ.shape} does not match requests {batch.shape}"
        )
    if (occ < 0).any():
        raise ValueError("occupancy must be non-negative")
    weights = occ.reshape(-1).take(edges[0]).astype(np.int64, copy=False)
    queued = weights > 0
    return edges.compress(queued, axis=1), weights.compress(queued)


def line_winners(lines: np.ndarray, keys: np.ndarray, n_lines: int) -> np.ndarray:
    """Per port line, the position of the edge holding the largest key.

    ``lines`` names which of the ``n_lines`` port lines each edge of a
    C-ordered edge list competes on (row 1 or 2 of the list), ``keys``
    the edges' **positive** keys.  Returns ascending positions into the
    list, one per line that has an edge.  A line's ties go to its first
    edge, as a dense ``argmax`` over the line would -- the tie rule every
    kernel inherits (a kernel is a key function plus this rule).
    """
    best = np.zeros(n_lines, dtype=keys.dtype)
    np.maximum.at(best, lines, keys)
    winners = (keys == best[lines]).nonzero()[0]
    if winners.size != np.count_nonzero(best):  # ties: keep first occurrences
        winners = winners[np.sort(np.unique(lines[winners], return_index=True)[1])]
    return winners


class StreamBank:
    """K generators behind one ``random(shape)``: one stream per block.

    The leading axis of every draw is K equal blocks and block k is
    filled from generator k -- with the numbers that generator's own
    ``random`` of the block's shape would have returned -- but only
    for the blocks :meth:`arm` found a request in.  The other blocks
    keep stale keys, which no kernel reads: keys are gathered at
    request edges, and an unarmed block has none.

    ``block_cells`` is the size of one block of the kernel's
    ``(K * B, N, N)`` request cube, ``B * N * N``.
    """

    def __init__(self, generators, block_cells: int):
        self.generators = tuple(generators)
        self._bounds = np.arange(len(self.generators) + 1) * block_cells
        self._armed: list = []
        self._keys = np.empty(0)
        self._blocks: list = []

    def arm(self, cells: np.ndarray) -> None:
        """Let the blocks holding one of ``cells`` draw until re-armed.

        ``cells`` are flat indices into the request cube in ascending
        order: row 0 of a C-ordered edge list.
        """
        first = cells.searchsorted(self._bounds)
        self._armed = (first[1:] != first[:-1]).nonzero()[0].tolist()

    def random(self, shape) -> np.ndarray:
        """Uniform keys of ``shape``, fresh in the armed blocks.

        The returned buffer is reused by the next call.
        """
        if self._keys.shape != shape:
            self._keys = np.zeros(shape)
            self._blocks = list(self._keys.reshape(len(self.generators), -1))
        for k in self._armed:
            self.generators[k].random(out=self._blocks[k])
        return self._keys


def _words(x: int) -> Tuple[int, int, int, int]:
    """A 128-bit number as its high and low 64-bit halves, then the
    low half's low and high 32 bits."""
    lo = x & _MASK64
    return x >> 64, lo, lo & 0xFFFFFFFF, lo >> 32


def _pcg64_tables(inc: int, cube: int) -> Tuple[np.ndarray, np.ndarray]:
    """Jump tables of the PCG64 stream with increment ``inc``.

    k steps of the LCG map a state s to ``A_k * s + C_k`` mod 2**128,
    with ``A_k = M**k`` and ``C_k = inc * (M**(k-1) + ... + M + 1)``.
    Returns ``(low, high)``: the maps of k = r for r < ``_JUMP_LOW`` and
    of k = q * ``_JUMP_LOW`` for q <= ``cube // _JUMP_LOW``, each a
    ``(6, count)`` uint64 array whose rows are ``_words(A_k)`` then
    ``C_k``'s high and low halves.
    """

    def maps(mult: int, add: int, count: int):
        # Row by row: a list of ``count`` tuples of big ints would leave
        # its object memory resident after the build.
        table, a, c = np.empty((count, 6), dtype=np.uint64), 1, 0
        for row in table:
            row[:] = _words(a) + (c >> 64, c & _MASK64)
            a, c = a * mult & _MASK128, (c * mult + add) & _MASK128
        return table.T.copy(), a, c

    low, a, c = maps(_PCG64_MULTIPLIER, inc, _JUMP_LOW)
    return low, maps(a, c, cube // _JUMP_LOW + 1)[0]


def _mul_add(a, x) -> Tuple[np.ndarray, np.ndarray]:
    """``A * x + C`` mod 2**128 for the maps ``a`` (rows as in
    :func:`_pcg64_tables`) and the numbers ``x`` (rows as ``_words``).

    Returns the high and low uint64 halves.  The low halves' full
    product is built from 32-bit limbs; the high halves only meet the
    low ones, mod 2**64.
    """
    a_hi, a_lo, a0, a1, c_hi, c_lo = a
    x_hi, x_lo, x0, x1 = x
    low = a0 * x0
    mid = a1 * x0
    mid += low >> _U32
    cross = a0 * x1
    cross += mid & _LOW32
    hi = a1 * x1
    hi += mid >> _U32
    hi += cross >> _U32
    hi += a_hi * x_lo
    hi += a_lo * x_hi
    hi += c_hi
    lo = a_lo * x_lo
    lo += c_lo
    hi += lo < c_lo  # the carry out of the low half
    return hi, lo


def _pcg64_keys(state: int, cells: np.ndarray, tables) -> np.ndarray:
    """The doubles PCG64's ``random()`` returns ``cells + 1`` steps past
    ``state``, in one vectorized pass.

    ``state`` is the 128-bit LCG state, ``cells`` ascending int64 cube
    indices and ``tables`` :func:`_pcg64_tables` of the stream's
    increment and a cube that holds the cells.  A step applies the LCG
    and outputs XSL-RR of the new state -- its halves XORed, rotated
    right by its top 6 bits -- and ``random()`` keeps the top 53 bits.
    Cell c's state is ``high[q]`` applied to ``low[r](state)``, with
    c + 1 = q * ``_JUMP_LOW`` + r.
    """
    low, high = tables
    hi, lo = _mul_add(low, np.array(_words(state), dtype=np.uint64))
    starts = (hi, lo, lo & _LOW32, lo >> _U32)
    steps = cells + 1
    q, r = steps >> _JUMP_BITS, steps & (_JUMP_LOW - 1)
    hi, lo = _mul_add([row.take(q) for row in high], [row.take(r) for row in starts])
    rot = hi >> _U58
    hi ^= lo
    out = hi >> rot
    out |= hi << (-rot & _U63)
    out >>= _U11
    return out * (1.0 / 9007199254740992.0)


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
    injected ones, a :class:`StreamBank`'s generators included).
    """
    kind, value = token
    if kind == "seed":
        return np.random.default_rng(value)
    if kind == "bank":
        for generator, state in zip(rng.generators, value):
            generator.bit_generator.state = state
        return rng
    if value is not None:
        rng.bit_generator.state = copy.deepcopy(value)
    return rng


class BatchScheduler:
    """Base class for batched matching kernels (see module docstring).

    Subclasses implement :meth:`schedule` and :meth:`reset`; the base
    provides construction-time validation and the request
    normalization helper so every kernel enforces the same contract.

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
    #: QPS-r): they read the occupancy counts every fast path passes
    #: alongside the boolean request mask.
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
        # ((stream increment, cube cells), _pcg64_tables) of the last
        # vectorized jump: the tables depend on nothing else.
        self._jump_tables = (None, None)

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` (None detaches)."""
        self._probe = probe

    def _resolve_streams(self, seed: Optional[int], rng, component: str) -> None:
        """Set ``_rng`` / ``_rng_token`` by the ``(seed, rng)`` convention.

        A list or tuple of generators as ``rng`` becomes a
        :class:`StreamBank` over equal blocks of the replica axis, kept
        as ``_bank`` too (``None`` for a single stream) so ``schedule``
        can arm it; its replay token is the generators' states.
        """
        self._bank = None
        # Not isinstance(): one-stream construction keeps its exact call count.
        if rng.__class__ not in (list, tuple):
            self._rng, self._rng_token = resolve_generator(seed, rng, component)
            return
        if not rng or self.replicas % len(rng):
            raise ValueError(
                f"{self.replicas} replicas do not split into "
                f"{len(rng)} equal stream blocks"
            )
        block = self.replicas // len(rng) * self.ports * self.ports
        self._rng = self._bank = StreamBank(rng, block)
        # ``state`` hands out a fresh dict each time: nothing to copy.
        self._rng_token = ("bank", tuple(g.bit_generator.state for g in rng))

    def _validate_batch(self, requests: np.ndarray) -> np.ndarray:
        """Normalize ``requests`` and check it matches (B, N, N)."""
        batch = as_request_batch(requests)
        if batch.shape != (self.replicas, self.ports, self.ports):
            raise ValueError(
                f"expected ({self.replicas}, {self.ports}, {self.ports}) "
                f"requests, got {batch.shape}"
            )
        return batch

    def _cube_keys(self, cells: np.ndarray) -> np.ndarray:
        """Uniform keys of one fresh ``(B, N, N)`` cube, at ``cells`` only.

        Returns ``rng.random((B, N, N)).reshape(-1).take(cells)`` and
        leaves every generator where that call would; ``cells`` are
        ascending flat cube indices (row 0 of a C-ordered edge list).
        A :class:`StreamBank` is armed on ``cells`` and draws its armed
        blocks.  A PCG64 ``Generator`` with no buffered 32-bit half
        reads the keys the cheapest of three ways (module constants):
        draw the cube; the *scalar jump*, which skips the cells between
        keys with ``advance`` (``random`` spends one 64-bit output per
        double and ``advance(k)`` moves the state by k outputs); or the
        *vectorized jump*, which computes every key from the LCG's
        closed form (:func:`_pcg64_keys`, over jump tables cached per
        stream increment and cube size) and then advances the whole
        cube.  Every other source draws the whole cube.
        """
        rng = self._rng
        shape = (self.replicas, self.ports, self.ports)
        cube = self.replicas * self.ports * self.ports
        jump = cells.size * _JUMP_BREAK_EVEN
        vector = cells.size * _VECTOR_PER_KEY + _VECTOR_FIXED
        if self._bank is not None:
            self._bank.arm(cells)
        elif (
            (jump < cube or vector < cube)
            and rng.__class__ is np.random.Generator
            and rng.bit_generator.__class__ is np.random.PCG64
            and not (state := rng.bit_generator.state)["has_uint32"]
        ):
            if jump <= vector:
                advance, draw = rng.bit_generator.advance, rng.random
                keys = []
                position = 0
                for cell in cells.tolist():
                    advance(cell - position)
                    keys.append(draw())
                    position = cell + 1
                advance(cube - position)
                return np.array(keys)
            stream = state["state"]
            key = (stream["inc"], cube)
            if self._jump_tables[0] != key:
                self._jump_tables = (key, _pcg64_tables(*key))
            keys = _pcg64_keys(stream["state"], cells, self._jump_tables[1])
            rng.bit_generator.advance(cube)
            return keys
        return rng.random(shape).take(cells)

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
    diagnostic and is likewise ignored elsewhere.  ``rng`` is one
    generator or, for a kernel that draws, a list of K of them: a
    :class:`StreamBank` over K equal blocks of the replica axis.
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
