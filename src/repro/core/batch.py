"""The ``BatchScheduler`` protocol: batched ``(B, N, N)`` matching kernels.

The fast-path simulators (:mod:`repro.sim.fastpath`,
:mod:`repro.sim.fastpath_cbr`, :mod:`repro.sim.fastpath_network`)
advance B independent switch replicas per step and hand the scheduler
one ``(B, N, N)`` boolean request batch.  Historically the only such
kernel was :class:`repro.core.pim.BatchPIMScheduler`; this module
extracts the contract it implemented so the scheduler zoo (iSLIP, LQF,
wavefront, QPS-r) can plug into every fast path interchangeably, and
so Section 5's lottery can be one more kernel
(:class:`repro.core.statistical.BatchStatisticalMatcher`:
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
- **Request graph**: PIM, iSLIP, RRM, LQF and QPS-r run one round
  loop, :meth:`BatchScheduler._rounds`.  It carries a slot's
  unresolved requests as one C-ordered edge list (:func:`request_edges`,
  or :func:`occupancy_edges` with a per-edge payload such as LQF's keys
  or QPS-r's weights), and each round it asks the kernel's pick rule
  for the pairs to match, commits them, hands them to the kernel's
  commit hook and drops the edges of matched inputs and full outputs,
  until no edge is left or the iteration budget is spent.  A kernel is
  a pick rule plus a commit hook: the pick resolves every per-port
  choice with :func:`line_winners` (a line's equal keys go to its
  first edge), the hook moves the kernel's pointers and diagnostics.
  Wavefront stays a dense sweep of the cube's diagonals.
- **Stream contract**: how far a kernel advances its stream depends
  only on the batch shape and the rounds it runs, never on who
  requests -- by one whole ``(B, N, N)`` cube per PIM grant / random
  accept of an executed iteration and per LQF slot, by one ``(B, N)``
  block per QPS-r round (proposers or not), not at all for iSLIP, RRM
  and wavefront.  Of a cube the kernel reads only the keys at its edges
  (:meth:`BatchScheduler._cube_keys`): the numbers a dense
  ``random((B, N, N))`` would have put there.  On a PCG64
  ``Generator`` only a dense round generates the cube: a sparse one
  jumps the stream from key to key, a mid-density one computes every
  key from the LCG's closed form in one vectorized pass, and both then
  leave the stream at the cube's end.
- **Read-ahead**: inside :func:`repro.sim.fastpath.run_slots` the dense
  draws leave the critical path (:func:`read_ahead`).  The kernel that
  ``cube_kernel()`` names (PIM, LQF) gets a :class:`KeyRing` when :func:`in_ahead_window` holds: a
  single PCG64 ``Generator`` with no buffered 32-bit half (no bank, no
  LFSR), a cube of ``_AHEAD_MIN_CUBE`` = 4,096 to ``_VECTOR_FIXED``
  doubles (below, a take costs about what the draw it saves does;
  above, the in-line reader takes the vectorized jump to most keys,
  cheaper than a producer could draw them all), and at least two CPUs
  in the process's affinity mask.  A producer thread then draws whole
  cubes from a clone of the stream, taken at slot 0, into at most
  three 512 KiB chunks (``random(out=chunk)`` drops the GIL), and
  ``_cube_keys`` takes each call's keys from the next cube and
  advances the kernel's own generator by one cube: after every call
  it stands where the contract says.  The thread starts before slot 0
  and is joined on the way out, so none outlives a run.  Every take
  checks that the kernel's stream stands where the cubes taken so far
  left it, and each chunk carries the clone's state at its start,
  checked before the chunk is read: a stream moved behind the ring's
  back raises at the next take, before a key of a stale cube is used.
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
  the round loop feeds each slot's round count to the
  ``pim.iterations`` histogram via ``probe.slot_iterations`` for the
  kernels that ``feeds_iterations`` (all of its kernels but LQF).

**B = 1 parity convention.**  Every object scheduler -- PIM, iSLIP,
RRM, LQF, wavefront, QPS-r and the lottery -- is one :class:`ObjectScheduler`
around its batched kernel called at ``B == 1``, so with a shared seed
the two are draw-for-draw and pointer-for-pointer identical.  The
adapter validates the N x N input, builds the one-replica kernel at
construction (rebuilt at the N the first slot fixes), returns the empty matching at N = 0, forwards
``reset`` and ``attach_probe`` and turns the kernel's row into a
:class:`~repro.core.matching.Matching`; whatever else a scheduler
exposes (PIM's ``last_result``, the lottery's tables) is the kernel's.
One size rule holds for all of them: the first slot fixes N, and a
matrix of another size raises until ``reset()``.  The differential
harness (:func:`repro.check.differential.backend_parity`) exploits the
convention to demand *slot-exact* trace equality between the object
backend and the fast path for every kernel, ``output_capacity``
included.

:func:`build_batch_scheduler` is the name registry the fast paths, the
CLI and the differential harness share, and
:func:`build_object_scheduler` is the adapter around its
``replicas=1`` call, so "the same scheduler on both backends" is
spelled once.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import os
import queue
import threading
from typing import Optional, Tuple

import numpy as np

from repro.core.matching import Matching, as_request_matrix

__all__ = [
    "BATCH_SCHEDULERS",
    "BatchScheduler",
    "KeyRing",
    "ObjectScheduler",
    "StreamBank",
    "as_request_batch",
    "build_batch_scheduler",
    "build_object_scheduler",
    "line_winners",
    "occupancy_edges",
    "read_ahead",
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

#: The smallest (B, N, N) key cube :func:`read_ahead` draws ahead, in
#: doubles.  Its largest is ``_VECTOR_FIXED``: up to there the in-line
#: reader never takes the vectorized jump, so it draws every cube but
#: the sparsest densely, which is the work the producer moves off the
#: critical path; above it the in-line reader jumps to most keys
#: cheaper than a producer could draw them all.  The smallest is the
#: least cube where the ring was measured to pay (see DESIGN.md): a
#: ``take`` reads the kernel's state and advances it, about two
#: scalar-jumped keys, which at B = 1, N = 16 (256 doubles) is more
#: than the dense draw it replaces.
_AHEAD_MIN_CUBE = 4_096
#: Doubles per read-ahead chunk (512 KiB), and chunks per ring.
_AHEAD_CHUNK = 1 << 16
_AHEAD_CHUNKS = 3


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
    pick rule of the round loop inherits.
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


def _fill(generator, chunk: np.ndarray) -> None:
    """Fill ``chunk`` with uniforms; NumPy drops the GIL while it draws."""
    generator.random(out=chunk)


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the OS cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _lcg_map(inc: int, steps: int) -> Tuple[int, int]:
    """``(A, C)``: ``steps`` steps of the PCG64 stream with increment
    ``inc`` map its LCG state s to ``A * s + C`` mod 2**128."""
    a, c, mult, add = 1, 0, _PCG64_MULTIPLIER, inc
    while steps:
        if steps & 1:
            a, c = a * mult & _MASK128, (c * mult + add) & _MASK128
        mult, add = mult * mult & _MASK128, (add * mult + add) & _MASK128
        steps >>= 1
    return a, c


class KeyRing:
    """Whole key cubes of one PCG64 stream, drawn ahead on a thread.

    A producer thread draws from a clone of ``rng`` into a ring of
    ``_AHEAD_CHUNKS`` chunks of whole ``cells``-double cubes, in stream
    order, each chunk tagged with the clone's LCG state at its start.
    :meth:`take` reads the next cube at the given cells and advances
    ``rng`` over it, so ``rng`` stands where a dense draw would have
    left it.  Every take first checks that ``rng`` stands where the
    cubes taken so far left it, and a chunk's tag must equal that
    state before its first cube is read: a stream that something else
    moved, or a producer out of step, raises before any key of a stale
    cube is returned.
    """

    def __init__(self, rng, cells: int):
        self._rng = rng
        self._cells = cells
        self._free = queue.SimpleQueue()
        self._full = queue.SimpleQueue()
        for _ in range(_AHEAD_CHUNKS):
            self._free.put(np.empty((_AHEAD_CHUNK // cells, cells)))
        clone = copy.deepcopy(rng)
        stream = rng.bit_generator.state["state"]
        # The LCG state the next take must find, and the map of a cube.
        self._next = stream["state"]
        self._step = _lcg_map(stream["inc"], cells)
        self._closed = False
        # The chunk being read and the cubes read from it.
        self._chunk: Optional[np.ndarray] = None
        self._read = 0
        self._thread = threading.Thread(
            target=self._produce, args=(clone,), name="key-ring", daemon=True
        )
        self._thread.start()

    def _produce(self, clone) -> None:
        error = None
        try:
            while (chunk := self._free.get()) is not None and not self._closed:
                start = clone.bit_generator.state["state"]["state"]
                _fill(clone, chunk)
                self._full.put((start, chunk))
        except Exception as exc:  # the reader raises it
            error = exc
        finally:  # a reader waiting on a dead producer would wait forever
            self._full.put((error, None))

    def take(self, cells: np.ndarray) -> np.ndarray:
        """The next cube's keys at ``cells``; the stream moves one cube."""
        if self._rng.bit_generator.state["state"]["state"] != self._next:
            raise RuntimeError(
                "key read-ahead out of step: something else moved the "
                "kernel's stream"
            )
        if self._chunk is None:
            start, self._chunk = self._full.get()
            if self._chunk is None:
                raise RuntimeError("the key read-ahead failed") from start
            if start != self._next:
                raise RuntimeError("key read-ahead out of step with its producer")
            self._read = 0
        keys = self._chunk[self._read].take(cells)
        self._read += 1
        if self._read == len(self._chunk):
            self._free.put(self._chunk)
            self._chunk = None
        self._rng.bit_generator.advance(self._cells)
        a, c = self._step
        self._next = (a * self._next + c) & _MASK128
        return keys

    def close(self) -> None:
        """Stop and join the producer."""
        self._closed = True
        self._free.put(None)
        self._thread.join()


@contextlib.contextmanager
def read_ahead(scheduler: "BatchScheduler"):
    """Draw ``scheduler``'s key cubes on a second core while inside.

    The read-ahead (a :class:`KeyRing` on the kernel
    ``scheduler.cube_kernel()`` names) runs only where it pays, which
    :func:`in_ahead_window` decides from the kernel and the process's
    affinity mask.  The producer is stopped and joined on the way out,
    however the body ends.
    """
    kernel = scheduler.cube_kernel()
    if kernel is None or not in_ahead_window(kernel):
        yield
        return
    ring = kernel._ring = KeyRing(
        kernel._rng, kernel.replicas * kernel.ports * kernel.ports
    )
    try:
        yield
    finally:
        kernel._ring = None
        ring.close()


def in_ahead_window(kernel: "BatchScheduler") -> bool:
    """Whether :func:`read_ahead` draws ``kernel``'s cubes ahead.

    It does for a single PCG64 ``Generator`` with no buffered 32-bit
    half (not a :class:`StreamBank`, not the LFSR adapter), a cube of
    ``_AHEAD_MIN_CUBE`` to ``_VECTOR_FIXED`` doubles, and a process
    free to use two CPUs.
    """
    rng = kernel._rng
    cube = kernel.replicas * kernel.ports * kernel.ports
    return (
        _AHEAD_MIN_CUBE <= cube <= _VECTOR_FIXED
        and rng.__class__ is np.random.Generator
        and rng.bit_generator.__class__ is np.random.PCG64
        and not rng.bit_generator.state["has_uint32"]
        and _usable_cpus() >= 2
    )


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
    #: Whether :meth:`_rounds` puts each slot's round count in the
    #: probe's ``pim.iterations`` histogram.  LQF's rounds are steps of
    #: its vectorized greedy scan, not iterations of its algorithm, so
    #: it does not.
    feeds_iterations = True

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
        # The KeyRing drawing this kernel's cubes ahead, inside read_ahead.
        self._ring: Optional[KeyRing] = None

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` (None detaches)."""
        self._probe = probe

    def cube_kernel(self) -> Optional["BatchScheduler"]:
        """The kernel reading this scheduler's key cubes, if any.

        The kernel whose every draw is a :meth:`_cube_keys` call (PIM
        and LQF return themselves), which :func:`read_ahead` may draw
        ahead; None for a kernel that draws no cubes or draws anything
        else, and for the statistical matcher, whose PIM fill was
        measured slower with its cubes drawn ahead.
        """
        return None

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
        cube.  Every other source draws the whole cube.  Inside
        :func:`read_ahead` the cube is the :class:`KeyRing`'s next.
        """
        if self._ring is not None:
            return self._ring.take(cells)
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

    def _rounds(self, requests, occupancy, pick, budget=None, commit=None, weigh=None):
        """One slot of the round loop: the request graph, resolved round by round.

        Builds the edge list of the validated batch -- with
        :func:`occupancy_edges` for a kernel that ``needs_occupancy``,
        whose edges carry the payload ``weigh(edges, weights)`` returns
        (the weights by default) -- and then, while an edge is left and
        fewer than ``budget`` rounds ran (``None``: no budget), a round

        - asks ``pick(round, edges, payload)`` for ``(offers, accepts)``:
          the first phase's winners (grants, QPS-r's proposals, LQF's
          picks) and the pairs to match, at most one per port line;
        - commits the accepts to ``match`` and the outputs' capacity;
        - calls the kernel's hook ``commit(round, edges, offers,
          accepts, match)`` (pointers, diagnostics);
        - drops the edges, and their payload, of matched inputs and
          full outputs.

        Rounds count from 1, only while an edge is left.  A kernel that
        ``feeds_iterations`` reports the count to ``probe.slot_iterations``.
        Returns the ``(B, N)`` match array, the rounds run and the
        edges left.
        """
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        if self.needs_occupancy:
            edges, payload = occupancy_edges(batch, occupancy)
            if weigh is not None:
                payload = weigh(edges, payload)
        else:
            edges, payload = request_edges(batch), None
        match = np.full(b * n, -1, dtype=np.int64)
        slots = np.full(b * n, self.output_capacity, dtype=np.int64)
        rounds = 0
        while edges.shape[1] and rounds != budget:
            rounds += 1
            offers, accepts = pick(rounds, edges, payload)
            # One accept per input line and per output line: no index repeats.
            match[accepts[1]] = accepts[0] % n
            slots[accepts[2]] -= 1
            if commit is not None:
                commit(rounds, edges, offers, accepts, match)
            unresolved = np.logical_and(match[edges[1]] < 0, slots[edges[2]])
            keep = unresolved.nonzero()[0]
            edges = edges.take(keep, axis=1)
            if payload is not None:
                payload = payload.take(keep)
        if self.feeds_iterations and self._probe is not None:
            self._probe.slot_iterations(rounds)
        return match.reshape(b, n), rounds, edges

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


def _kernel_class(name: str) -> type:
    """The kernel class a registry name builds (see ``BATCH_SCHEDULERS``)."""
    if name not in BATCH_SCHEDULERS:
        raise ValueError(
            f"unknown batch scheduler {name!r}; known: {', '.join(BATCH_SCHEDULERS)}"
        )
    # Imported lazily to avoid module-level cycles (the kernels import
    # this module for the base class).
    from repro.core.islip import BatchISLIPScheduler
    from repro.core.lqf import BatchLQFScheduler
    from repro.core.pim import BatchPIMScheduler
    from repro.core.qps import BatchQPSScheduler
    from repro.core.wavefront import BatchWavefrontScheduler

    classes = (
        BatchPIMScheduler,
        BatchISLIPScheduler,
        BatchLQFScheduler,
        BatchWavefrontScheduler,
        BatchQPSScheduler,
    )
    return classes[BATCH_SCHEDULERS.index(name)]


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
    kernel = _kernel_class(name)
    stream = {"seed": seed, "rng": rng}
    options = {
        "pim": dict(
            iterations=iterations, accept=accept, track_sizes=track_sizes, **stream
        ),
        "islip": dict(iterations=iterations),
        "lqf": stream,
        "wavefront": {},
        "qps": dict(rounds=iterations, **stream),
    }[name]
    return kernel(replicas, ports, output_capacity=output_capacity, **options)


class ObjectScheduler:
    """One switch's scheduler: the B = 1 call of a batched kernel.

    The object model's schedulers -- :class:`repro.core.pim.PIMScheduler`,
    its zoo and :class:`repro.core.statistical.StatisticalMatcher` -- are
    this class around their kernels, and :func:`build_object_scheduler`
    builds it by registry name.  Each slot it

    - validates the N x N request matrix (square; a numeric one must be
      non-negative, or a negative entry would cast to a request) and
      hands it to the kernel as a one-replica batch, with the N x N
      ``occupancy`` for a kernel that ``needs_occupancy``;
    - returns the empty matching at N = 0, where no kernel can exist;
    - builds the kernel at construction -- at ``ports``, or at one
      port until the first slot fixes N, when it is rebuilt at N
      (building draws nothing, so the stream does not move; bad options
      raise at once and the configuration reads on a fresh scheduler):
      ``build_batch_scheduler(name, 1, N, ...)`` on the stream of
      ``(seed, rng)``, where ``seed=None`` falls back to the default
      seed of the scheduler's own ``name`` (``"pim"``, not the kernel's
      ``"pim_batch"``), or ``kernel(N)`` for a kernel outside the
      registry;
    - returns the kernel's row as a :class:`Matching`, validated on both
      sides when ``output_capacity == 1`` (a b-matching on the output
      side otherwise).

    **Size rule**: ``ports`` fixes N for good; otherwise the first slot
    fixes it until ``reset()``.  A matrix of any other size raises
    ``ValueError``: carrying pointers or a rotation over to a new N
    would corrupt them silently.  ``reset()`` resets the kernel --
    pointers, rotation and stream back to their state at the first
    slot -- and forgets a learned N, so a rerun replays the first run.
    ``attach_probe`` reaches the kernel and every kernel built later.
    Any other attribute is the kernel's: the configuration
    (``iterations``, ``accept``, ``rounds``, ``fill``), PIM's
    ``last_result``, the lottery's ``tables``.
    """

    needs_occupancy = False

    def __init__(
        self,
        name: str,
        *,
        iterations: Optional[int] = None,
        accept: str = "random",
        seed: Optional[int] = None,
        rng=None,
        output_capacity: int = 1,
        ports: Optional[int] = None,
        kernel=None,
    ):
        if kernel is None:
            self.needs_occupancy = _kernel_class(name).needs_occupancy
            if seed is None and rng is None:
                from repro.sim.rng import default_seed  # lazily: see resolve_generator

                seed = default_seed(name)
            kernel = functools.partial(
                build_batch_scheduler,
                name,
                1,
                iterations=iterations,
                accept=accept,
                seed=seed,
                rng=rng,
                output_capacity=output_capacity,
                track_sizes=True,  # PIM's last_result
            )
        self.name = name
        self._build = kernel
        self._validate_outputs = output_capacity == 1
        self._fixed_ports = ports
        self.ports = ports
        self._probe = None
        # ports=0 is the one size with no kernel.
        self._kernel: Optional[BatchScheduler] = (
            None if ports == 0 else kernel(1 if ports is None else ports)
        )

    def __getattr__(self, attribute: str):
        # Reached only for names this object lacks: the kernel's state.
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            raise AttributeError(attribute)
        return getattr(kernel, attribute)

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> Matching:
        """One slot's matching of an N x N request matrix."""
        raw = np.asarray(requests)
        matrix = as_request_matrix(raw)
        numeric = raw.dtype != bool and np.issubdtype(raw.dtype, np.number)
        if numeric and (raw < 0).any():
            raise ValueError("requests must be non-negative")
        n = len(matrix)
        if self.ports is not None and n != self.ports:
            raise ValueError(
                f"request matrix is {n}x{n} but the {self.name} scheduler is "
                f"sized for {self.ports} ports"
                + (
                    ""
                    if self._fixed_ports is not None
                    else "; a mid-run size change would silently corrupt its "
                    "state -- call reset() first if the change is intended"
                )
            )
        if n and self._kernel.ports != n:
            kernel = self._build(n)
            kernel.attach_probe(self._probe)
            self._kernel = kernel
        self.ports = n  # only once the kernel is built: a failed slot fixes nothing
        if not n:
            return Matching.empty()
        if occupancy is not None:
            occupancy = np.asarray(occupancy)[None]
        match = self._kernel.schedule(matrix[None], occupancy)[0]
        return Matching.from_match_array(match, self._validate_outputs)

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` to the kernel (None detaches)."""
        self._probe = probe
        if self._kernel is not None:
            self._kernel.attach_probe(probe)

    def reset(self) -> None:
        """Reset the kernel and forget an N the first slot fixed."""
        if self._kernel is not None:
            self._kernel.reset()
        self.ports = self._fixed_ports

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, kernel={self._kernel!r})"


def build_object_scheduler(
    name: str,
    *,
    iterations: Optional[int] = None,
    accept: str = "random",
    seed: Optional[int] = None,
    rng=None,
    output_capacity: int = 1,
    ports: Optional[int] = None,
) -> ObjectScheduler:
    """The object-model twin of a registry kernel: an
    :class:`ObjectScheduler` around ``build_batch_scheduler(name,
    replicas=1, ...)``.

    With the same ``seed`` (or an identically-positioned ``rng``) as
    the batched kernel it is draw-for-draw identical to the B = 1
    batch -- the pairing the slot-exact differential parity checks are
    built on.  ``ports`` fixes N up front.
    """
    return ObjectScheduler(
        name,
        iterations=iterations,
        accept=accept,
        seed=seed,
        rng=rng,
        output_capacity=output_capacity,
        ports=ports,
    )
