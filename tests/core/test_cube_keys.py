"""``BatchScheduler._cube_keys``: a dense cube's keys, read at the edges.

Every key a batched kernel draws comes from ``_cube_keys(cells)``, which
must return exactly ``rng.random((B, N, N)).reshape(-1).take(cells)``
and leave the generator where that call would.  On a PCG64 ``Generator``
with no buffered 32-bit half the keys are read the cheapest of three
ways: the dense draw, the scalar jump (``advance`` over the cells in
between, one ``random()`` per key) or the vectorized jump (every key
from the LCG's closed form, then one ``advance`` over the cube); every
other source draws the whole cube.  Each test pairs the kernel's stream
with a twin that draws densely and demands byte-equal keys and equal
``bit_generator.state``.

Which way ran is observed through the cell array itself
(``Cells.way``): the scalar jump is the only reader that lists the
cells, the vectorized jump the only one that computes with them.
"""

import numpy as np
import pytest

from repro.core import batch as core_batch
from repro.core.batch import (
    _JUMP_BREAK_EVEN,
    _JUMP_LOW,
    _PCG64_MULTIPLIER,
    _VECTOR_FIXED,
    _VECTOR_PER_KEY,
    _pcg64_keys,
    _pcg64_tables,
)
from repro.core.pim import BatchPIMScheduler
from repro.hardware.random_select import lfsr_pim_rng

from .test_pim_batch_reference import Cells, QuantisedKeys

SHAPES = [(1, 4, 4), (64, 16, 16), (256, 32, 32)]
WAYS = ("dense", "scalar", "vector")
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


def _ways(cube, sizes):
    """The way ``_cube_keys`` reads each of ``sizes`` keys of a
    ``cube``-cell cube off a PCG64 stream, as an index into ``WAYS``."""
    sizes = np.asarray(sizes, dtype=np.int64)
    jump = sizes * _JUMP_BREAK_EVEN
    vector = sizes * _VECTOR_PER_KEY + _VECTOR_FIXED
    return np.where(np.minimum(jump, vector) >= cube, 0, np.where(jump <= vector, 1, 2))


def _way(cube, size):
    return WAYS[int(_ways(cube, size))]


def _edges(cube):
    """The key counts at which the way changes."""
    return (np.diff(_ways(cube, np.arange(cube + 1))).nonzero()[0] + 1).tolist()


def _sizes(cube):
    around = {e + d for e in _edges(cube) for d in (-1, 0, 1)}
    return sorted({0, 1, 3, cube} | around)


def _cells(cube, size, seed=0):
    """``size`` ascending flat indices; the small sets touch both ends."""
    if size == cube:
        cells = np.arange(cube)
    elif size == 1:
        cells = np.array([cube - 1])  # the trailing jump is zero
    elif size == 3:
        cells = np.array([0, 1, cube - 1])  # zero-length jumps
    else:
        cells = np.sort(np.random.default_rng(seed).choice(cube, size, replace=False))
    return cells.astype(np.intp).view(Cells)


def _kernel(shape, rng):
    b, n, _ = shape
    return BatchPIMScheduler(b, n, rng=rng)


def _assert_same(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_break_even_edges():
    """Guard the grid: it holds every way each shape can take, and
    straddles every edge between two ways."""
    for shape in SHAPES:
        cube = int(np.prod(shape))
        sizes = _sizes(cube)
        taken = {_way(cube, size) for size in sizes}
        assert taken == set(np.take(WAYS, np.unique(_ways(cube, np.arange(cube + 1)))))
        for edge in _edges(cube):
            assert _way(cube, edge - 1) != _way(cube, edge)
            assert {edge - 1, edge} <= set(sizes)
    assert {_way(256 * 32 * 32, size) for size in _sizes(256 * 32 * 32)} == set(WAYS)


def test_a_16384_cell_cube_never_takes_the_vector_way():
    """At 16,384 cells (N = 16, B = 64) a vectorized jump costs about
    what the dense draw does, so no key count may choose it."""
    cube = 64 * 16 * 16
    assert (_ways(cube, np.arange(cube + 1)) != WAYS.index("vector")).all()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_no_keys_never_take_the_vector_way(shape):
    rng, twin = np.random.default_rng(15), np.random.default_rng(15)
    cells = _cells(int(np.prod(shape)), 0)
    assert _kernel(shape, rng)._cube_keys(cells).size == 0
    twin.random(shape)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert cells.way == "scalar"


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_pcg64_keys_and_state_equal_the_dense_draw(shape):
    cube = int(np.prod(shape))
    for size in _sizes(cube):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        cells = _cells(cube, size)
        got = _kernel(shape, rng)._cube_keys(cells)
        _assert_same(got, twin.random(shape).reshape(-1).take(cells))
        assert rng.bit_generator.state == twin.bit_generator.state, size
        assert cells.way == _way(cube, size), size


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_a_chain_of_calls_stays_in_step(shape):
    """Jumped and dense draws interleaved on one stream."""
    cube = int(np.prod(shape))
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    kernel = _kernel(shape, rng)
    sizes = _sizes(cube)
    for step, size in enumerate(sizes + sizes[::-1]):
        cells = _cells(cube, size, seed=step)
        got = kernel._cube_keys(cells)
        _assert_same(got, twin.random(shape).reshape(-1).take(cells))
        assert rng.bit_generator.state == twin.bit_generator.state, step
    assert kernel._cube_keys(_cells(cube, 0)).size == 0
    twin.random(shape)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_a_pending_uint32_half_draws_densely(shape):
    cube = int(np.prod(shape))
    rng, twin = np.random.default_rng(13), np.random.default_rng(13)
    for g in (rng, twin):
        g.integers(0, 7, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1  # the premise
    kernel = _kernel(shape, rng)
    for size in sorted({1, _edges(cube)[-1] - 1}):
        cells = _cells(cube, size)
        got = kernel._cube_keys(cells)
        _assert_same(got, twin.random(shape).reshape(-1).take(cells))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert cells.way == "dense"
    assert rng.integers(0, 7, dtype=np.uint32) == twin.integers(0, 7, dtype=np.uint32)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_mt19937_draws_densely(shape):
    rng = np.random.Generator(np.random.MT19937(14))
    twin = np.random.Generator(np.random.MT19937(14))
    cells = _cells(int(np.prod(shape)), 1)
    got = _kernel(shape, rng)._cube_keys(cells)
    _assert_same(got, twin.random(shape).reshape(-1).take(cells))
    state, twin_state = rng.bit_generator.state["state"], twin.bit_generator.state["state"]
    assert state["pos"] == twin_state["pos"]
    assert np.array_equal(state["key"], twin_state["key"])
    assert cells.way == "dense"


@pytest.mark.parametrize(
    "make", [lambda: QuantisedKeys(2, 15), lambda: lfsr_pim_rng(seed=0xBEEF)],
    ids=["quantised", "lfsr16"],
)
@pytest.mark.parametrize("shape", SHAPES[:2], ids=lambda s: "x".join(map(str, s)))
def test_injected_sources_draw_densely(shape, make):
    rng, twin = make(), make()
    kernel = _kernel(shape, rng)
    for size in (1, 3):
        cells = _cells(int(np.prod(shape)), size)
        got = kernel._cube_keys(cells)
        _assert_same(got, twin.random(shape).reshape(-1).take(cells))
        assert cells.way == "dense"
    assert rng.random((2, 2)).tobytes() == twin.random((2, 2)).tobytes()


@pytest.mark.parametrize("shape", [(3, 4, 4), (192, 16, 16)], ids=["3x4x4", "192x16x16"])
def test_a_three_generator_bank_draws_its_armed_blocks_densely(shape):
    b, n, _ = shape
    seeds = (21, 22, 23)
    rngs = [np.random.default_rng(s) for s in seeds]
    twins = [np.random.default_rng(s) for s in seeds]
    kernel = BatchPIMScheduler(b, n, rng=rngs)
    block = shape[0] // 3 * n * n
    # Block 0 holds one request, block 1 none, block 2 two (at 192
    # replicas sparse enough to jump, were the stream not a bank).
    cells = np.array([block - 1, 2 * block, 3 * block - 1], dtype=np.intp).view(Cells)
    got = kernel._cube_keys(cells)
    blocks = [
        twin.random((b // 3, n, n)).reshape(-1) if k != 1 else np.zeros(block)
        for k, twin in enumerate(twins)
    ]
    _assert_same(got, np.concatenate(blocks).take(cells))
    for rng, twin in zip(rngs, twins):
        assert rng.bit_generator.state == twin.bit_generator.state
    assert cells.way == "dense"


# The vectorized jump called directly: ``_pcg64_keys(state, cells,
# _pcg64_tables(inc, cube))`` against ``random(cube).take(cells)`` drawn
# from the same state.


def _stream(state, inc):
    """A PCG64 generator at LCG ``state`` with increment ``inc``."""
    bit = np.random.PCG64()
    bit.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit)


def _direct(state, inc, cube, cells):
    cells = np.asarray(cells, dtype=np.intp)
    got = _pcg64_keys(state, cells, _pcg64_tables(inc, cube))
    _assert_same(got, _stream(state, inc).random(cube).take(cells))


def _block_cells(cube, seed):
    """Both ends of the cube, every cell whose step count k = c + 1 is a
    multiple of the tables' low level, and a random sample."""
    picks = np.random.default_rng(seed).choice(cube, min(cube, 97), replace=False)
    edges = np.arange(_JUMP_LOW - 1, cube, _JUMP_LOW)
    return np.unique(np.concatenate([[0, cube - 1], edges, picks]))


@pytest.mark.parametrize("cube", [1, 2, 255, 256, 257, 1000, 16384, 65536 + 129])
def test_vector_keys_equal_the_dense_draw_over_many_states(cube):
    """Small and large cubes, multiples of the low level and not, over
    generator states reached by seeding and by drawing on."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        rng.random(seed * 37)
        state = rng.bit_generator.state["state"]
        _direct(state["state"], state["inc"], cube, _block_cells(cube, seed))


def test_vector_keys_at_a_rotation_of_zero():
    """XSL-RR rotates by the state's top 6 bits; at 0 the left shift
    wraps to 0, not 64."""
    inc = np.random.default_rng(16).bit_generator.state["state"]["inc"]
    first = 0x0123456789ABCDEF0123456789ABCDEF  # top 6 bits clear
    state = (first - inc) * pow(_PCG64_MULTIPLIER, -1, 1 << 128) & MASK128
    assert (_PCG64_MULTIPLIER * state + inc) & MASK128 == first  # the premise
    assert first >> 122 == 0
    _direct(state, inc, 1000, [0, 1, 999])


def test_vector_keys_across_a_carry_out_of_the_low_half():
    """A state whose first step carries out of the low 64 bits."""
    inc = np.random.default_rng(17).bit_generator.state["state"]["inc"]
    state = next(
        s
        for s in range(1 << 64, (1 << 64) + 1000)
        if (_PCG64_MULTIPLIER * s & MASK64) + (inc & MASK64) > MASK64
    )
    _direct(state, inc, 1000, [0, 1, 999])


def test_jump_tables_are_cached_per_increment_and_cube(monkeypatch):
    """One table build per (stream increment, cube): a kernel reuses its
    tables across rounds and ``reset()``, and rebuilds them when its
    generator is moved to a stream of another increment."""
    shape = (256, 32, 32)
    cube = int(np.prod(shape))
    rng, twin = np.random.default_rng(18), np.random.default_rng(18)
    kernel = _kernel(shape, rng)
    builds = []

    def counting(inc, cube, build=core_batch._pcg64_tables):
        builds.append(inc)
        return build(inc, cube)

    monkeypatch.setattr(core_batch, "_pcg64_tables", counting)
    size = _edges(cube)[0]
    for step in range(4):
        if step == 2:
            kernel.reset()
            twin = np.random.default_rng(18)
        if step == 3:
            rng.bit_generator.state = np.random.default_rng(19).bit_generator.state
            twin = np.random.default_rng(19)
        cells = _cells(cube, size, seed=step)
        got = kernel._cube_keys(cells)
        assert cells.way == "vector"
        _assert_same(got, twin.random(shape).reshape(-1).take(cells))
    incs = [np.random.default_rng(s).bit_generator.state["state"]["inc"] for s in (18, 19)]
    assert builds == incs
