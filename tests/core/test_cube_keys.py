"""``BatchScheduler._cube_keys``: a dense cube's keys, read at the edges.

Every key a batched kernel draws comes from ``_cube_keys(cells)``, which
must return exactly ``rng.random((B, N, N)).reshape(-1).take(cells)``
and leave the generator where that call would.  On a PCG64 ``Generator``
with no buffered 32-bit half, fewer than ``cube / _JUMP_BREAK_EVEN``
keys are taken by jumping the stream over the cells in between; every
other source, and every denser request, draws the whole cube.  Each
test pairs the kernel's stream with a twin that draws densely and
demands byte-equal keys and equal ``bit_generator.state``.

Which branch ran is observed through the cell array itself: the jump
loop is the only reader that lists the cells (``Cells.tolist``).
"""

import numpy as np
import pytest

from repro.core.batch import _JUMP_BREAK_EVEN
from repro.core.pim import BatchPIMScheduler
from repro.hardware.random_select import lfsr_pim_rng

from .test_pim_batch_reference import Cells, QuantisedKeys

SHAPES = [(1, 4, 4), (64, 16, 16), (256, 32, 32)]


def _break_even(cube):
    """The fewest keys that draw a ``cube``-cell cube densely."""
    return -(-cube // _JUMP_BREAK_EVEN)


def _sizes(cube):
    edge = _break_even(cube)
    return sorted({0, 1, 3, edge - 1, edge, edge + 1, cube})


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


def _jumps(shape, size):
    return size * _JUMP_BREAK_EVEN < int(np.prod(shape))


def _assert_same(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_break_even_edges():
    """Guard the grid: the edge sizes straddle the decision."""
    for shape in SHAPES:
        cube = int(np.prod(shape))
        edge = _break_even(cube)
        assert _jumps(shape, edge - 1) and not _jumps(shape, edge)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_pcg64_keys_and_state_equal_the_dense_draw(shape):
    cube = int(np.prod(shape))
    for size in _sizes(cube):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        cells = _cells(cube, size)
        got = _kernel(shape, rng)._cube_keys(cells)
        _assert_same(got, twin.random(shape).reshape(-1).take(cells))
        assert rng.bit_generator.state == twin.bit_generator.state, size
        assert cells.listed == _jumps(shape, size), size


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
    for size in (1, _break_even(cube) - 1):
        cells = _cells(cube, size)
        got = kernel._cube_keys(cells)
        _assert_same(got, twin.random(shape).reshape(-1).take(cells))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert not cells.listed
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
    assert not cells.listed


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
        assert not cells.listed
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
    assert not cells.listed
