"""Hardware approximations of random selection (Section 3.3).

"The thorniest hardware implementation problem is randomly selecting
one among k requesting inputs.  The obvious way to do this is to
generate a pseudo-random number between 1 and k, but we are examining
ways of doing more efficient random selection.  For instance, for
moderate-scale switches, the selection can be efficiently implemented
using tables of precomputed values.  Our simulations indicate that the
number of iterations needed by parallel iterative matching is
relatively insensitive to the technique used to approximate
randomness."

Two hardware-realistic selectors are provided and plugged into PIM by
the randomness-approximation ablation bench:

- :class:`LFSRGenerator` -- a 16-bit Fibonacci linear-feedback shift
  register, the classic FPGA pseudo-random source,
- :class:`TableSelector` -- a precomputed permutation table indexed by
  a free-running counter (no runtime randomness at all).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["LFSRGenerator", "TableSelector", "lfsr_pim_rng"]


class LFSRGenerator:
    """16-bit Fibonacci LFSR (taps 16, 15, 13, 4 -- maximal length).

    Produces the full 2^16 - 1 cycle of non-zero 16-bit states.  The
    ``select`` method reduces the state modulo k, which is biased for
    k not dividing 65535 -- deliberately so: the ablation quantifies
    how little that bias matters to PIM.
    """

    _TAPS = (15, 14, 12, 3)  # 0-indexed bit positions of the taps

    def __init__(self, seed: int = 0xACE1):
        if not 0 < seed < (1 << 16):
            raise ValueError(f"seed must be a non-zero 16-bit value, got {seed}")
        self._state = seed

    def step(self) -> int:
        """Advance one clock; returns the new 16-bit state."""
        feedback = 0
        for tap in self._TAPS:
            feedback ^= (self._state >> tap) & 1
        self._state = ((self._state << 1) | feedback) & 0xFFFF
        return self._state

    def select(self, k: int) -> int:
        """Pick an index in [0, k) from the next state."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return self.step() % k

    def period_check(self, limit: int = 1 << 17) -> int:
        """Cycle length of the register (65535 for maximal-length taps)."""
        start = self._state
        for count in range(1, limit):
            if self.step() == start:
                return count
        raise AssertionError("LFSR did not cycle within the limit")


class TableSelector:
    """Random selection from a precomputed table (Section 3.3).

    A table of ``rows`` precomputed random permutations of [0, n) is
    addressed by a free-running row counter; selecting among k
    requesters takes the first table entry that is below k.  All
    randomness is consumed at configuration time -- at run time the
    hardware only indexes SRAM.
    """

    def __init__(self, n: int, rows: int = 64, seed: Optional[int] = None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if seed is not None:
            rng = np.random.default_rng(seed)
        else:
            # Deterministic fallback (repro.sim.rng default-seed policy).
            from repro.sim.rng import default_generator

            rng = default_generator("hardware/table_selector")
        self.n = n
        self._table = np.stack([rng.permutation(n) for _ in range(rows)])
        self._row = 0

    def select(self, k: int) -> int:
        """Pick an index in [0, k) using the next table row."""
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in 1..{self.n}, got {k}")
        row = self._table[self._row]
        self._row = (self._row + 1) % self._table.shape[0]
        for value in row:
            if value < k:
                return int(value)
        raise AssertionError("permutation row missing small values")


def lfsr_pim_rng(seed: int = 0xACE1, ports: int = 16) -> "LFSRRandomAdapter":
    """An adapter exposing a *bank* of LFSRs through the subset of the
    numpy.random.Generator interface that PIM uses (``random(shape)``),
    so a PIMScheduler can run on hardware-grade pseudo-randomness::

        scheduler = PIMScheduler(rng=lfsr_pim_rng())

    Per Section 3.2, "each output choose[s] among requests using an
    independent random number", so the hardware has one LFSR per port;
    a single shared LFSR would leave its strongly correlated
    consecutive states (one bit-shift apart) in neighbouring matrix
    entries and measurably slow PIM's convergence.
    """
    registers = []
    for index in range(ports):
        # Distinct non-zero 16-bit seeds derived from the root seed.
        child = ((seed + 0x9E37 * (index + 1)) & 0xFFFF) or 0xACE1
        registers.append(LFSRGenerator(child))
    return LFSRRandomAdapter(registers)


class LFSRRandomAdapter:
    """Duck-typed stand-in for numpy Generator backed by LFSRs.

    For a request of two or more axes, (..., M), column j of the last
    axis is drawn from register j mod bank-size -- modelling the
    per-port arbiter registers -- and the leading axes are rows, so the
    ``(1, N, N)`` cube of a one-replica PIM kernel holds what an
    ``(N, N)`` draw would.  Scalars and 1-D draws round-robin through
    the bank.
    """

    def __init__(self, registers: List[LFSRGenerator]):
        if not registers:
            raise ValueError("need at least one LFSR")
        self._registers = registers
        self._cursor = 0

    def _next_register(self) -> LFSRGenerator:
        register = self._registers[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._registers)
        return register

    def random(self, shape=None):
        """Uniform floats in [0, 1) from the register bank."""
        if shape is None:
            return self._next_register().step() / 65536.0
        if np.isscalar(shape):
            shape = (int(shape),)
        if len(shape) >= 2:
            cols = shape[-1]
            rows = int(np.prod(shape[:-1]))
            values = np.empty((rows, cols), dtype=np.float64)
            for j in range(cols):
                register = self._registers[j % len(self._registers)]
                for i in range(rows):
                    values[i, j] = register.step() / 65536.0
            return values.reshape(shape)
        size = int(np.prod(shape))
        values = np.array(
            [self._next_register().step() for _ in range(size)], dtype=np.float64
        )
        return (values / 65536.0).reshape(shape)

    def integers(self, high):
        """One integer in [0, high)."""
        return self._next_register().select(int(high))
