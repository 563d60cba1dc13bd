"""Exact pointwise min and min-sum of degree vectors, in packed 32-bit lanes.

A vector of n degrees is packed into one Python int, one unsigned 32-bit
lane per degree (SIMD within a register: Fisher & Dietz, "Compiling for SIMD
Within a Register", LCPC 1998).  Degrees are at most MICRO = 10^6 < 2^31, so
the top bit of every lane is free to act as a guard: with it set in `a`,
`a - b` cannot borrow across a lane, and the guard survives exactly in the
lanes where a >= b.  Spreading that bit over the lane selects b there and a
elsewhere, which is the pointwise min.  A meet of two rows is then a few
big-int operations instead of one Python `min` per degree, and a lane sum is
one C-level `sum` over an `array("I")` view of the bytes.  Nothing is
approximated: every result equals `map(min, ...)` and `sum` exactly.

The layout rests on `array("I").itemsize == 4` and on MICRO < 2^31; tests
check both, and pack and unpack use `sys.byteorder` on both sides.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache


def pack(xs) -> int:
    """The degrees `xs` as one int, one 32-bit lane each."""
    return int.from_bytes(array("I", xs).tobytes(), sys.byteorder)


def unpack(v: int, n: int) -> tuple[int, ...]:
    """The n degrees packed in `v`."""
    return tuple(_lanes(v, n))


def lane_sum(v: int, n: int) -> int:
    """Sum of the n degrees packed in `v`."""
    return sum(_lanes(v, n))


def _lanes(v: int, n: int) -> array:
    return array("I", v.to_bytes(4 * n, sys.byteorder))


@cache  # one int per lane count: a command sees one n, a test run a few hundred
def _guard(n: int) -> int:
    """Bit 31 of each of n lanes; the same int in either byte order."""
    return int.from_bytes(b"\x80\0\0\0" * n, "big")


def _meet(a: int, b: int, guard: int) -> int:
    m = ((a | guard) - b) & guard  # guard kept where a >= b
    return a ^ ((a ^ b) & (m - (m >> 31)))  # b in those lanes, a elsewhere


def meet(rows, n: int) -> int:
    """Pointwise min of one or more packed rows of n degrees."""
    guard = _guard(n)
    rows = iter(rows)
    acc = next(rows)
    for row in rows:
        acc = _meet(acc, row, guard)
    return acc


def meet_sums(x: int, rows, n: int) -> list[int]:
    """sum(x & row) for each packed row of n degrees."""
    guard = _guard(n)
    return [lane_sum(_meet(x, row, guard), n) for row in rows]
