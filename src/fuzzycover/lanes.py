"""Exact pointwise min and min-sum of degree vectors, in packed 32-bit lanes.

A vector of n degrees is packed into one Python int, one unsigned 32-bit
lane per degree (SIMD within a register: Fisher & Dietz, "Compiling for SIMD
Within a Register", LCPC 1998).  Degrees are at most MICRO = 10^6 < 2^31, so
the top bit of every lane is free to act as a guard: with it set in `a`,
`a - b` cannot borrow across a lane, and the guard survives exactly in the
lanes where a >= b.  Spreading that bit over the lane selects b there and a
elsewhere, which is the pointwise min.  A meet of two rows is then a few
big-int operations instead of one Python `min` per degree; against t in
every lane the same test is a gamma-cut (`at_least`).

A lane sum folds the int in halves: the high half of the lanes is shifted
down and added onto the low half, one mask, one shift and one add on an int
half as long each time, until one lane is left.  After k folds a lane holds
at most 2^k degrees, so FOLDS = 12 folds are safe (2^12 * MICRO < 2^32) and
no lane carries into the next.  A row wider than 2^FOLDS lanes keeps
ceil(n / 2^FOLDS) lanes after the last safe fold; those are summed by a
C-level `sum` over an `array("I")` view of the bytes.  Nothing is
approximated: every result equals `map(min, ...)` and `sum` exactly.

The layout rests on `array("I").itemsize == 4` and on MICRO < 2^31; tests
check both, and pack and unpack use `sys.byteorder` on both sides.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache

from .exact import MICRO

# folds before a lane could carry: after k folds a lane holds at most 2^k * MICRO
FOLDS = ((2**32 - 1) // MICRO).bit_length() - 1


def pack(xs) -> int:
    """The degrees `xs` as one int, one 32-bit lane each."""
    return int.from_bytes(array("I", xs).tobytes(), sys.byteorder)


def unpack(v: int, n: int) -> tuple[int, ...]:
    """The n degrees packed in `v`."""
    return tuple(_lanes(v, n))


def lane_sum(v: int, n: int) -> int:
    """Sum of the n degrees packed in `v`."""
    steps, left = _folds(n)
    for shift, low in steps:
        v = (v & low) + (v >> shift)
    return v if left == 1 else sum(_lanes(v, left))


def _lanes(v: int, n: int) -> array:
    return array("I", v.to_bytes(4 * n, sys.byteorder))


@cache  # one int per lane count: a command sees one n, a test run a few hundred
def _guard(n: int) -> int:
    """Bit 31 of each of n lanes; the same int in either byte order."""
    return int.from_bytes(b"\x80\0\0\0" * n, "big")


@cache  # like _guard: the masks of one lane count, about 8n bytes
def _folds(n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The (shift, low-lane mask) of each fold of n lanes, and the lanes left."""
    steps = []
    while n > 1 and len(steps) < FOLDS:
        n = (n + 1) // 2  # the low half keeps the odd lane
        steps.append((32 * n, (1 << 32 * n) - 1))
    return tuple(steps), n


def at_least(v: int, t: int, n: int) -> int:
    """Bit 31 set in each of the n lanes of `v` whose degree is >= t."""
    guard = _guard(n)
    return ((v | guard) - (guard >> 31) * t) & guard  # the guard test of `_meet` against t


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
