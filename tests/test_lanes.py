"""Packed-lane meet and meet-sum against the plain per-element loop.

Every lane result must equal `map(min, ...)` and `sum` exactly, at the
extremes of a degree (0 and MICRO), on equal lanes, at n = 1, odd n and n up
to a few hundred.  The lane layout rests on a 4-byte `array("I")` item and on
MICRO < 2^31; those are checked here rather than at import time.  The lane
sum's fold stops after `lanes.FOLDS` halvings, when 2^FOLDS lanes of MICRO
have met in one lane; the widths around that cap are checked on their own.
The gamma-cut `at_least` must equal `x >= t` per lane, ties included.
"""

import random
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from fuzzycover import lanes
from fuzzycover.exact import MICRO

EXTREMES = (0, MICRO, MICRO - 1, 1)
sizes = st.one_of(st.sampled_from((1, 2, 3, 299, 300)), st.integers(1, 300))


@st.composite
def vectors(draw, count: int):
    """`count` degree vectors of one drawn length.

    A quarter of the lanes are extremes, and a quarter of the lanes of every
    vector after the first copy the first, so equal lanes are common.
    """
    n, rng = draw(sizes), random.Random(draw(st.integers(0, 2**32)))

    def degree():
        return rng.choice(EXTREMES) if rng.random() < 0.25 else rng.randint(0, MICRO)

    first = [degree() for _ in range(n)]
    vs = [first] + [
        [f if rng.random() < 0.25 else degree() for f in first] for _ in range(count - 1)
    ]
    return n, [tuple(v) for v in vs]


def test_lane_layout_holds():
    assert array("I").itemsize == 4
    assert MICRO < 2**31


def test_pack_reads_the_native_byte_order():
    xs = (0, 1, 2**31 - 1, MICRO, 7)
    raw = array("I", xs).tobytes()
    assert lanes.pack(xs) == int.from_bytes(raw, sys.byteorder)
    assert lanes.unpack(int.from_bytes(raw, sys.byteorder), len(xs)) == xs


@settings(max_examples=200, deadline=None)
@given(vectors(1))
def test_pack_unpack_round_trip_and_lane_sum(drawn):
    n, (xs,) = drawn
    v = lanes.pack(xs)
    assert lanes.unpack(v, n) == xs
    assert lanes.lane_sum(v, n) == sum(xs)


@settings(max_examples=300, deadline=None)
@given(vectors(3))
def test_meet_is_the_pointwise_min(drawn):
    n, (a, b, c) = drawn
    want = tuple(map(min, a, b))
    assert lanes.unpack(lanes.meet((lanes.pack(a), lanes.pack(b)), n), n) == want
    assert lanes.unpack(lanes.meet((lanes.pack(b), lanes.pack(a)), n), n) == want
    assert lanes.meet((lanes.pack(a), lanes.pack(a)), n) == lanes.pack(a)
    assert lanes.meet((lanes.pack(a),), n) == lanes.pack(a)
    assert lanes.unpack(lanes.meet(map(lanes.pack, (a, b, c)), n), n) == tuple(map(min, a, b, c))


@settings(max_examples=200, deadline=None)
@given(vectors(4))
def test_meet_sums_equal_the_per_element_sums(drawn):
    n, (x, *rows) = drawn
    rows.append(x)  # a row equal to the target
    got = lanes.meet_sums(lanes.pack(x), [lanes.pack(r) for r in rows], n)
    assert got == [sum(map(min, x, r)) for r in rows]
    assert got[-1] == sum(x)


def test_extreme_lanes_at_every_position():
    n = 33
    top, zero = (MICRO,) * n, (0,) * n
    alternating = tuple(MICRO * (j % 2) for j in range(n))
    for a in (top, zero, alternating):
        for b in (top, zero, alternating):
            assert lanes.unpack(lanes.meet((lanes.pack(a), lanes.pack(b)), n), n) == tuple(
                map(min, a, b)
            )
    assert lanes.meet_sums(lanes.pack(top), [lanes.pack(top)], n) == [n * MICRO]


def test_fold_count_is_the_most_that_cannot_carry():
    assert 2**lanes.FOLDS * MICRO < 2**32 <= 2 ** (lanes.FOLDS + 1) * MICRO


# widths at and past multiples of 2^FOLDS = 4096: from 4097 lanes on some lanes
# are left after the last fold, and a fold past the cap carries from 8193 on
WIDE = (4096, 4097, 8192, 8193, 12288, 16384, 20000)


@pytest.mark.parametrize("n", WIDE)
def test_lane_sum_of_wide_rows(n):
    rng = random.Random(n)
    for xs in ((MICRO,) * n, tuple(rng.randint(0, MICRO) for _ in range(n))):
        assert lanes.lane_sum(lanes.pack(xs), n) == sum(xs)


@pytest.mark.parametrize("n", WIDE)
def test_meet_sums_of_wide_rows(n):
    rng = random.Random(n)
    top = (MICRO,) * n
    x = tuple(rng.choice(EXTREMES) if rng.random() < 0.5 else rng.randint(0, MICRO)
              for _ in range(n))
    rows = [top, x, tuple(rng.randint(0, MICRO) for _ in range(n))]
    got = lanes.meet_sums(lanes.pack(top), [lanes.pack(r) for r in rows], n)
    assert got == [sum(r) for r in rows]
    got = lanes.meet_sums(lanes.pack(x), [lanes.pack(r) for r in rows], n)
    assert got == [sum(map(min, x, r)) for r in rows]


@settings(max_examples=300, deadline=None)
@given(vectors(1), st.one_of(st.sampled_from((0, 1, MICRO - 1, MICRO)), st.integers(0, MICRO)),
       st.integers(2, 5))
def test_at_least_is_the_per_lane_cut(drawn, t, every):
    n, (xs,) = drawn
    xs = tuple(t if i % every == 0 else x for i, x in enumerate(xs))  # ties at every few lanes
    got = lanes.unpack(lanes.at_least(lanes.pack(xs), t, n), n)
    assert got == tuple(2**31 if x >= t else 0 for x in xs)


@pytest.mark.parametrize("n", (1, 4095, 4096, 4097, 8193))
@pytest.mark.parametrize("t", (1, MICRO // 2, MICRO))
def test_at_least_of_wide_rows(n, t):
    # two lanes in three hold t (a tie), t - 1, t + 1 or an extreme
    rng = random.Random(n * t)
    xs = tuple(rng.choice((t - 1, t, min(t + 1, MICRO), 0, MICRO)) if i % 3 else
               rng.randint(0, MICRO) for i in range(n))
    got = lanes.unpack(lanes.at_least(lanes.pack(xs), t, n), n)
    assert got == tuple(2**31 if x >= t else 0 for x in xs)
