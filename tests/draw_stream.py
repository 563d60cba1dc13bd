"""The generator's draws against `random.Random`'s own calls.

`generate` draws whole rows with `_below`, which must give the values of
`randint`/`randrange` called one at a time and leave the generator in the
same state, or `gen` and `check --random` would change their bytes.  This
checks every range the generator draws from: grid degrees from each lower
bound (0, 0.05, and every gamma rounds up to one of 21 grid starts), a
member out of 1 to 64 and a few larger counts, and a member interleaved with
a degree, as `random_covering` draws them.  It ends with the digest of one
`gen` output.  Only the standard library is used:

    PYTHONPATH=src python tests/draw_stream.py
"""

from __future__ import annotations

import hashlib
import random
import sys

from fuzzycover import generate, sysio
from fuzzycover.exact import MICRO
from fuzzycover.generate import GRID_STEP

STEPS = MICRO // GRID_STEP
# each grid start, reached from a lower bound on the grid and from just below it
LOWS = sorted({0, *(s * GRID_STEP - d for s in range(1, STEPS + 1) for d in (0, 1))})
MEMBERS = [*range(1, 65), 100, 255, 256, 257, 1000, 2**20 + 1]
# a member alone, and a member then a degree from each grid start
WIDTHS = [(m,) for m in MEMBERS] + [(m, w) for m in (1, 2, 3, 16, 257) for w in range(1, STEPS + 2)]
# `gen --n 16 --m 2 --members 3 --gamma 0.9 --seed 0`
GEN_SHA256 = "e9e00c40dc33b797889fe64acf58f9302aa72b2b7e45ee9acc28a2436729f1c1"


def disagreements(seeds=range(3), count: int = 100) -> list[str]:
    """Each draw of `generate` that differs from the one-at-a-time calls."""
    out = []

    def compare(what, got, want, a, b):
        if got != want:
            out.append(f"{what}: drew {got[:8]}..., calls give {want[:8]}...")
        elif a.getstate() != b.getstate():
            out.append(f"{what}: same values, different state afterwards")

    for seed in seeds:
        for lo in LOWS:
            a, b = random.Random(seed), random.Random(seed)
            first = -(-lo // GRID_STEP)
            want = [a.randint(first, STEPS) * GRID_STEP for _ in range(count)]
            compare(f"seed {seed} grid from {lo}", generate._grid_values(b, count, lo), want, a, b)
        for widths in WIDTHS:
            a, b = random.Random(seed), random.Random(seed)
            want = [a.randrange(w) for _ in range(count) for w in widths]
            compare(f"seed {seed} widths {widths}", generate._below(b, widths, count),
                    want, a, b)
    text = sysio.dumps(generate.generate_system(16, 2, 3, 900_000, 0))
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != GEN_SHA256:
        out.append("gen --n 16 --m 2 --members 3 --gamma 0.9 --seed 0 changed its bytes")
    return out


if __name__ == "__main__":
    bad = disagreements()
    for line in bad:
        print(line)
    print(f"{sys.version.split()[0]}: {len(LOWS)} grid bounds, {len(WIDTHS)} width lists, "
          f"{len(bad)} disagreements")
    sys.exit(1 if bad else 0)
