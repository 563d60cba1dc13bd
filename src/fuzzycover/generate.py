"""Seeded random instance generation.

Degrees are drawn on a coarse decimal grid (multiples of 0.05) so that sums
and ratios frequently land on exact boundaries; the covering condition is
enforced by construction: for every object one randomly chosen member gets a
degree redrawn from [gamma, 1].

A row of draws is one loop over `getrandbits` (`_below`) with randrange's
own rejection sampling, so every value, and the stream after it, is what
`randint`/`randrange` called once per degree give: `gen` and `check --random`
write the same bytes on every supported Python.
"""

from __future__ import annotations

import random

from .exact import MICRO
from .model import FuzzyCovering, FuzzySet, MultiGranulationSystem, Universe
from .sysio import SystemFile

GRID_STEP = 50_000  # 0.05


def _below(rng: random.Random, widths: tuple[int, ...], count: int) -> list[int]:
    """`count` rounds of `rng.randrange(w)` for each w of `widths` in turn.

    Each draw is randrange's own rejection sampling, `getrandbits(k)` with
    k = w.bit_length() until the value is below w, so the values and the
    generator's state afterwards are those of the calls one by one (and of
    `randint`, which is randrange over a closed range).
    """
    bits = rng.getrandbits
    sizes = [(w, w.bit_length()) for w in widths]
    out = []
    for _ in range(count):
        for w, k in sizes:
            r = bits(k)
            while r >= w:
                r = bits(k)
            out.append(r)
    return out


def _grid(lo: int = 0) -> list[int]:
    """The grid values from lo (rounded up to the grid) to 1."""
    return list(range(-(-lo // GRID_STEP) * GRID_STEP, MICRO + 1, GRID_STEP))


def _grid_values(rng: random.Random, count: int, lo: int = 0) -> list[int]:
    """`count` grid values in [lo, 1], each drawn uniformly."""
    grid = _grid(lo)
    return list(map(grid.__getitem__, _below(rng, (len(grid),), count)))


def random_fuzzy_set(rng: random.Random, universe: Universe) -> FuzzySet:
    return FuzzySet(universe, tuple(_grid_values(rng, universe.size)))


def random_covering(
    rng: random.Random,
    universe: Universe,
    name: str,
    members: int,
    gamma: int,
) -> FuzzyCovering:
    n = universe.size
    matrix = [_grid_values(rng, n) for _ in range(members)]
    # per object, a member and its degree in [gamma, 1], drawn in that order
    grid = _grid(gamma)
    draws = iter(_below(rng, (members, len(grid)), n))
    for i, j, r in zip(range(n), draws, draws):
        matrix[j][i] = grid[r]
    for j in range(members):
        if all(v == 0 for v in matrix[j]):
            matrix[j][rng.randrange(n)] = _grid_values(rng, 1, lo=GRID_STEP)[0]
    sets = tuple(
        (f"{name}c{j + 1}", FuzzySet(universe, tuple(matrix[j])))
        for j in range(members)
    )
    return FuzzyCovering(name, universe, sets, gamma)


def random_system(
    rng: random.Random, n: int, m: int, members: int, gamma: int
) -> MultiGranulationSystem:
    """m random coverings g1..gm over the universe x1..xn, drawn in that order."""
    universe = Universe(tuple(f"x{i + 1}" for i in range(n)))
    return MultiGranulationSystem(
        universe,
        tuple(
            random_covering(rng, universe, f"g{i + 1}", members, gamma)
            for i in range(m)
        ),
    )


def generate_system(
    n: int,
    m: int,
    members: int,
    gamma: int,
    seed: int,
) -> SystemFile:
    """Deterministic random system with targets X and Y: same arguments, same result."""
    rng = random.Random(f"fuzzycover-gen:{seed}:{n}:{m}:{members}:{gamma}")
    system = random_system(rng, n, m, members, gamma)
    target_sets = {name: random_fuzzy_set(rng, system.universe) for name in ("X", "Y")}
    return SystemFile(system, target_sets)
