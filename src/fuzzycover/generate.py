"""Seeded random instance generation.

Degrees are drawn on a coarse decimal grid (multiples of 0.05) so that sums
and ratios frequently land on exact boundaries; the covering condition is
enforced by construction: for every object one randomly chosen member gets a
degree redrawn from [gamma, 1].
"""

from __future__ import annotations

import random

from .exact import MICRO
from .model import FuzzyCovering, FuzzySet, MultiGranulationSystem, Universe
from .sysio import SystemFile

GRID_STEP = 50_000  # 0.05


def _grid_value(rng: random.Random, lo: int = 0, hi: int = MICRO) -> int:
    lo_steps = -(-lo // GRID_STEP)  # ceil to the grid
    hi_steps = hi // GRID_STEP
    return rng.randint(lo_steps, hi_steps) * GRID_STEP


def random_fuzzy_set(rng: random.Random, universe: Universe) -> FuzzySet:
    return FuzzySet(
        universe, tuple(_grid_value(rng) for _ in range(universe.size))
    )


def random_covering(
    rng: random.Random,
    universe: Universe,
    name: str,
    members: int,
    gamma: int,
) -> FuzzyCovering:
    n = universe.size
    matrix = [[_grid_value(rng) for _ in range(n)] for _ in range(members)]
    for i in range(n):
        j = rng.randrange(members)
        matrix[j][i] = _grid_value(rng, lo=gamma)
    for j in range(members):
        if all(v == 0 for v in matrix[j]):
            matrix[j][rng.randrange(n)] = _grid_value(rng, lo=GRID_STEP)
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
