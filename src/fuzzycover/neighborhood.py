"""Neighborhood computation over covering spaces.

The fuzzy gamma-neighborhood of x is the pointwise minimum of all covering
members whose degree at x reaches gamma; the covering condition guarantees at
least one qualifying member, so the neighborhood always exists and keeps
degree >= gamma at x itself.

N_x depends only on the *signature* of x, the set of qualifying members, so
objects with equal signatures share one row.  A table holds the d distinct
rows with their sigma-counts, plus an index from each object to its row;
building it costs O(n * members + n * d * members) instead of
O(n^2 * members), and operators evaluate each distinct row once.  Operators
never recompute neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import MICRO
from .model import ApproximationSpace, FuzzySet, StructuralError, Universe


@dataclass(frozen=True)
class NeighborhoodTable:
    """Distinct neighborhoods and sigma-counts for one covering.

    `distinct[index[i]]` is the neighborhood of the i-th object.  `rows` and
    `sigma` give the same values per object; their entries are shared
    references into `distinct` and `distinct_sigma`.
    """

    space: ApproximationSpace
    distinct: tuple[FuzzySet, ...]
    distinct_sigma: tuple[int, ...]
    index: tuple[int, ...]
    rows: tuple[FuzzySet, ...] = field(init=False, repr=False, compare=False)
    sigma: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(self.distinct.__getitem__, self.index)))
        object.__setattr__(
            self, "sigma", tuple(map(self.distinct_sigma.__getitem__, self.index))
        )

    @property
    def universe(self):
        return self.space.universe

    def row(self, name: str) -> FuzzySet:
        return self.rows[self.universe.index(name)]


def _signature(sets: tuple[FuzzySet, ...], gamma: int, index: int) -> tuple[int, ...]:
    """Positions of the covering members whose degree at the object reaches gamma."""
    return tuple(j for j, s in enumerate(sets) if s.memberships[index] >= gamma)


def _pointwise_min(universe: Universe, sets: list[FuzzySet]) -> FuzzySet:
    """Meet of one or more fuzzy sets."""
    if len(sets) == 1:  # map(min, v) over a single vector would call min(int)
        return sets[0]
    return FuzzySet(universe, tuple(map(min, *(s.memberships for s in sets))))


def _meet(
    universe: Universe, sets: tuple[FuzzySet, ...], signature: tuple[int, ...]
) -> FuzzySet:
    # the covering condition guarantees the signature is non-empty
    return _pointwise_min(universe, [sets[j] for j in signature])


def qualifying_members(space: ApproximationSpace, index: int) -> tuple[str, ...]:
    """Names of covering members whose degree at the object reaches gamma."""
    covering = space.covering
    names = covering.member_names
    return tuple(names[j] for j in _signature(covering.member_sets, covering.gamma, index))


def fuzzy_gamma_neighborhood(space: ApproximationSpace, name: str) -> FuzzySet:
    """Pointwise min of all members with degree >= gamma at the object."""
    sets = space.covering.member_sets
    signature = _signature(sets, space.covering.gamma, space.universe.index(name))
    return _meet(space.universe, sets, signature)


def crisp_neighborhood(space: ApproximationSpace, name: str) -> FuzzySet:
    """Intersection of all 0/1 members containing the object."""
    if not space.covering.is_crisp():
        raise StructuralError("crisp neighborhoods need a 0/1-valued covering")
    index = space.universe.index(name)
    containing = [s for s in space.covering.member_sets if s.memberships[index] == MICRO]
    return _pointwise_min(space.universe, containing)


def build_table(space: ApproximationSpace) -> NeighborhoodTable:
    """One row per distinct signature, in order of first occurrence."""
    sets, gamma = space.covering.member_sets, space.covering.gamma
    slots: dict[tuple[int, ...], int] = {}
    index = tuple(
        slots.setdefault(_signature(sets, gamma, i), len(slots))
        for i in range(space.universe.size)
    )
    distinct = tuple(_meet(space.universe, sets, signature) for signature in slots)
    sigma = tuple(row.sigma_count() for row in distinct)
    return NeighborhoodTable(space, distinct, sigma, index)
