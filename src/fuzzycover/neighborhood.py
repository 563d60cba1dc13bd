"""Neighborhood computation over covering spaces.

The fuzzy gamma-neighborhood of x is the pointwise minimum of all covering
members whose degree at x reaches gamma; the covering condition guarantees at
least one qualifying member, so the neighborhood always exists and keeps
degree >= gamma at x itself.  On a 0/1 covering a member reaches any gamma
at x exactly when it contains x, so the crisp neighborhood is the same meet.

N_x depends only on the *signature* of x, the set of qualifying members, so
objects with equal signatures share one row.  A table stores the d distinct
rows as integer vectors, their sigma-counts and an index from each object to
its row; building it costs O(n * members + n * d * members) instead of
O(n^2 * members), and operators evaluate each distinct row once.  The
per-object `sigma` and `rows` are views built on first use.  A minimum of
valid degrees is a valid degree, so fuzzy sets are validated where they enter
the package and where a neighborhood leaves it, not per table row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import ApproximationSpace, FuzzySet, StructuralError


@dataclass(frozen=True)
class NeighborhoodTable:
    """Distinct neighborhoods and sigma-counts for one covering.

    `distinct[index[i]]` is the membership vector of the i-th object's
    neighborhood and `distinct_sigma[index[i]]` its sigma-count.  `sigma` and
    `rows` give the same values per object; `rows` shares one FuzzySet per
    distinct row.
    """

    space: ApproximationSpace
    distinct: tuple[tuple[int, ...], ...]
    distinct_sigma: tuple[int, ...]
    index: tuple[int, ...]

    @property
    def universe(self):
        return self.space.universe

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        return tuple(map(self.distinct_sigma.__getitem__, self.index))

    @cached_property
    def rows(self) -> tuple[FuzzySet, ...]:
        shared = [FuzzySet(self.universe, row) for row in self.distinct]
        return tuple(map(shared.__getitem__, self.index))

    def row(self, name: str) -> FuzzySet:
        return self.rows[self.universe.index(name)]


def _vectors(space: ApproximationSpace) -> tuple[tuple[int, ...], ...]:
    return tuple(s.memberships for s in space.covering.member_sets)


def _signature(vectors: tuple[tuple[int, ...], ...], gamma: int, index: int) -> tuple[int, ...]:
    """Positions of the covering members whose degree at the object reaches gamma."""
    return tuple(j for j, v in enumerate(vectors) if v[index] >= gamma)


def _meet(vectors: tuple[tuple[int, ...], ...], signature: tuple[int, ...]) -> tuple[int, ...]:
    """Pointwise min of the member vectors at the signature's positions."""
    # the covering condition guarantees the signature is non-empty
    if len(signature) == 1:  # map(min, v) over a single vector would call min(int)
        return vectors[signature[0]]
    return tuple(map(min, *(vectors[j] for j in signature)))


def qualifying_members(space: ApproximationSpace, index: int) -> tuple[str, ...]:
    """Names of covering members whose degree at the object reaches gamma."""
    names = space.covering.member_names
    return tuple(names[j] for j in _signature(_vectors(space), space.covering.gamma, index))


def fuzzy_gamma_neighborhood(space: ApproximationSpace, name: str) -> FuzzySet:
    """Pointwise min of all members with degree >= gamma at the object."""
    vectors = _vectors(space)
    signature = _signature(vectors, space.covering.gamma, space.universe.index(name))
    return FuzzySet(space.universe, _meet(vectors, signature))


def crisp_neighborhood(space: ApproximationSpace, name: str) -> FuzzySet:
    """Intersection of all 0/1 members containing the object."""
    if not space.covering.is_crisp():
        raise StructuralError("crisp neighborhoods need a 0/1-valued covering")
    return fuzzy_gamma_neighborhood(space, name)


def build_table(space: ApproximationSpace) -> NeighborhoodTable:
    """One row per distinct signature, in order of first occurrence."""
    vectors, gamma = _vectors(space), space.covering.gamma
    slots: dict[tuple[int, ...], int] = {}
    index = tuple(
        slots.setdefault(_signature(vectors, gamma, i), len(slots))
        for i in range(space.universe.size)
    )
    distinct = tuple(_meet(vectors, signature) for signature in slots)
    return NeighborhoodTable(space, distinct, tuple(map(sum, distinct)), index)
