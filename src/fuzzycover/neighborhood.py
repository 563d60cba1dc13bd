"""Neighborhood computation over covering spaces.

The fuzzy gamma-neighborhood of x is the pointwise minimum of all covering
members whose degree at x reaches gamma; the covering condition guarantees at
least one qualifying member, so the neighborhood always exists and keeps
degree >= gamma at x itself.  On a 0/1 covering a member reaches any gamma
at x exactly when it contains x, so the crisp neighborhood is the same meet.

N_x depends only on the *signature* of x, its column of the members'
gamma-cuts (`FuzzyCovering.cuts`), so objects with equal signatures share one
row.  A table stores the d distinct rows, their sigma-counts and an index
from each object to its row; building it costs one cut per member and d
meets of the members the covering packed once (`FuzzyCovering.packed`), not
a Python test per (object, member), and operators evaluate each distinct
row once.  Each row is stored packed, one int with a 32-bit lane per
degree (`lanes`), and every meet, here and in the operators, is the exact
lane meet.  A table also keeps the per-row sums of each target vector it has
been evaluated against (`sums`), filled by `single._meet_sums`, the one
function that walks the rows, so a command walks them at most once per target
vector.  The integer vectors (`distinct`) and the per-object `rows` are views
built on first use.  A minimum of valid degrees is a valid degree, so fuzzy
sets are validated where they enter the package and where a neighborhood
leaves it (`rows`, `fuzzy_gamma_neighborhood`), not per table row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from . import lanes
from .model import ApproximationSpace, FuzzyCovering, FuzzySet, StructuralError


@dataclass(frozen=True)
class NeighborhoodTable:
    """Distinct neighborhoods and sigma-counts for one covering.

    `packed[index[i]]` is the i-th object's neighborhood as packed lanes and
    `distinct_sigma[index[i]]` its sigma-count.  Two views are built on
    first use: `distinct`, each row as an integer vector (what `neigh`
    prints), and `rows`, the neighborhood per object as a FuzzySet, one
    shared per distinct row.  `sums[xs]` holds sum(xs & N) for each distinct
    row N, in row order, for each target vector `xs` the table has been
    evaluated against (`single._meet_sums` fills it); it is derived data, so
    it takes no part in equality, hashing or the repr.
    """

    space: ApproximationSpace
    # one int of n lanes per row: its decimal repr can pass the interpreter's digit limit
    packed: tuple[int, ...] = field(repr=False)
    distinct_sigma: tuple[int, ...]
    index: tuple[int, ...]
    sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def universe(self):
        return self.space.universe

    @cached_property
    def distinct(self) -> tuple[tuple[int, ...], ...]:
        n = self.universe.size
        return tuple(lanes.unpack(row, n) for row in self.packed)

    @cached_property
    def rows(self) -> tuple[FuzzySet, ...]:
        shared = [FuzzySet(self.universe, row) for row in self.distinct]
        return tuple(map(shared.__getitem__, self.index))


def _hits(covering: FuzzyCovering, index: int) -> list[int]:
    """1 for each member whose degree at object `index` reaches gamma, else 0."""
    n = covering.universe.size
    return [lanes.unpack(cut >> 31, n)[index] for cut in covering.cuts()]


def qualifying_members(space: ApproximationSpace, index: int) -> tuple[str, ...]:
    """Names of covering members whose degree at the object reaches gamma."""
    return tuple(compress(space.covering.member_names, _hits(space.covering, index)))


def fuzzy_gamma_neighborhood(space: ApproximationSpace, name: str) -> FuzzySet:
    """Pointwise min of all members with degree >= gamma at the object."""
    covering, n = space.covering, space.universe.size
    row = lanes.meet(compress(covering.packed, _hits(covering, space.universe.index(name))), n)
    return FuzzySet(space.universe, lanes.unpack(row, n))


def crisp_neighborhood(space: ApproximationSpace, name: str) -> FuzzySet:
    """Intersection of all 0/1 members containing the object."""
    if not space.covering.is_crisp():
        raise StructuralError("crisp neighborhoods need a 0/1-valued covering")
    return fuzzy_gamma_neighborhood(space, name)


def build_table(space: ApproximationSpace) -> NeighborhoodTable:
    """One row per distinct signature, a column of the cuts, in first-occurrence order."""
    covering, n = space.covering, space.universe.size
    signatures = list(zip(*(lanes.unpack(cut >> 31, n) for cut in covering.cuts())))
    slots = {signature: row for row, signature in enumerate(dict.fromkeys(signatures))}
    # the covering condition guarantees every signature is non-empty
    packed = tuple(lanes.meet(compress(covering.packed, signature), n) for signature in slots)
    sigma = tuple(lanes.lane_sum(row, n) for row in packed)
    return NeighborhoodTable(space, packed, sigma, tuple(map(slots.__getitem__, signatures)))
