"""Domain types: universes, fuzzy sets, fuzzy gamma-coverings and parameters.

Everything is immutable after construction and all arithmetic is exact
(micro-unit integers, see exact.py).  A covering family is *valid* when

  (1) every member is non-empty (some degree > 0), and
  (2) every object reaches degree >= gamma in at least one member: some
      member's gamma-cut (`FuzzyCovering.cuts`) holds it.

A covering packs each member into lanes (`lanes.pack`) once, when it is
built; its cuts, its validation and its neighborhood table read those ints.

Coverings can be constructed in an invalid state so that validation can be
reported on raw data; approximation spaces refuse invalid coverings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import lanes
from .exact import MICRO, format_each, format_scaled, parse_degree, parse_scaled

_NOT_A_SEQUENCE = (str, set, frozenset, type({}.keys()), type({}.values()), type({}.items()))


class StructuralError(ValueError):
    """Mismatched universes, lengths or names in a construction."""


class ValidationError(ValueError):
    """A covering family violates the gamma-covering conditions."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(report.describe())
        self.report = report


class ParameterError(ValueError):
    """Operator parameters violate their contract."""


@dataclass(frozen=True)
class Universe:
    """Ordered finite set of named objects; the order is canonical everywhere."""

    objects: tuple[str, ...]

    def __post_init__(self):
        # tuple() would split a str into characters; a set (hash order) or dict view is no sequence
        if isinstance(self.objects, _NOT_A_SEQUENCE):
            raise StructuralError(
                f"universe objects must be a sequence of names, got {self.objects!r}"
            )
        objects = tuple(self.objects)
        object.__setattr__(self, "objects", objects)
        if len(objects) == 0:
            raise StructuralError("universe must contain at least one object")
        # the type first: an unhashable name would break the uniqueness check
        if any(not isinstance(o, str) or not o for o in objects):
            raise StructuralError("universe object names must be non-empty strings")
        if len(set(objects)) != len(objects):
            raise StructuralError("universe object names must be unique")
        object.__setattr__(self, "_pos", {name: i for i, name in enumerate(objects)})

    @property
    def size(self) -> int:
        return len(self.objects)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]  # type: ignore[attr-defined]
        except KeyError:
            raise StructuralError(f"unknown object: {name!r}") from None

    def names(self, indices: Iterable[int]) -> tuple[str, ...]:
        """Object names for an index set, in canonical order."""
        return tuple(self.objects[i] for i in sorted(set(indices)))


@dataclass(frozen=True)
class FuzzySet:
    """Membership vector over a universe, degrees in micro-units."""

    universe: Universe
    memberships: tuple[int, ...]

    def __post_init__(self):
        ms = tuple(self.memberships)
        object.__setattr__(self, "memberships", ms)
        if len(ms) != self.universe.size:
            raise StructuralError(
                f"membership vector length {len(ms)} != universe size {self.universe.size}"
            )
        for v in ms:
            if not isinstance(v, int) or not 0 <= v <= MICRO:
                raise StructuralError(f"membership out of range: {v!r}")

    @classmethod
    def from_strings(cls, universe: Universe, degrees: Sequence[str]) -> "FuzzySet":
        return cls(universe, tuple(parse_degree(d) for d in degrees))

    @classmethod
    def from_names(cls, universe: Universe, members: Iterable[str]) -> "FuzzySet":
        """Characteristic (0/1) vector of a crisp subset given by names."""
        idx = {universe.index(m) for m in members}
        return cls(universe, tuple(MICRO if i in idx else 0 for i in range(universe.size)))

    @classmethod
    def empty(cls, universe: Universe) -> "FuzzySet":
        return cls(universe, (0,) * universe.size)

    @classmethod
    def whole(cls, universe: Universe) -> "FuzzySet":
        return cls(universe, (MICRO,) * universe.size)

    def _check_same_universe(self, other: "FuzzySet") -> None:
        if self.universe != other.universe:
            raise StructuralError("fuzzy sets defined over different universes")

    def union(self, other: "FuzzySet") -> "FuzzySet":
        self._check_same_universe(other)
        return FuzzySet(
            self.universe,
            tuple(max(a, b) for a, b in zip(self.memberships, other.memberships)),
        )

    def intersect(self, other: "FuzzySet") -> "FuzzySet":
        self._check_same_universe(other)
        return FuzzySet(
            self.universe,
            tuple(min(a, b) for a, b in zip(self.memberships, other.memberships)),
        )

    def complement(self) -> "FuzzySet":
        return FuzzySet(self.universe, tuple(MICRO - v for v in self.memberships))

    def subset_of(self, other: "FuzzySet") -> bool:
        self._check_same_universe(other)
        return all(a <= b for a, b in zip(self.memberships, other.memberships))

    def sigma_count(self) -> int:
        """Sum of all degrees (fuzzy cardinality), in micro-units."""
        return sum(self.memberships)

    def is_crisp(self) -> bool:
        return all(v in (0, MICRO) for v in self.memberships)

    def support(self) -> tuple[str, ...]:
        return tuple(
            name for name, v in zip(self.universe.objects, self.memberships) if v > 0
        )

    def degree_strings(self) -> tuple[str, ...]:
        """Each degree as a decimal string; each distinct value is formatted once."""
        return tuple(format_each(self.memberships))


@dataclass(frozen=True)
class ValidationReport:
    """Per-clause violations found in a covering family; empty means valid."""

    covering: str
    empty_members: tuple[str, ...]
    uncovered: tuple[tuple[str, int], ...]  # (object name, max degree reached)

    @property
    def ok(self) -> bool:
        return not self.empty_members and not self.uncovered

    def describe(self) -> str:
        if self.ok:
            return f"covering {self.covering!r}: valid"
        lines = [f"covering {self.covering!r}: invalid"]
        for m in self.empty_members:
            lines.append(f"  member {m!r} is empty (all degrees 0)")
        for obj, best in self.uncovered:
            lines.append(
                f"  object {obj!r} uncovered: max degree {format_scaled(best)} < gamma"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class FuzzyCovering:
    """Named family of fuzzy sets with a covering threshold gamma in (0, 1]."""

    name: str
    universe: Universe
    members: tuple[tuple[str, FuzzySet], ...]
    gamma: int
    # each member's degrees as packed lanes (`lanes.pack`), packed once here
    packed: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple((str(n), s) for n, s in self.members)
        object.__setattr__(self, "members", members)
        if len(members) == 0:
            raise StructuralError(f"covering {self.name!r} has no members")
        names = [n for n, _ in members]
        if len(set(names)) != len(names):
            raise StructuralError(f"covering {self.name!r} has duplicate member names")
        for n, s in members:
            if s.universe != self.universe:
                raise StructuralError(
                    f"member {n!r} of covering {self.name!r} is over a different universe"
                )
        if not isinstance(self.gamma, int):
            raise StructuralError(f"gamma must be an int of micro-units, got {self.gamma!r}")
        if not 0 < self.gamma <= MICRO:
            raise StructuralError(
                f"gamma must be in (0, 1], got {format_scaled(self.gamma)}"
            )
        object.__setattr__(self, "packed", tuple(lanes.pack(s.memberships) for _, s in members))

    @property
    def member_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.members)

    @property
    def member_sets(self) -> tuple[FuzzySet, ...]:
        return tuple(s for _, s in self.members)

    def member(self, name: str) -> FuzzySet:
        for n, s in self.members:
            if n == name:
                return s
        raise StructuralError(f"covering {self.name!r} has no member {name!r}")

    def is_crisp(self) -> bool:
        return all(s.is_crisp() for s in self.member_sets)

    def cuts(self) -> tuple[int, ...]:
        """Each member's gamma-cut: bit 31 of each lane where its degree reaches gamma."""
        gamma, n = self.gamma, self.universe.size
        return tuple(lanes.at_least(v, gamma, n) for v in self.packed)


def validate_covering(covering: FuzzyCovering) -> ValidationReport:
    """Check both covering conditions; reports violations, never raises."""
    empty = tuple(n for n, s in covering.members if not any(s.memberships))
    covered, n = functools.reduce(int.__or__, covering.cuts()), covering.universe.size
    uncovered = ()
    if covered.bit_count() < n:  # some lane is in no cut: read its degrees only now
        columns = zip(covering.universe.objects, lanes.unpack(covered, n),
                      *(s.memberships for s in covering.member_sets))
        uncovered = tuple((obj, max(degrees)) for obj, hit, *degrees in columns if not hit)
    return ValidationReport(covering.name, empty, uncovered)


def _valid(covering: FuzzyCovering) -> FuzzyCovering:
    """`covering` when `validate_covering` finds it valid; else ValidationError with the report."""
    report = validate_covering(covering)
    if not report.ok:
        raise ValidationError(report)
    return covering


def build_covering_from_reports(
    name: str,
    reports: Sequence[tuple[str, Sequence[tuple[str, FuzzySet]]]],
    gamma: int,
) -> FuzzyCovering:
    """Union same-named expert sets pointwise into one covering member each.

    All experts must supply the same value-name list over the same universe;
    the resulting family must satisfy the gamma-covering conditions.
    """
    if not reports:
        raise StructuralError("no expert reports given")
    first_expert, first_sets = reports[0]
    value_names = [n for n, _ in first_sets]
    universe = first_sets[0][1].universe if first_sets else None
    if universe is None:
        raise StructuralError(f"expert {first_expert!r} supplied no sets")
    for expert, sets in reports[1:]:
        names = [n for n, _ in sets]
        if names != value_names:
            raise StructuralError(
                f"expert {expert!r} value names {names} != {value_names}"
            )
    # one column per value name: that name's set from every expert, in report order
    columns = zip(*((s for _, s in sets) for _, sets in reports))
    members = tuple(
        (n, functools.reduce(FuzzySet.union, column))
        for n, column in zip(value_names, columns)
    )
    return _valid(FuzzyCovering(name, universe, members, gamma))


@dataclass(frozen=True)
class ApproximationSpace:
    """A universe with one validated gamma-covering."""

    universe: Universe
    covering: FuzzyCovering

    def __post_init__(self):
        if self.covering.universe != self.universe:
            raise StructuralError("covering is over a different universe")
        _valid(self.covering)


@dataclass(frozen=True)
class MultiGranulationSystem:
    """A universe with a family of validated coverings, each with its own gamma."""

    universe: Universe
    coverings: tuple[FuzzyCovering, ...]

    def __post_init__(self):
        coverings = tuple(self.coverings)
        object.__setattr__(self, "coverings", coverings)
        if len(coverings) == 0:
            raise StructuralError("system needs at least one covering")
        names = [c.name for c in coverings]
        if len(set(names)) != len(names):
            raise StructuralError("covering names must be unique")
        for c in coverings:
            if c.universe != self.universe:
                raise StructuralError(f"covering {c.name!r} is over a different universe")
            _valid(c)

    @property
    def size(self) -> int:
        return len(self.coverings)

    def covering(self, name: str) -> FuzzyCovering:
        for c in self.coverings:
            if c.name == name:
                return c
        raise StructuralError(f"no covering named {name!r}")

    def space(self, name: str | None = None) -> ApproximationSpace:
        if name is None:
            if len(self.coverings) != 1:
                raise ParameterError(
                    "system has several coverings; pick one by name "
                    f"(available: {', '.join(c.name for c in self.coverings)})"
                )
            chosen = self.coverings[0]
        else:
            chosen = self.covering(name)
        return ApproximationSpace(self.universe, chosen)


def _require_micro_units(name: str, value) -> None:
    if not isinstance(value, int):
        raise ParameterError(f"{name} must be an int of micro-units, got {value!r}")


@dataclass(frozen=True)
class ThresholdPair:
    """Probabilistic thresholds 0 <= beta <= alpha <= 1 (micro-units)."""

    alpha: int
    beta: int

    def __post_init__(self):
        _require_micro_units("alpha", self.alpha)
        _require_micro_units("beta", self.beta)
        if not (0 <= self.beta <= self.alpha <= MICRO):
            raise ParameterError(
                f"need 0 <= beta <= alpha <= 1, got alpha={format_scaled(self.alpha)} "
                f"beta={format_scaled(self.beta)}"
            )

    @classmethod
    def from_strings(cls, alpha: str, beta: str) -> "ThresholdPair":
        return cls(parse_degree(alpha), parse_degree(beta))


@dataclass(frozen=True)
class Grade:
    """Absolute grade threshold k (micro-units).

    Negative k parses and evaluates literally (upper approximation becomes the
    whole universe, lower becomes empty); invariants are only claimed for k >= 0.
    """

    k: int

    def __post_init__(self):
        _require_micro_units("k", self.k)

    @classmethod
    def from_string(cls, k: str) -> "Grade":
        return cls(parse_scaled(k))


ThresholdVector = tuple[ThresholdPair, ...]
GradeVector = tuple[Grade, ...]
