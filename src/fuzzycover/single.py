"""Single-covering approximation operators.

Two quantitative tests drive everything:

  relative:  P(X | N_x) = sum(X & N_x) / sum(N_x), compared against alpha/beta
             with >= (inclusive);
  absolute:  overlap(x) = sum(X & N_x) compared against a grade k, strict >
             for upper approximations, and a residual mass compared with <= k
             for lower approximations.

The residual mass has two readings that coincide on crisp target sets but not
on fuzzy ones:

  residual:    sum(N_x) - sum(X & N_x)
  complement:  sum((1 - X) & N_x)

`residual` is the default; `complement` is available for textual fidelity to
the alternative formula.

Both sums are one pass over the table's d distinct rows: the target is packed
once and each row costs one exact lane meet-sum (`lanes.meet_sums`), a few
big-int operations and a C-level sum, not one Python `min` per degree.  Sums,
masses and test outcomes stay one per row; each per-object answer reads its
row through the table's index once.  A table keeps the sums of each target
vector it has seen, so the row pass runs once per (table, target vector):
every later operator, region split, diagnostic, sweep point or residual mass
over the same table and vector reads them back.

Every operator is one fold: `flags` takes a list of (table, t, k) tests, runs
the prob tests of each entry that has `t` and the grade tests of each that has
`k`, and joins every selected test per object with one `all` or `any`.  prob
and grade are one entry with one test; dq1 and dq2 are one entry with both,
joined by `all` or `any`, so they are exactly the intersection or union of
the one-test operators.  The multi-granulation operators (multi.py) are one
entry per covering under the same join.  `approximation` turns the flags
into object sets with one parameter echo for every family, and regions are
the set algebra of one (lower, upper) pair, each region one `compress` pass
over the flags.

Diagnostics stay per row as well: `diagnostics` returns a `Diagnostics`
value holding the d formatted rows, the table's index and the object names,
which reads as the sequence of per-object entries and which the writers in
`sysio` render without building one dict per object.

Diagnostics write P as `exact.format_ratio` does, the text of
`fractions.Fraction`; only `cond_prob`, which returns a Fraction, and
`threshold_form_check`, which checks the ratio forms with Fractions, import
`fractions`, where they run, so no command loads it.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import compress

from . import lanes
from .exact import MICRO, format_ratio, format_scaled, ratio_ge
from .model import FuzzySet, Grade, ParameterError, ThresholdPair
from .neighborhood import NeighborhoodTable


class ResidualMode(Enum):
    RESIDUAL = "residual"
    COMPLEMENT = "complement"


@dataclass(frozen=True)
class ApproximationResult:
    """Lower/upper object sets in canonical order, with a parameter echo."""

    operator: str
    params: tuple[tuple[str, str], ...]
    lower: tuple[str, ...]
    upper: tuple[str, ...]

    @property
    def lower_set(self) -> frozenset[str]:
        return frozenset(self.lower)

    @property
    def upper_set(self) -> frozenset[str]:
        return frozenset(self.upper)


@dataclass(frozen=True)
class RegionPartition:
    """Three-way (pos/bou/neg) or five-way (pos/neg/lbo/ubo/bou) regions."""

    kind: str  # "three" | "five"
    pos: tuple[str, ...]
    bou: tuple[str, ...]
    neg: tuple[str, ...]
    lbo: tuple[str, ...] | None = None
    ubo: tuple[str, ...] | None = None

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        d = {"POS": self.pos, "BOU": self.bou, "NEG": self.neg}
        if self.kind == "five":
            d["LBO"] = self.lbo or ()
            d["UBO"] = self.ubo or ()
        return d


# one entry of the list `flags` folds: a table with its prob and grade parameters
Test = tuple[NeighborhoodTable, ThresholdPair | None, Grade | None]


def _check_target(table: NeighborhoodTable, target: FuzzySet) -> None:
    if target.universe != table.universe:
        raise ParameterError("target set is over a different universe")


def _meet_sums(table: NeighborhoodTable, xs: tuple[int, ...]) -> tuple[int, ...]:
    """sum(xs & N) per distinct row N: one lane meet-sum each.

    The first call for a vector walks the rows and stores the result in
    `table.sums`; equal vectors have equal sums, so later calls read it back.
    This is the package's one row pass: every overlap, mass and P reads it.
    """
    sums = table.sums.get(xs)
    if sums is None:
        sums = table.sums[xs] = tuple(lanes.meet_sums(lanes.pack(xs), table.packed, len(xs)))
    return sums


def _spread(table: NeighborhoodTable, per_row):
    """One value per object, in universe order: the value of its distinct row."""
    return map(per_row.__getitem__, table.index)


def overlap_sums(table: NeighborhoodTable, target: FuzzySet) -> tuple[int, ...]:
    """sum(X & N) per distinct row N of the table, micro-units."""
    _check_target(table, target)
    return _meet_sums(table, target.memberships)


def mass_sums(
    table: NeighborhoodTable, target: FuzzySet, mode: ResidualMode
) -> tuple[int, ...]:
    """Residual mass per distinct row under the selected reading, micro-units."""
    _check_target(table, target)
    if mode is ResidualMode.RESIDUAL:
        ov = overlap_sums(table, target)
        return tuple(s - o for s, o in zip(table.distinct_sigma, ov))
    return _meet_sums(table, tuple(map(MICRO.__sub__, target.memberships)))


def cond_prob(table: NeighborhoodTable, target: FuzzySet, name: str):
    """Exact conditional probability of the target given the neighborhood of x, a Fraction."""
    from fractions import Fraction  # no command reads it

    ov = overlap_sums(table, target)
    j = table.index[table.universe.index(name)]
    return Fraction(ov[j], table.distinct_sigma[j])


def flags(
    target: FuzzySet,
    tests: list[Test],
    mode: ResidualMode = ResidualMode.RESIDUAL,
    join=all,
) -> tuple[list[bool], list[bool]]:
    """Per-object (lower, upper) flags: every selected test of every entry, joined.

    An entry (table, t, k) runs the prob tests (P >= alpha, P >= beta) when `t`
    is given and the grade tests (mass <= k, overlap > k) when `k` is given,
    each on the d rows, then spread to the objects.  Each object's lower flags
    from all entries are joined by `join`, and so are its upper flags (`all`
    for dq1 and the ALL folds, `any` for dq2 and ANY).
    """
    lowers, uppers = [], []
    for table, t, k in tests:
        ov, sigma = overlap_sums(table, target), table.distinct_sigma
        if t is not None:
            lowers.append(_spread(table, [ratio_ge(o, s, t.alpha) for o, s in zip(ov, sigma)]))
            uppers.append(_spread(table, [ratio_ge(o, s, t.beta) for o, s in zip(ov, sigma)]))
        if k is not None:
            lowers.append(_spread(table, [m <= k.k for m in mass_sums(table, target, mode)]))
            uppers.append(_spread(table, [o > k.k for o in ov]))
    return list(map(join, zip(*lowers))), list(map(join, zip(*uppers)))


def approximation(
    operator: str,
    target: FuzzySet,
    tests: list[Test],
    mode: ResidualMode = ResidualMode.RESIDUAL,
    join=all,
    combinator: str | None = None,
) -> ApproximationResult:
    """The objects `flags` marks lower and upper, in universe order, with the
    parameters echoed: alpha, beta and k for one covering; for an mg fold
    (`combinator` given) alphas, betas and ks, one value per covering, and the
    combinator.  The residual mode follows whenever a grade is read.
    """
    ts = [t for _, t, _ in tests if t is not None]
    ks = [k for _, _, k in tests if k is not None]
    plural = "s" * (combinator is not None)
    params = []
    if ts:
        params += [
            (f"alpha{plural}", ",".join(format_scaled(t.alpha) for t in ts)),
            (f"beta{plural}", ",".join(format_scaled(t.beta) for t in ts)),
        ]
    if ks:
        params.append((f"k{plural}", ",".join(format_scaled(k.k) for k in ks)))
    if combinator is not None:
        params.append(("combinator", combinator))
    if ks:
        params.append(("residual_mode", mode.value))
    objects = target.universe.objects
    lower, upper = flags(target, tests, mode, join)
    return ApproximationResult(
        operator, tuple(params), tuple(compress(objects, lower)), tuple(compress(objects, upper))
    )


def _partition(
    table: NeighborhoodTable, kind: str, lower_upper: tuple[list[bool], list[bool]]
) -> RegionPartition:
    """POS = lower & upper, NEG = neither, LBO = lower - upper,
    UBO = upper - lower, BOU = LBO | UBO; the three-way split omits LBO/UBO."""
    objects = table.universe.objects
    lower, upper = lower_upper

    def where(test, *flag_lists):
        return tuple(compress(objects, map(test, *flag_lists)))

    pos, bou = where(operator.and_, lower, upper), where(operator.ne, lower, upper)
    neg = where(operator.not_, map(operator.or_, lower, upper))
    if kind == "three":
        return RegionPartition(kind, pos, bou, neg)
    return RegionPartition(kind, pos, bou, neg, where(operator.gt, lower, upper),
                           where(operator.lt, lower, upper))


def prob_approx(
    table: NeighborhoodTable, target: FuzzySet, t: ThresholdPair
) -> ApproximationResult:
    """Probabilistic approximations: lower = {P >= alpha}, upper = {P >= beta}."""
    return approximation("prob", target, [(table, t, None)])


def prob_regions(
    table: NeighborhoodTable, target: FuzzySet, t: ThresholdPair
) -> RegionPartition:
    """Three-way partition: POS = {P >= alpha}, BOU = {beta <= P < alpha}, NEG rest.

    beta <= alpha makes lower a subset of upper, so this is the split of
    `_partition` without its LBO (always empty) and UBO (= BOU) parts.
    """
    return _partition(table, "three", flags(target, [(table, t, None)]))


def grade_approx(
    table: NeighborhoodTable,
    target: FuzzySet,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """Grade approximations: upper = {overlap > k}, lower = {mass <= k}."""
    return approximation("grade", target, [(table, None, k)], mode)


def grade_regions(
    table: NeighborhoodTable,
    target: FuzzySet,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> RegionPartition:
    """Five-way regions from the grade approximations.

    POS = upper & lower, NEG = complement of their union, LBO = lower - upper,
    UBO = upper - lower, BOU = LBO | UBO.
    """
    return _partition(table, "five", flags(target, [(table, None, k)], mode))


def dq_disjunctive(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """dq1: both tests must pass: lower = {P >= alpha and mass <= k}, upper likewise."""
    return approximation("dq1", target, [(table, t, k)], mode, all)


def dq_conjunctive(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """dq2: either test suffices: lower = {P >= alpha or mass <= k}, upper likewise."""
    return approximation("dq2", target, [(table, t, k)], mode, any)


@dataclass(frozen=True)
class ThresholdFormReport:
    flagged: tuple[str, ...]  # objects where overlap > k and P >= k/sigma disagree
    equivalences_hold: bool   # every strictness-corrected ratio form matches its predicate


def threshold_form_check(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
) -> ThresholdFormReport:
    """Cross-check grade predicates against their ratio restatements.

    With sigma > 0: overlap > k iff P > k/sigma (strict both sides), and for
    the residual reading mass <= k iff P >= 1 - k/sigma.  The ratio side is
    evaluated through Fraction arithmetic as an independent route, and so are
    the prob tests P >= alpha and P >= beta.  A non-strict upper restatement
    (P >= k/sigma) disagrees with the defining strict predicate exactly when
    overlap == k; those objects are flagged.
    """
    from fractions import Fraction  # only the differential check runs this

    ov = overlap_sums(table, target)
    mass = mass_sums(table, target, ResidualMode.RESIDUAL)
    flagged, hold = [], True
    for o, s, m in zip(ov, table.distinct_sigma, mass):
        p, k_ratio = Fraction(o, s), Fraction(k.k, s)
        flagged.append((o > k.k) != (p >= k_ratio))
        hold = hold and (
            (o > k.k) == (p > k_ratio)
            and (m <= k.k) == (p >= 1 - k_ratio)
            and (p >= Fraction(t.alpha, MICRO)) == ratio_ge(o, s, t.alpha)
            and (p >= Fraction(t.beta, MICRO)) == ratio_ge(o, s, t.beta)
        )
    names = compress(table.universe.objects, _spread(table, flagged))
    return ThresholdFormReport(tuple(names), hold)


class Diagnostics(Sequence):
    """Per-object exact quantities, held once per distinct row.

    `rows` holds the formatted values of each distinct row, `index` each
    object's row and `names` the object names, in universe order.  As a
    read-only sequence it gives one `{"object": name, **row}` dict per object;
    the writers in `sysio` read the three fields and never build those dicts.
    """

    __slots__ = ("rows", "index", "names")

    def __init__(self, rows: list[dict[str, str]], index, names: tuple[str, ...]):
        self.rows, self.index, self.names = rows, index, names

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> dict[str, str]:
        return {"object": self.names[i], **self.rows[self.index[i]]}


def diagnostics(table: NeighborhoodTable, target: FuzzySet) -> Diagnostics:
    """Per-object exact quantities for result files.

    Every value depends only on the object's row, so each distinct row is
    formatted once, and the objects that have it share it through the index.
    """
    ov = overlap_sums(table, target)
    res = mass_sums(table, target, ResidualMode.RESIDUAL)
    comp = mass_sums(table, target, ResidualMode.COMPLEMENT)
    rows = [
        {
            "overlap": format_scaled(o),
            "sigma": format_scaled(s),
            "p": format_ratio(o, s),
            "residual_mass": format_scaled(r),
            "complement_mass": format_scaled(c),
        }
        for o, s, r, c in zip(ov, table.distinct_sigma, res, comp)
    ]
    return Diagnostics(rows, table.index, table.universe.objects)
