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

Every operator has one shape: `flags` gives each object a lower and an upper
flag from the selected tests.  prob and grade run one test each; the
double-quantitative operators run both and join each object's two flags with
`all` (dq1) or `any` (dq2), which makes their decomposition into
intersections/unions of the one-test operators an exact identity.  Regions
are the set algebra of one (lower, upper) pair, and the multi-granulation
operators (multi.py) fold the flags of each covering with `all`/`any`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact import MICRO, format_scaled, ratio_ge
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


def _check_target(table: NeighborhoodTable, target: FuzzySet) -> None:
    if target.universe != table.universe:
        raise ParameterError("target set is over a different universe")


def _meet_sums(table: NeighborhoodTable, xs: tuple[int, ...]) -> tuple[int, ...]:
    """sum(xs & N_x) per object: one sum per distinct row, then broadcast."""
    per_row = [sum(map(min, xs, row.memberships)) for row in table.distinct]
    return tuple(map(per_row.__getitem__, table.index))


def overlap_sums(table: NeighborhoodTable, target: FuzzySet) -> tuple[int, ...]:
    """sum(X & N_x) per object, micro-units."""
    _check_target(table, target)
    return _meet_sums(table, target.memberships)


def mass_sums(
    table: NeighborhoodTable, target: FuzzySet, mode: ResidualMode
) -> tuple[int, ...]:
    """Residual mass per object under the selected reading, micro-units."""
    _check_target(table, target)
    if mode is ResidualMode.RESIDUAL:
        ov = overlap_sums(table, target)
        return tuple(s - o for s, o in zip(table.sigma, ov))
    return _meet_sums(table, target.complement().memberships)


def cond_prob(table: NeighborhoodTable, target: FuzzySet, name: str) -> Fraction:
    """Exact conditional probability of the target given the neighborhood of x."""
    _check_target(table, target)
    i = table.universe.index(name)
    num = sum(map(min, target.memberships, table.rows[i].memberships))
    return Fraction(num, table.sigma[i])


def flags(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair | None = None,
    k: Grade | None = None,
    mode: ResidualMode = ResidualMode.RESIDUAL,
    join=all,
) -> tuple[list[bool], list[bool]]:
    """Per-object (lower, upper) flags of the selected tests.

    The prob tests (P >= alpha, P >= beta) run when `t` is given, the grade
    tests (mass <= k, overlap > k) when `k` is given; with both, each object's
    two lower flags and two upper flags are joined by `join` (`all` for dq1,
    `any` for dq2).
    """
    ov = overlap_sums(table, target)
    tests = []
    if t is not None:
        tests.append((
            [ratio_ge(o, s, t.alpha) for o, s in zip(ov, table.sigma)],
            [ratio_ge(o, s, t.beta) for o, s in zip(ov, table.sigma)],
        ))
    if k is not None:
        mass = mass_sums(table, target, mode)
        tests.append(([m <= k.k for m in mass], [o > k.k for o in ov]))
    lowers, uppers = zip(*tests)
    return list(map(join, zip(*lowers))), list(map(join, zip(*uppers)))


def approximation(
    objects: tuple[str, ...],
    operator: str,
    params: tuple[tuple[str, str], ...],
    lower_upper: tuple[list[bool], list[bool]],
) -> ApproximationResult:
    """The objects flagged lower and upper, in universe order."""
    lower, upper = lower_upper
    return ApproximationResult(
        operator,
        params,
        tuple(n for n, f in zip(objects, lower) if f),
        tuple(n for n, f in zip(objects, upper) if f),
    )


def _approx(
    table: NeighborhoodTable,
    target: FuzzySet,
    operator: str,
    t: ThresholdPair | None = None,
    k: Grade | None = None,
    mode: ResidualMode = ResidualMode.RESIDUAL,
    join=all,
) -> ApproximationResult:
    params = []
    if t is not None:
        params += [("alpha", format_scaled(t.alpha)), ("beta", format_scaled(t.beta))]
    if k is not None:
        params += [("k", format_scaled(k.k)), ("residual_mode", mode.value)]
    return approximation(
        table.universe.objects, operator, tuple(params),
        flags(table, target, t, k, mode, join),
    )


def _partition(
    table: NeighborhoodTable, kind: str, lower_upper: tuple[list[bool], list[bool]]
) -> RegionPartition:
    """POS = lower & upper, NEG = neither, LBO = lower - upper,
    UBO = upper - lower, BOU = LBO | UBO; the three-way split omits LBO/UBO."""
    objects = table.universe.objects
    lower, upper = lower_upper
    cells = {(True, True): [], (False, False): [], (True, False): [], (False, True): []}
    for name, lo, up in zip(objects, lower, upper):
        cells[lo, up].append(name)
    pos, neg, lbo, ubo = map(tuple, cells.values())
    bou = tuple(n for n, lo, up in zip(objects, lower, upper) if lo != up)
    if kind == "three":
        return RegionPartition(kind, pos, bou, neg)
    return RegionPartition(kind, pos, bou, neg, lbo, ubo)


def prob_approx(
    table: NeighborhoodTable, target: FuzzySet, t: ThresholdPair
) -> ApproximationResult:
    """Probabilistic approximations: lower = {P >= alpha}, upper = {P >= beta}."""
    return _approx(table, target, "prob", t=t)


def prob_regions(
    table: NeighborhoodTable, target: FuzzySet, t: ThresholdPair
) -> RegionPartition:
    """Three-way partition: POS = {P >= alpha}, BOU = {beta <= P < alpha}, NEG rest.

    beta <= alpha makes lower a subset of upper, so this is the split of
    `_partition` without its LBO (always empty) and UBO (= BOU) parts.
    """
    return _partition(table, "three", flags(table, target, t=t))


def grade_approx(
    table: NeighborhoodTable,
    target: FuzzySet,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """Grade approximations: upper = {overlap > k}, lower = {mass <= k}."""
    return _approx(table, target, "grade", k=k, mode=mode)


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
    return _partition(table, "five", flags(table, target, k=k, mode=mode))


def dq_disjunctive(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """dq1: both tests must pass: lower = {P >= alpha and mass <= k}, upper likewise."""
    return _approx(table, target, "dq1", t, k, mode, all)


def dq_conjunctive(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """dq2: either test suffices: lower = {P >= alpha or mass <= k}, upper likewise."""
    return _approx(table, target, "dq2", t, k, mode, any)


@dataclass(frozen=True)
class ThresholdFormEntry:
    object: str
    overlap: int
    sigma: int
    mass: int
    upper_strict: bool          # overlap > k (definitional)
    upper_nonstrict: bool       # P >= k/sigma (the drifted restatement)
    upper_ratio_strict: bool    # P > k/sigma
    lower_defn: bool            # mass <= k
    lower_ratio: bool           # P >= 1 - k/sigma
    prob_lower_agree: bool      # P >= alpha vs sum form
    prob_upper_agree: bool      # P >= beta vs sum form
    flagged: bool               # strict vs non-strict upper readings disagree


@dataclass(frozen=True)
class ThresholdFormReport:
    entries: tuple[ThresholdFormEntry, ...]

    @property
    def flagged(self) -> tuple[str, ...]:
        return tuple(e.object for e in self.entries if e.flagged)

    @property
    def equivalences_hold(self) -> bool:
        """Strictness-corrected ratio forms must match the defining predicates."""
        return all(
            e.upper_strict == e.upper_ratio_strict
            and e.lower_defn == e.lower_ratio
            and e.prob_lower_agree
            and e.prob_upper_agree
            for e in self.entries
        )


def threshold_form_check(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
) -> ThresholdFormReport:
    """Cross-check grade predicates against their ratio restatements.

    With sigma > 0: overlap > k iff P > k/sigma (strict both sides), and for
    the residual reading mass <= k iff P >= 1 - k/sigma.  The ratio side is
    evaluated through Fraction arithmetic as an independent route.  A
    non-strict upper restatement (P >= k/sigma) disagrees with the defining
    strict predicate exactly when overlap == k; those objects are flagged.
    """
    ov = overlap_sums(table, target)
    mass = mass_sums(table, target, ResidualMode.RESIDUAL)
    entries = []
    for name, o, s, m in zip(table.universe.objects, ov, table.sigma, mass):
        p = Fraction(o, s)
        k_ratio = Fraction(k.k, s)
        upper_strict = o > k.k
        upper_ratio_strict = p > k_ratio
        upper_nonstrict = p >= k_ratio
        lower_defn = m <= k.k
        lower_ratio = p >= 1 - k_ratio
        prob_lower_agree = (p >= Fraction(t.alpha, MICRO)) == ratio_ge(o, s, t.alpha)
        prob_upper_agree = (p >= Fraction(t.beta, MICRO)) == ratio_ge(o, s, t.beta)
        entries.append(
            ThresholdFormEntry(
                name, o, s, m,
                upper_strict, upper_nonstrict, upper_ratio_strict,
                lower_defn, lower_ratio,
                prob_lower_agree, prob_upper_agree,
                flagged=upper_strict != upper_nonstrict,
            )
        )
    return ThresholdFormReport(tuple(entries))


def diagnostics(table: NeighborhoodTable, target: FuzzySet) -> list[dict[str, str]]:
    """Per-object exact quantities for result files."""
    ov = overlap_sums(table, target)
    res = mass_sums(table, target, ResidualMode.RESIDUAL)
    comp = mass_sums(table, target, ResidualMode.COMPLEMENT)
    out = []
    for name, o, s, r, c in zip(table.universe.objects, ov, table.sigma, res, comp):
        out.append(
            {
                "object": name,
                "overlap": format_scaled(o),
                "sigma": format_scaled(s),
                "p": str(Fraction(o, s)),
                "residual_mass": format_scaled(r),
                "complement_mass": format_scaled(c),
            }
        )
    return out
