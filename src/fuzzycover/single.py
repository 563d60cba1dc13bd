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
the alternative formula.  Double-quantitative operators conjoin/disjoin the
two primitive predicates per object, which makes their decomposition into
intersections/unions of the one-test operators an exact identity.
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

    @classmethod
    def from_string(cls, text: str) -> "ResidualMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ParameterError(f"unknown residual mode: {text!r} (use residual|complement)")


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


# per-object primitive predicates (micro-unit integers throughout)

def _prob_pred(overlap: int, sigma: int, threshold: int) -> bool:
    return ratio_ge(overlap, sigma, threshold)


def _grade_upper_pred(overlap: int, k: int) -> bool:
    return overlap > k


def _grade_lower_pred(mass: int, k: int) -> bool:
    return mass <= k


def _names(table: NeighborhoodTable, flags) -> tuple[str, ...]:
    return tuple(n for n, f in zip(table.universe.objects, flags) if f)


def _echo(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple((k, v) for k, v in kwargs.items() if v is not None)


def prob_approx(
    table: NeighborhoodTable, target: FuzzySet, t: ThresholdPair
) -> ApproximationResult:
    """Probabilistic approximations: lower = {P >= alpha}, upper = {P >= beta}."""
    ov = overlap_sums(table, target)
    lower = [_prob_pred(o, s, t.alpha) for o, s in zip(ov, table.sigma)]
    upper = [_prob_pred(o, s, t.beta) for o, s in zip(ov, table.sigma)]
    return ApproximationResult(
        "prob",
        _echo(alpha=format_scaled(t.alpha), beta=format_scaled(t.beta)),
        _names(table, lower),
        _names(table, upper),
    )


def prob_regions(
    table: NeighborhoodTable, target: FuzzySet, t: ThresholdPair
) -> RegionPartition:
    """Three-way partition: POS = {P >= alpha}, BOU = {beta <= P < alpha}, NEG rest."""
    ov = overlap_sums(table, target)
    pos, bou, neg = [], [], []
    for name, o, s in zip(table.universe.objects, ov, table.sigma):
        if ratio_ge(o, s, t.alpha):
            pos.append(name)
        elif ratio_ge(o, s, t.beta):
            bou.append(name)
        else:
            neg.append(name)
    return RegionPartition("three", tuple(pos), tuple(bou), tuple(neg))


def grade_approx(
    table: NeighborhoodTable,
    target: FuzzySet,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """Grade approximations: upper = {overlap > k}, lower = {mass <= k}."""
    ov = overlap_sums(table, target)
    mass = mass_sums(table, target, mode)
    lower = [_grade_lower_pred(m, k.k) for m in mass]
    upper = [_grade_upper_pred(o, k.k) for o in ov]
    return ApproximationResult(
        "grade",
        _echo(k=format_scaled(k.k), residual_mode=mode.value),
        _names(table, lower),
        _names(table, upper),
    )


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
    result = grade_approx(table, target, k, mode)
    lower, upper = result.lower_set, result.upper_set
    objs = table.universe.objects
    pos = tuple(n for n in objs if n in lower and n in upper)
    neg = tuple(n for n in objs if n not in lower and n not in upper)
    lbo = tuple(n for n in objs if n in lower and n not in upper)
    ubo = tuple(n for n in objs if n in upper and n not in lower)
    bou = tuple(n for n in objs if n in lbo or n in ubo)
    return RegionPartition("five", pos, bou, neg, lbo, ubo)


def dq_disjunctive(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """Both tests must pass: lower = {P >= alpha and mass <= k}, upper likewise."""
    ov = overlap_sums(table, target)
    mass = mass_sums(table, target, mode)
    lower = [
        _prob_pred(o, s, t.alpha) and _grade_lower_pred(m, k.k)
        for o, s, m in zip(ov, table.sigma, mass)
    ]
    upper = [
        _prob_pred(o, s, t.beta) and _grade_upper_pred(o, k.k)
        for o, s in zip(ov, table.sigma)
    ]
    return ApproximationResult(
        "dq1",
        _echo(
            alpha=format_scaled(t.alpha),
            beta=format_scaled(t.beta),
            k=format_scaled(k.k),
            residual_mode=mode.value,
        ),
        _names(table, lower),
        _names(table, upper),
    )


def dq_conjunctive(
    table: NeighborhoodTable,
    target: FuzzySet,
    t: ThresholdPair,
    k: Grade,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """Either test suffices: lower = {P >= alpha or mass <= k}, upper likewise."""
    ov = overlap_sums(table, target)
    mass = mass_sums(table, target, mode)
    lower = [
        _prob_pred(o, s, t.alpha) or _grade_lower_pred(m, k.k)
        for o, s, m in zip(ov, table.sigma, mass)
    ]
    upper = [
        _prob_pred(o, s, t.beta) or _grade_upper_pred(o, k.k)
        for o, s in zip(ov, table.sigma)
    ]
    return ApproximationResult(
        "dq2",
        _echo(
            alpha=format_scaled(t.alpha),
            beta=format_scaled(t.beta),
            k=format_scaled(k.k),
            residual_mode=mode.value,
        ),
        _names(table, lower),
        _names(table, upper),
    )


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
