"""Multi-granulation fusion over a family of coverings.

Each covering contributes its own neighborhoods (using its own gamma) and its
own parameter slot: one (table, t, k) entry of the test list that
`single.flags` folds.  The combinator is the one join over every test of
every covering:

  ALL (type I):  every covering must pass its test  (per-object conjunction),
  ANY (type II): some covering must pass its test   (per-object disjunction).

The double-quantitative fusion joins each covering's two tests with the same
combinator: under ALL every covering must pass both, under ANY some covering
must pass either (Qian et al., "MGRS: A multi-granulation rough set", 2010).
Conjunction/disjunction distributes over the per-covering predicates, so each
fused operator equals the intersection/union of the per-covering results; the
set identities are enforced by the test suite and the brute-force checker.
"""

from __future__ import annotations

from itertools import repeat

from .model import (
    FuzzySet,
    Grade,
    GradeVector,
    MultiGranulationSystem,
    ParameterError,
    ThresholdPair,
    ThresholdVector,
)
from .neighborhood import build_table
from .single import ApproximationResult, ResidualMode, approximation


class Combinator:
    ALL = "all"   # type I: conjunction over coverings
    ANY = "any"   # type II: disjunction over coverings


def vector_leq(a, b) -> bool:
    """Componentwise order on threshold vectors or grade vectors."""
    if len(a) != len(b):
        raise ParameterError(f"vector lengths differ: {len(a)} != {len(b)}")
    if all(isinstance(x, ThresholdPair) for x in a + b):
        return all(
            x.alpha <= y.alpha and x.beta <= y.beta for x, y in zip(a, b)
        )
    if all(isinstance(x, Grade) for x in a + b):
        return all(x.k <= y.k for x, y in zip(a, b))
    raise ParameterError("vectors must both hold threshold pairs or both hold grades")


def _fold(
    system: MultiGranulationSystem,
    target: FuzzySet,
    family: str,
    combinator: str,
    thresholds: ThresholdVector | None = None,
    grades: GradeVector | None = None,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """One `approximation` over one (table, t, k) test per covering."""
    for what, vector in (("threshold", thresholds), ("grade", grades)):
        if vector is not None and len(vector) != system.size:
            raise ParameterError(
                f"{what} vector length {len(vector)} != covering count {system.size}"
            )
    tests = [
        (build_table(system.space(c.name)), t, k)
        for c, t, k in zip(system.coverings, thresholds or repeat(None), grades or repeat(None))
    ]
    join = all if combinator == Combinator.ALL else any
    return approximation(f"mg-{family}-{combinator}", target, tests, mode, join, combinator)


def mg_prob(
    system: MultiGranulationSystem,
    target: FuzzySet,
    thresholds: ThresholdVector,
    combinator: str,
) -> ApproximationResult:
    """Fused probabilistic approximations across all coverings."""
    return _fold(system, target, "prob", combinator, thresholds=thresholds)


def mg_grade(
    system: MultiGranulationSystem,
    target: FuzzySet,
    grades: GradeVector,
    combinator: str,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """Fused grade approximations across all coverings."""
    return _fold(system, target, "grade", combinator, grades=grades, mode=mode)


def mg_dq(
    system: MultiGranulationSystem,
    target: FuzzySet,
    thresholds: ThresholdVector,
    grades: GradeVector,
    combinator: str,
    mode: ResidualMode = ResidualMode.RESIDUAL,
) -> ApproximationResult:
    """Fused double-quantitative approximations.

    Under ALL each covering must pass both of its tests; under ANY some
    covering must pass either of its tests.
    """
    return _fold(system, target, "dq", combinator, thresholds, grades, mode)
