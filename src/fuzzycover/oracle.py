"""Independent ground truth for differential testing.

Two families live here:

  * crisp baseline operators over 0/1 coverings (neighborhood intersection,
    cardinality-ratio thresholds, cardinality grades);
  * a deliberately naive re-evaluation of every fuzzy operator that walks the
    raw membership tuples, recomputes each neighborhood from scratch on every
    call and evaluates the defining predicate object by object.

This module must stay independent of the optimized operator code: it imports
only the shared data types.  Results are plain frozensets keyed by object
name so comparisons against the main path are trivial.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import MICRO
from .model import ApproximationSpace, FuzzyCovering, FuzzySet, MultiGranulationSystem

# crisp baseline -------------------------------------------------------------


def _crisp_members(covering: FuzzyCovering) -> list[frozenset[str]]:
    objs = covering.universe.objects
    out = []
    for name, s in covering.members:
        if not s.is_crisp():
            raise ValueError(f"member {name!r} is not 0/1-valued")
        out.append(frozenset(o for o, v in zip(objs, s.memberships) if v == MICRO))
    return out


def crisp_neighborhood(covering: FuzzyCovering, x: str) -> frozenset[str]:
    """Intersection of all members containing x."""
    blocks = [b for b in _crisp_members(covering) if x in b]
    n = blocks[0]
    for b in blocks[1:]:
        n &= b
    return n


def crisp_pawlak(
    covering: FuzzyCovering, x_set: frozenset[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """lower = {x : N(x) subseteq X}, upper = {x : N(x) meets X}."""
    objs = covering.universe.objects
    lower, upper = set(), set()
    for x in objs:
        n = crisp_neighborhood(covering, x)
        if n <= x_set:
            lower.add(x)
        if n & x_set:
            upper.add(x)
    return frozenset(lower), frozenset(upper)


def crisp_prob(
    covering: FuzzyCovering, x_set: frozenset[str], alpha: int, beta: int
) -> dict[str, frozenset[str]]:
    """Cardinality-ratio thresholds; returns lower/upper and the three regions."""
    objs = covering.universe.objects
    lower, upper, pos, bou, neg = set(), set(), set(), set(), set()
    for x in objs:
        n = crisp_neighborhood(covering, x)
        p = Fraction(len(n & x_set), len(n))
        if p >= Fraction(alpha, MICRO):
            lower.add(x)
            pos.add(x)
        elif p >= Fraction(beta, MICRO):
            bou.add(x)
        else:
            neg.add(x)
        if p >= Fraction(beta, MICRO):
            upper.add(x)
    return {
        "lower": frozenset(lower),
        "upper": frozenset(upper),
        "POS": frozenset(pos),
        "BOU": frozenset(bou),
        "NEG": frozenset(neg),
    }


def crisp_grade(
    covering: FuzzyCovering, x_set: frozenset[str], k: int
) -> dict[str, frozenset[str]]:
    """Cardinality grades: upper = {|X & N| > k}, lower = {|X^c & N| <= k}."""
    objs = covering.universe.objects
    all_objs = frozenset(objs)
    lower, upper = set(), set()
    for x in objs:
        n = crisp_neighborhood(covering, x)
        if len(n & x_set) * MICRO > k:
            upper.add(x)
        if len(n & (all_objs - x_set)) * MICRO <= k:
            lower.add(x)
    lo, up = frozenset(lower), frozenset(upper)
    return {
        "lower": lo,
        "upper": up,
        "POS": up & lo,
        "NEG": all_objs - (up | lo),
        "LBO": lo - up,
        "UBO": up - lo,
        "BOU": (lo - up) | (up - lo),
    }


# brute-force fuzzy re-evaluation --------------------------------------------


def _neigh(covering: FuzzyCovering, i: int) -> tuple[int, ...]:
    """Fuzzy gamma-neighborhood of object i, recomputed from scratch."""
    gamma = covering.gamma
    rows = [s.memberships for _, s in covering.members if s.memberships[i] >= gamma]
    return tuple(min(col) for col in zip(*rows))


def _overlap(xs: tuple[int, ...], neigh: tuple[int, ...]) -> int:
    total = 0
    for a, b in zip(xs, neigh):
        total += a if a < b else b
    return total


def _mass(xs: tuple[int, ...], neigh: tuple[int, ...], mode: str) -> int:
    if mode == "residual":
        total = 0
        for a, b in zip(xs, neigh):
            total += b - (a if a < b else b)
        return total
    total = 0
    for a, b in zip(xs, neigh):
        c = MICRO - a
        total += c if c < b else b
    return total


def _prob_ok(xs, covering, i, threshold: int) -> bool:
    n = _neigh(covering, i)
    return _overlap(xs, n) * MICRO >= threshold * sum(n)


def _upper_ok(xs, covering, i, k: int) -> bool:
    return _overlap(xs, _neigh(covering, i)) > k


def _lower_ok(xs, covering, i, k: int, mode: str) -> bool:
    return _mass(xs, _neigh(covering, i), mode) <= k


def _collect(universe, flags) -> frozenset[str]:
    return frozenset(n for n, f in zip(universe.objects, flags) if f)


def prob_approx(
    space: ApproximationSpace, target: FuzzySet, alpha: int, beta: int
) -> tuple[frozenset[str], frozenset[str]]:
    xs = target.memberships
    c = space.covering
    n = space.universe.size
    lower = [_prob_ok(xs, c, i, alpha) for i in range(n)]
    upper = [_prob_ok(xs, c, i, beta) for i in range(n)]
    return _collect(space.universe, lower), _collect(space.universe, upper)


def prob_regions(
    space: ApproximationSpace, target: FuzzySet, alpha: int, beta: int
) -> dict[str, frozenset[str]]:
    xs = target.memberships
    c = space.covering
    pos, bou, neg = [], [], []
    for i, name in enumerate(space.universe.objects):
        at_alpha = _prob_ok(xs, c, i, alpha)
        at_beta = _prob_ok(xs, c, i, beta)
        pos.append(at_alpha)
        bou.append(at_beta and not at_alpha)
        neg.append(not at_beta)
    return {
        "POS": _collect(space.universe, pos),
        "BOU": _collect(space.universe, bou),
        "NEG": _collect(space.universe, neg),
    }


def grade_approx(
    space: ApproximationSpace, target: FuzzySet, k: int, mode: str
) -> tuple[frozenset[str], frozenset[str]]:
    xs = target.memberships
    c = space.covering
    n = space.universe.size
    lower = [_lower_ok(xs, c, i, k, mode) for i in range(n)]
    upper = [_upper_ok(xs, c, i, k) for i in range(n)]
    return _collect(space.universe, lower), _collect(space.universe, upper)


def grade_regions(
    space: ApproximationSpace, target: FuzzySet, k: int, mode: str
) -> dict[str, frozenset[str]]:
    lo, up = grade_approx(space, target, k, mode)
    all_objs = frozenset(space.universe.objects)
    return {
        "POS": up & lo,
        "NEG": all_objs - (up | lo),
        "LBO": lo - up,
        "UBO": up - lo,
        "BOU": (lo - up) | (up - lo),
    }


def dq_disjunctive(
    space: ApproximationSpace, target: FuzzySet, alpha: int, beta: int, k: int, mode: str
) -> tuple[frozenset[str], frozenset[str]]:
    xs = target.memberships
    c = space.covering
    lower, upper = [], []
    for i in range(space.universe.size):
        lower.append(_prob_ok(xs, c, i, alpha) and _lower_ok(xs, c, i, k, mode))
        upper.append(_prob_ok(xs, c, i, beta) and _upper_ok(xs, c, i, k))
    return _collect(space.universe, lower), _collect(space.universe, upper)


def dq_conjunctive(
    space: ApproximationSpace, target: FuzzySet, alpha: int, beta: int, k: int, mode: str
) -> tuple[frozenset[str], frozenset[str]]:
    xs = target.memberships
    c = space.covering
    lower, upper = [], []
    for i in range(space.universe.size):
        lower.append(_prob_ok(xs, c, i, alpha) or _lower_ok(xs, c, i, k, mode))
        upper.append(_prob_ok(xs, c, i, beta) or _upper_ok(xs, c, i, k))
    return _collect(space.universe, lower), _collect(space.universe, upper)


def mg_prob(
    system: MultiGranulationSystem,
    target: FuzzySet,
    alphas: list[int],
    betas: list[int],
    combinator: str,
) -> tuple[frozenset[str], frozenset[str]]:
    xs = target.memberships
    join = all if combinator == "all" else any
    lower, upper = [], []
    for i in range(system.universe.size):
        lower.append(join(_prob_ok(xs, c, i, a) for c, a in zip(system.coverings, alphas)))
        upper.append(join(_prob_ok(xs, c, i, b) for c, b in zip(system.coverings, betas)))
    return _collect(system.universe, lower), _collect(system.universe, upper)


def mg_grade(
    system: MultiGranulationSystem,
    target: FuzzySet,
    ks: list[int],
    combinator: str,
    mode: str,
) -> tuple[frozenset[str], frozenset[str]]:
    xs = target.memberships
    join = all if combinator == "all" else any
    lower, upper = [], []
    for i in range(system.universe.size):
        lower.append(
            join(_lower_ok(xs, c, i, k, mode) for c, k in zip(system.coverings, ks))
        )
        upper.append(join(_upper_ok(xs, c, i, k) for c, k in zip(system.coverings, ks)))
    return _collect(system.universe, lower), _collect(system.universe, upper)


def mg_dq(
    system: MultiGranulationSystem,
    target: FuzzySet,
    alphas: list[int],
    betas: list[int],
    ks: list[int],
    combinator: str,
    mode: str,
) -> tuple[frozenset[str], frozenset[str]]:
    xs = target.memberships
    lower, upper = [], []
    for i in range(system.universe.size):
        if combinator == "all":
            lower.append(
                all(
                    _prob_ok(xs, c, i, a) and _lower_ok(xs, c, i, k, mode)
                    for c, a, k in zip(system.coverings, alphas, ks)
                )
            )
            upper.append(
                all(
                    _prob_ok(xs, c, i, b) and _upper_ok(xs, c, i, k)
                    for c, b, k in zip(system.coverings, betas, ks)
                )
            )
        else:
            lower.append(
                any(
                    _prob_ok(xs, c, i, a) or _lower_ok(xs, c, i, k, mode)
                    for c, a, k in zip(system.coverings, alphas, ks)
                )
            )
            upper.append(
                any(
                    _prob_ok(xs, c, i, b) or _upper_ok(xs, c, i, k)
                    for c, b, k in zip(system.coverings, betas, ks)
                )
            )
    return _collect(system.universe, lower), _collect(system.universe, upper)

