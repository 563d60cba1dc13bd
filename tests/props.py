"""Seeded property suites shared by the quick tests and the acceptance gate.

Each suite draws `count` random instances and checks one law family with
exact set comparisons.  Instances are generated from a deterministic seed so
failures reproduce; every helper returns the number of instances it checked.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fuzzycover import oracle
from fuzzycover.exact import MICRO
from fuzzycover.generate import random_covering, random_fuzzy_set
from fuzzycover.model import (
    ApproximationSpace,
    FuzzyCovering,
    FuzzySet,
    Grade,
    MultiGranulationSystem,
    ThresholdPair,
    Universe,
)
from fuzzycover.multi import mg_dq, mg_grade, mg_prob
from fuzzycover.neighborhood import build_table, crisp_neighborhood
from fuzzycover.single import (
    ResidualMode,
    cond_prob,
    dq_conjunctive,
    dq_disjunctive,
    grade_approx,
    overlap_sums,
    grade_regions,
    prob_approx,
    prob_regions,
)

GAMMAS = (300_000, 500_000, 600_000, 750_000, 900_000, MICRO)


def _instance(rng: random.Random, max_n=10, max_m=1, max_members=4):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    members = rng.randint(1, max_members)
    gamma = rng.choice(GAMMAS)
    universe = Universe(tuple(f"x{i + 1}" for i in range(n)))
    system = MultiGranulationSystem(
        universe,
        tuple(
            random_covering(rng, universe, f"g{j + 1}", members, gamma)
            for j in range(m)
        ),
    )
    return universe, system


def _single_table(rng: random.Random, max_n=10):
    universe, system = _instance(rng, max_n=max_n, max_m=1)
    space = ApproximationSpace(universe, system.coverings[0])
    return universe, build_table(space)


def _superset_of(rng: random.Random, x: FuzzySet) -> FuzzySet:
    bumped = tuple(
        min(MICRO, v + rng.randrange(0, MICRO - v + 1, 50_000) if v < MICRO else v)
        for v in x.memberships
    )
    return FuzzySet(x.universe, bumped)


def _pair(rng: random.Random) -> ThresholdPair:
    grid = list(range(0, MICRO + 1, 50_000))
    a, b = sorted((rng.choice(grid), rng.choice(grid)))
    return ThresholdPair(alpha=b, beta=a)


def _grade(rng: random.Random, n: int) -> Grade:
    return Grade(rng.randrange(0, (n + 1) * MICRO + 1, 100_000))


def suite_prob_laws(seed: int, count: int) -> int:
    """Edge sets, monotonicity in the target, set-operation containments,
    threshold anti-monotonicity, and lower subset upper."""
    for i in range(count):
        rng = random.Random(f"prob-laws:{seed}:{i}")
        universe, table = _single_table(rng)
        x = random_fuzzy_set(rng, universe)
        y_sup = _superset_of(rng, x)
        y = random_fuzzy_set(rng, universe)
        t = _pair(rng)
        whole = FuzzySet.whole(universe)
        empty = FuzzySet.empty(universe)
        everything = frozenset(universe.objects)

        r = prob_approx(table, x, t)
        assert r.lower_set <= r.upper_set  # beta <= alpha
        assert prob_approx(table, whole, t).lower_set == everything
        if t.beta > 0:
            assert prob_approx(table, empty, t).upper_set == frozenset()

        r_sup = prob_approx(table, y_sup, t)
        assert r.lower_set <= r_sup.lower_set
        assert r.upper_set <= r_sup.upper_set

        ry = prob_approx(table, y, t)
        r_union = prob_approx(table, x.union(y), t)
        r_inter = prob_approx(table, x.intersect(y), t)
        assert r.upper_set | ry.upper_set <= r_union.upper_set
        assert r.lower_set | ry.lower_set <= r_union.lower_set
        assert r_inter.upper_set <= r.upper_set & ry.upper_set
        assert r_inter.lower_set <= r.lower_set & ry.lower_set

        t2 = _pair(rng)
        lo = ThresholdPair(min(t.alpha, t2.alpha), min(t.beta, t2.beta))
        hi = ThresholdPair(max(t.alpha, t2.alpha), max(t.beta, t2.beta))
        r_lo = prob_approx(table, x, lo)
        r_hi = prob_approx(table, x, hi)
        assert r_hi.lower_set <= r_lo.lower_set
        assert r_hi.upper_set <= r_lo.upper_set
    return count


def suite_grade_laws(seed: int, count: int) -> int:
    """Grade edges, monotonicity in the target (both mass readings) and the
    definition-forced directions in k: upper shrinks, lower grows."""
    for i in range(count):
        rng = random.Random(f"grade-laws:{seed}:{i}")
        universe, table = _single_table(rng)
        x = random_fuzzy_set(rng, universe)
        y_sup = _superset_of(rng, x)
        k = _grade(rng, universe.size)
        mode = rng.choice((ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT))
        whole = FuzzySet.whole(universe)
        empty = FuzzySet.empty(universe)
        everything = frozenset(universe.objects)

        r = grade_approx(table, x, k, mode)
        assert grade_approx(table, whole, k, mode).lower_set == everything
        assert grade_approx(table, empty, k, mode).upper_set == frozenset()
        if k.k >= max(table.distinct_sigma):
            assert r.lower_set == everything

        r_sup = grade_approx(table, y_sup, k, mode)
        assert r.lower_set <= r_sup.lower_set
        assert r.upper_set <= r_sup.upper_set

        k2 = _grade(rng, universe.size)
        k_lo, k_hi = sorted((k, k2), key=lambda g: g.k)
        r_lo = grade_approx(table, x, k_lo, mode)
        r_hi = grade_approx(table, x, k_hi, mode)
        assert r_hi.upper_set <= r_lo.upper_set   # larger k: stricter upper test
        assert r_lo.lower_set <= r_hi.lower_set   # larger k: looser mass test
    return count


def suite_dq_decomposition(seed: int, count: int) -> int:
    """Double-quantitative operators equal the componentwise set combination."""
    for i in range(count):
        rng = random.Random(f"dq-decomp:{seed}:{i}")
        universe, table = _single_table(rng)
        x = random_fuzzy_set(rng, universe)
        t = _pair(rng)
        k = _grade(rng, universe.size)
        mode = rng.choice((ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT))
        p = prob_approx(table, x, t)
        g = grade_approx(table, x, k, mode)
        d1 = dq_disjunctive(table, x, t, k, mode)
        d2 = dq_conjunctive(table, x, t, k, mode)
        assert d1.lower_set == p.lower_set & g.lower_set
        assert d1.upper_set == p.upper_set & g.upper_set
        assert d2.lower_set == p.lower_set | g.lower_set
        assert d2.upper_set == p.upper_set | g.upper_set
    return count


def suite_regions(seed: int, count: int) -> int:
    """Partition invariants of the three-way and five-way regions."""
    for i in range(count):
        rng = random.Random(f"regions:{seed}:{i}")
        universe, table = _single_table(rng)
        x = random_fuzzy_set(rng, universe)
        t = _pair(rng)
        k = _grade(rng, universe.size)
        mode = rng.choice((ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT))
        everything = frozenset(universe.objects)

        three = prob_regions(table, x, t)
        pos, bou, neg = map(frozenset, (three.pos, three.bou, three.neg))
        assert pos | bou | neg == everything
        assert not (pos & bou or pos & neg or bou & neg)
        r = prob_approx(table, x, t)
        assert pos == r.lower_set
        assert pos | bou == r.upper_set
        if t.alpha == t.beta:
            assert bou == frozenset()

        five = grade_regions(table, x, k, mode)
        g = grade_approx(table, x, k, mode)
        pos5, neg5 = frozenset(five.pos), frozenset(five.neg)
        lbo, ubo = frozenset(five.lbo), frozenset(five.ubo)
        assert pos5 | neg5 | lbo | ubo == everything
        assert (
            not (pos5 & neg5)
            and not (pos5 & lbo)
            and not (pos5 & ubo)
            and not (neg5 & lbo)
            and not (neg5 & ubo)
            and not (lbo & ubo)
        )
        assert frozenset(five.bou) == lbo | ubo
        assert pos5 == g.lower_set & g.upper_set
        assert lbo == g.lower_set - g.upper_set
        assert ubo == g.upper_set - g.lower_set
        if g.lower_set <= g.upper_set:
            assert lbo == frozenset() and frozenset(five.bou) == ubo
    return count


def suite_mg_decomposition(seed: int, count: int) -> int:
    """Fused operators equal intersections (all) / unions (any) of the
    per-covering results, and the fused double-quantitative operator equals
    the combination of the fused one-test operators."""
    for i in range(count):
        rng = random.Random(f"mg-decomp:{seed}:{i}")
        universe, system = _instance(rng, max_n=8, max_m=4, max_members=3)
        x = random_fuzzy_set(rng, universe)
        m = system.size
        tv = tuple(_pair(rng) for _ in range(m))
        kv = tuple(_grade(rng, universe.size) for _ in range(m))
        mode = rng.choice((ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT))

        per_prob, per_grade, per_dq1, per_dq2 = [], [], [], []
        for c, t, k in zip(system.coverings, tv, kv):
            table = build_table(ApproximationSpace(universe, c))
            per_prob.append(prob_approx(table, x, t))
            per_grade.append(grade_approx(table, x, k, mode))
            per_dq1.append(dq_disjunctive(table, x, t, k, mode))
            per_dq2.append(dq_conjunctive(table, x, t, k, mode))

        def inter(rs, side):
            out = getattr(rs[0], side)
            for r in rs[1:]:
                out &= getattr(r, side)
            return out

        def union(rs, side):
            out = getattr(rs[0], side)
            for r in rs[1:]:
                out |= getattr(r, side)
            return out

        p_all = mg_prob(system, x, tv, "all")
        p_any = mg_prob(system, x, tv, "any")
        assert p_all.lower_set == inter(per_prob, "lower_set")
        assert p_all.upper_set == inter(per_prob, "upper_set")
        assert p_any.lower_set == union(per_prob, "lower_set")
        assert p_any.upper_set == union(per_prob, "upper_set")

        g_all = mg_grade(system, x, kv, "all", mode)
        g_any = mg_grade(system, x, kv, "any", mode)
        assert g_all.lower_set == inter(per_grade, "lower_set")
        assert g_all.upper_set == inter(per_grade, "upper_set")
        assert g_any.lower_set == union(per_grade, "lower_set")
        assert g_any.upper_set == union(per_grade, "upper_set")

        d_all = mg_dq(system, x, tv, kv, "all", mode)
        d_any = mg_dq(system, x, tv, kv, "any", mode)
        assert d_all.lower_set == inter(per_dq1, "lower_set")
        assert d_all.upper_set == inter(per_dq1, "upper_set")
        assert d_any.lower_set == union(per_dq2, "lower_set")
        assert d_any.upper_set == union(per_dq2, "upper_set")
        assert d_all.lower_set == p_all.lower_set & g_all.lower_set
        assert d_all.upper_set == p_all.upper_set & g_all.upper_set
        assert d_any.lower_set == p_any.lower_set | g_any.lower_set
        assert d_any.upper_set == p_any.upper_set | g_any.upper_set

        # all-coverings fusion is contained in some-covering fusion
        for a, b in ((p_all, p_any), (g_all, g_any), (d_all, d_any)):
            assert a.lower_set <= b.lower_set
            assert a.upper_set <= b.upper_set
    return count


def suite_mg_laws(seed: int, count: int) -> int:
    """Edge laws, target monotonicity and parameter monotonicity of the
    fused operators."""
    for i in range(count):
        rng = random.Random(f"mg-laws:{seed}:{i}")
        universe, system = _instance(rng, max_n=8, max_m=4, max_members=3)
        x = random_fuzzy_set(rng, universe)
        y_sup = _superset_of(rng, x)
        m = system.size
        tv = tuple(_pair(rng) for _ in range(m))
        kv = tuple(_grade(rng, universe.size) for _ in range(m))
        mode = rng.choice((ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT))
        whole = FuzzySet.whole(universe)
        empty = FuzzySet.empty(universe)
        everything = frozenset(universe.objects)

        for comb in ("all", "any"):
            assert mg_prob(system, whole, tv, comb).lower_set == everything
            if all(t.beta > 0 for t in tv):
                assert mg_prob(system, empty, tv, comb).upper_set == frozenset()
            assert mg_grade(system, empty, kv, comb, mode).upper_set == frozenset()
            assert mg_grade(system, whole, kv, comb, mode).lower_set == everything

            rx = mg_prob(system, x, tv, comb)
            ry = mg_prob(system, y_sup, tv, comb)
            assert rx.lower_set <= ry.lower_set and rx.upper_set <= ry.upper_set
            gx = mg_grade(system, x, kv, comb, mode)
            gy = mg_grade(system, y_sup, kv, comb, mode)
            assert gx.lower_set <= gy.lower_set and gx.upper_set <= gy.upper_set
            dx = mg_dq(system, x, tv, kv, comb, mode)
            dy = mg_dq(system, y_sup, tv, kv, comb, mode)
            assert dx.lower_set <= dy.lower_set and dx.upper_set <= dy.upper_set

        tv2 = tuple(_pair(rng) for _ in range(m))
        tv_lo = tuple(
            ThresholdPair(min(a.alpha, b.alpha), min(a.beta, b.beta))
            for a, b in zip(tv, tv2)
        )
        tv_hi = tuple(
            ThresholdPair(max(a.alpha, b.alpha), max(a.beta, b.beta))
            for a, b in zip(tv, tv2)
        )
        kv2 = tuple(_grade(rng, universe.size) for _ in range(m))
        kv_lo = tuple(Grade(min(a.k, b.k)) for a, b in zip(kv, kv2))
        kv_hi = tuple(Grade(max(a.k, b.k)) for a, b in zip(kv, kv2))
        for comb in ("all", "any"):
            r_lo = mg_prob(system, x, tv_lo, comb)
            r_hi = mg_prob(system, x, tv_hi, comb)
            assert r_hi.lower_set <= r_lo.lower_set
            assert r_hi.upper_set <= r_lo.upper_set
            g_lo = mg_grade(system, x, kv_lo, comb, mode)
            g_hi = mg_grade(system, x, kv_hi, comb, mode)
            assert g_hi.upper_set <= g_lo.upper_set
            assert g_lo.lower_set <= g_hi.lower_set
    return count


def suite_crisp_reduction(seed: int, count: int) -> int:
    """On 0/1 coverings with gamma = 1 and 0/1 targets, every fuzzy operator
    agrees with the crisp baseline; the crisp neighborhood of the same members
    matches the baseline's at gamma 0.05, 0.5 and 1."""
    for i in range(count):
        rng = random.Random(f"crisp-red:{seed}:{i}")
        n = rng.randint(1, 8)
        members = rng.randint(1, 4)
        universe = Universe(tuple(f"x{j + 1}" for j in range(n)))
        # random 0/1 covering: each member a random subset, gamma=1 enforced
        matrix = [
            [MICRO if rng.random() < 0.5 else 0 for _ in range(n)]
            for _ in range(members)
        ]
        for col in range(n):
            matrix[rng.randrange(members)][col] = MICRO
        for row in matrix:
            if all(v == 0 for v in row):
                row[rng.randrange(n)] = MICRO
        covering_sets = tuple(
            (f"c{j + 1}", FuzzySet(universe, tuple(matrix[j]))) for j in range(members)
        )
        covering = FuzzyCovering("c", universe, covering_sets, MICRO)
        space = ApproximationSpace(universe, covering)
        table = build_table(space)
        x_names = frozenset(o for o in universe.objects if rng.random() < 0.5)
        x = FuzzySet.from_names(universe, x_names)
        t = _pair(rng)
        k = Grade(rng.randrange(0, (n + 1) * MICRO + 1, 500_000))

        crisp_p = oracle.crisp_prob(covering, x_names, t.alpha, t.beta)
        fuzzy_p = prob_approx(table, x, t)
        assert fuzzy_p.lower_set == crisp_p["lower"]
        assert fuzzy_p.upper_set == crisp_p["upper"]
        three = prob_regions(table, x, t)
        assert frozenset(three.pos) == crisp_p["POS"]
        assert frozenset(three.bou) == crisp_p["BOU"]
        assert frozenset(three.neg) == crisp_p["NEG"]

        crisp_g = oracle.crisp_grade(covering, x_names, k.k)
        for mode in (ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT):
            fuzzy_g = grade_approx(table, x, k, mode)
            assert fuzzy_g.lower_set == crisp_g["lower"]
            assert fuzzy_g.upper_set == crisp_g["upper"]
            five = grade_regions(table, x, k, mode)
            assert frozenset(five.pos) == crisp_g["POS"]
            assert frozenset(five.ubo) == crisp_g["UBO"]
            assert frozenset(five.lbo) == crisp_g["LBO"]
            assert frozenset(five.neg) == crisp_g["NEG"]

        # fuzzy neighborhood equals the crisp one on 0/1 data with gamma = 1
        for name in universe.objects:
            from fuzzycover.neighborhood import fuzzy_gamma_neighborhood

            row = fuzzy_gamma_neighborhood(space, name)
            crisp_n = oracle.crisp_neighborhood(covering, name)
            assert frozenset(row.support()) == crisp_n
            assert row.is_crisp()

        # the same 0/1 members give the crisp neighborhood at every gamma in (0, 1]
        for gamma in (50_000, 500_000, MICRO):
            at_gamma = FuzzyCovering("c", universe, covering_sets, gamma)
            space_at = ApproximationSpace(universe, at_gamma)
            for name in universe.objects:
                row = crisp_neighborhood(space_at, name)
                assert frozenset(row.support()) == oracle.crisp_neighborhood(at_gamma, name)
    return count


def suite_neighborhood(seed: int, count: int) -> int:
    """Gamma monotonicity of the qualifying family and table invariants."""
    for i in range(count):
        rng = random.Random(f"neigh:{seed}:{i}")
        universe, system = _instance(rng, max_n=10, max_m=1)
        covering = system.coverings[0]
        space = ApproximationSpace(universe, covering)
        table = build_table(space)
        for idx, name in enumerate(universe.objects):
            assert table.rows[idx].memberships[idx] >= covering.gamma
            assert table.distinct_sigma[table.index[idx]] >= covering.gamma > 0

        # lowering gamma can only widen the qualifying family, shrinking rows
        from fuzzycover.neighborhood import qualifying_members

        lower_gamma = rng.randrange(50_000, covering.gamma + 1, 50_000)
        relaxed = FuzzyCovering(
            covering.name, universe, covering.members, lower_gamma
        )
        relaxed_space = ApproximationSpace(universe, relaxed)
        relaxed_table = build_table(relaxed_space)
        for idx in range(universe.size):
            fam_hi = set(qualifying_members(space, idx))
            fam_lo = set(qualifying_members(relaxed_space, idx))
            assert fam_hi <= fam_lo
            for a, b in zip(
                table.rows[idx].memberships, relaxed_table.rows[idx].memberships
            ):
                assert a >= b
    return count


def _residual_counterexample() -> None:
    """The grade duality of `suite_duality` fails in residual mode for a fuzzy X.

    One object, N = 0.4 (gamma 0.4), X = 0.5, k = 0: overlap(X) = 0.4 > 0
    puts x in upper_0(X), and the residual mass of 1 - X, 0.4 - min(0.5, 0.4)
    = 0 <= 0, puts x in lower_0(1 - X), so ~lower_0(1 - X) is empty.  The
    complement mass of 1 - X is min(0.5, 0.4) = 0.4 > 0, so there the law holds.
    """
    universe = Universe(("x",))
    covering = FuzzyCovering("c", universe, (("n", FuzzySet(universe, (400_000,))),), 400_000)
    space = ApproximationSpace(universe, covering)
    table = build_table(space)
    x, k, everything = FuzzySet(universe, (500_000,)), Grade(0), frozenset(universe.objects)
    for mode, holds in ((ResidualMode.RESIDUAL, False), (ResidualMode.COMPLEMENT, True)):
        lower = grade_approx(table, x.complement(), k, mode).lower_set
        assert grade_approx(table, x, k, mode).upper_set == everything
        assert (everything - lower == everything) is holds
        o_lower, _ = oracle.grade_approx(space, x.complement(), 0, mode.value)
        _, o_upper = oracle.grade_approx(space, x, 0, mode.value)
        assert o_upper == everything
        assert (everything - o_lower == o_upper) is holds


def suite_duality(seed: int, count: int) -> int:
    """Dualities through the complement 1 - X, each checked on the oracle too.

    - grade, complement mode, fuzzy X: ~lower_k(1 - X) = upper_k(X), since the
      complement mass of 1 - X is the overlap of X;
    - grade, residual mode: the same law for crisp X only (for fuzzy X,
      min(x, n) + min(1 - x, n) != n: see `_residual_counterexample`);
    - prob, crisp X, beta = 1 - alpha:
      upper_beta(X) = ~lower_alpha(1 - X) | {x : P(X | N_x) = beta};
    - fused grade, complement mode: the combinator swaps,
      ~lower_all(1 - X) = upper_any(X) and ~lower_any(1 - X) = upper_all(X).
    """
    _residual_counterexample()
    complement, residual = ResidualMode.COMPLEMENT, ResidualMode.RESIDUAL
    for i in range(count):
        rng = random.Random(f"duality:{seed}:{i}")
        universe, system = _instance(rng, max_n=10, max_m=3, max_members=4)
        everything = frozenset(universe.objects)
        space = system.space(system.coverings[0].name)
        table = build_table(space)
        x = random_fuzzy_set(rng, universe)
        crisp = FuzzySet.from_names(universe, [o for o in universe.objects if rng.random() < 0.5])
        k = _grade(rng, universe.size)

        for target, mode in ((x, complement), (crisp, complement), (crisp, residual)):
            tie = Grade(rng.choice(overlap_sums(table, target)))  # overlap = k at some object
            for g in (k, tie):
                upper = grade_approx(table, target, g, mode).upper_set
                lower = grade_approx(table, target.complement(), g, mode).lower_set
                assert everything - lower == upper
                o_lower, _ = oracle.grade_approx(space, target.complement(), g.k, mode.value)
                _, o_upper = oracle.grade_approx(space, target, g.k, mode.value)
                assert everything - o_lower == o_upper

        alpha = rng.randrange(500_000, MICRO + 1, 50_000)
        t = ThresholdPair(alpha, MICRO - alpha)
        beta = Fraction(t.beta, MICRO)
        ties = frozenset(o for o in universe.objects if cond_prob(table, crisp, o) == beta)
        lower = prob_approx(table, crisp.complement(), t).lower_set
        assert prob_approx(table, crisp, t).upper_set == (everything - lower) | ties
        # the oracle's own neighborhoods and overlaps give its tie set
        o_rows = [oracle._neigh(space.covering, j) for j in range(universe.size)]
        o_ties = frozenset(o for o, row in zip(universe.objects, o_rows)
                           if Fraction(oracle._overlap(crisp.memberships, row), sum(row)) == beta)
        o_lower, _ = oracle.prob_approx(space, crisp.complement(), t.alpha, t.beta)
        _, o_upper = oracle.prob_approx(space, crisp, t.alpha, t.beta)
        assert o_upper == (everything - o_lower) | o_ties

        kv = tuple(
            Grade(rng.choice(overlap_sums(build_table(system.space(c.name)), x)))
            if rng.random() < 0.5 else _grade(rng, universe.size)
            for c in system.coverings
        )
        ks = [g.k for g in kv]
        for comb, swapped in (("all", "any"), ("any", "all")):
            lower = mg_grade(system, x.complement(), kv, comb, complement).lower_set
            assert everything - lower == mg_grade(system, x, kv, swapped, complement).upper_set
            o_lower, _ = oracle.mg_grade(system, x.complement(), ks, comb, "complement")
            _, o_upper = oracle.mg_grade(system, x, ks, swapped, "complement")
            assert everything - o_lower == o_upper
    return count


ALL_SUITES = {
    "prob-laws": suite_prob_laws,
    "grade-laws": suite_grade_laws,
    "dq-decomposition": suite_dq_decomposition,
    "regions": suite_regions,
    "mg-decomposition": suite_mg_decomposition,
    "mg-laws": suite_mg_laws,
    "crisp-reduction": suite_crisp_reduction,
    "neighborhood": suite_neighborhood,
    "duality": suite_duality,
}
