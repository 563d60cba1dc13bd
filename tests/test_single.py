import random
from fractions import Fraction

import pytest

from fuzzycover import cli, operators, single
from fuzzycover.exact import MICRO, format_scaled, parse_scaled
from fuzzycover.model import (
    ApproximationSpace,
    FuzzyCovering,
    FuzzySet,
    Grade,
    ParameterError,
    ThresholdPair,
    Universe,
)
from fuzzycover.single import (
    ResidualMode,
    cond_prob,
    diagnostics,
    dq_conjunctive,
    dq_disjunctive,
    grade_approx,
    grade_regions,
    mass_sums,
    overlap_sums,
    prob_approx,
    prob_regions,
    threshold_form_check,
)
from fuzzycover.generate import generate_system
from fuzzycover.neighborhood import build_table, fuzzy_gamma_neighborhood
from fuzzycover.sysio import load

from props import (
    suite_dq_decomposition,
    suite_duality,
    suite_grade_laws,
    suite_prob_laws,
    suite_regions,
)

T = ThresholdPair.from_strings("0.75", "0.25")
K2 = Grade.from_string("2")
ALL8 = tuple(f"x{i}" for i in range(1, 9))


class TestCondProb:
    def test_golden_values(self, price_table, target_x):
        assert cond_prob(price_table, target_x, "x1") == Fraction(1, 2)
        assert cond_prob(price_table, target_x, "x3") == Fraction(25, 33)
        assert cond_prob(price_table, target_x, "x2") == Fraction(16, 25)

    def test_whole_target_is_one(self, price_table):
        whole = FuzzySet.whole(price_table.universe)
        for name in price_table.universe.objects:
            assert cond_prob(price_table, whole, name) == 1


class TestProbApprox:
    def test_golden(self, price_table, target_x):
        r = prob_approx(price_table, target_x, T)
        assert r.lower == ("x3", "x6")
        assert r.upper == ALL8

    def test_whole_target(self, price_table):
        r = prob_approx(price_table, FuzzySet.whole(price_table.universe), T)
        assert r.lower == ALL8

    def test_empty_target(self, price_table):
        r = prob_approx(price_table, FuzzySet.empty(price_table.universe), T)
        assert r.upper == ()

    def test_params_echoed(self, price_table, target_x):
        r = prob_approx(price_table, target_x, T)
        assert dict(r.params) == {"alpha": "0.75", "beta": "0.25"}


class TestProbRegions:
    def test_golden(self, price_table, target_x):
        reg = prob_regions(price_table, target_x, T)
        assert reg.pos == ("x3", "x6")
        assert reg.bou == ("x1", "x2", "x4", "x5", "x7", "x8")
        assert reg.neg == ()

    def test_equal_thresholds_empty_boundary(self, price_table, target_x):
        t = ThresholdPair.from_strings("0.5", "0.5")
        assert prob_regions(price_table, target_x, t).bou == ()


class TestGradeApprox:
    def test_golden_residual(self, price_table, target_x):
        r = grade_approx(price_table, target_x, K2)
        assert r.lower == ("x2", "x3", "x6", "x8")
        assert r.upper == ALL8

    def test_large_k_gives_full_lower(self, price_table, target_x):
        k = Grade(max(price_table.distinct_sigma))
        assert grade_approx(price_table, target_x, k).lower == ALL8

    def test_complement_mode_on_quality(self, quality_space, target_x):
        table = build_table(quality_space)
        masses = mass_sums(table, target_x, ResidualMode.COMPLEMENT)
        assert sorted(set(masses)) == [parse_scaled("2.2"), parse_scaled("2.8")]
        r = grade_approx(table, target_x, K2, ResidualMode.COMPLEMENT)
        assert r.lower == ()

    def test_modes_coincide_on_crisp_target(self, price_table):
        crisp = FuzzySet.from_names(price_table.universe, {"x1", "x3", "x6"})
        r1 = grade_approx(price_table, crisp, K2, ResidualMode.RESIDUAL)
        r2 = grade_approx(price_table, crisp, K2, ResidualMode.COMPLEMENT)
        assert (r1.lower, r1.upper) == (r2.lower, r2.upper)

    def test_negative_k_degenerates(self, price_table, target_x):
        r = grade_approx(price_table, target_x, Grade.from_string("-0.5"))
        assert r.lower == ()
        assert r.upper == ALL8


class TestGradeRegions:
    def test_golden_five_regions(self, price_table, target_x):
        reg = grade_regions(price_table, target_x, K2)
        assert reg.pos == ("x2", "x3", "x6", "x8")
        assert reg.neg == ()
        assert reg.lbo == ()
        assert reg.ubo == ("x1", "x4", "x5", "x7")
        assert reg.bou == reg.ubo

    def test_nested_bounds_give_empty_lbo(self, price_table, target_x):
        reg = grade_regions(price_table, target_x, Grade.from_string("1"))
        assert reg.lbo == ()
        assert reg.bou == reg.ubo


class TestDoubleQuantitative:
    def test_disjunctive_golden(self, price_table, target_x):
        r = dq_disjunctive(price_table, target_x, T, K2)
        assert r.lower == ("x3", "x6")
        assert r.upper == ALL8

    def test_conjunctive_golden(self, price_table, target_x):
        r = dq_conjunctive(price_table, target_x, T, K2)
        assert r.lower == ("x2", "x3", "x6", "x8")
        assert r.upper == ALL8

    def test_disjunctive_empty_target(self, price_table):
        r = dq_disjunctive(price_table, FuzzySet.empty(price_table.universe), T, K2)
        assert r.upper == ()

    def test_conjunctive_whole_target(self, price_table):
        r = dq_conjunctive(price_table, FuzzySet.whole(price_table.universe), T, K2)
        assert r.lower == ALL8

    def test_componentwise_identities(self, price_table, target_x):
        p = prob_approx(price_table, target_x, T)
        g = grade_approx(price_table, target_x, K2)
        d1 = dq_disjunctive(price_table, target_x, T, K2)
        d2 = dq_conjunctive(price_table, target_x, T, K2)
        assert d1.lower_set == p.lower_set & g.lower_set
        assert d1.upper_set == p.upper_set & g.upper_set
        assert d2.lower_set == p.lower_set | g.lower_set
        assert d2.upper_set == p.upper_set | g.upper_set


class TestThresholdFormCheck:
    def test_no_flags_off_boundary(self, price_table, target_x):
        report = threshold_form_check(price_table, target_x, T, K2)
        assert report.equivalences_hold
        assert report.flagged == ()

    def test_flags_exact_overlap_ties(self, price_table, target_x):
        # overlap sums are 2.6 at x1/x4/x5/x7; k = 2.6 makes the strict and
        # non-strict upper readings disagree exactly there
        report = threshold_form_check(price_table, target_x, T, Grade.from_string("2.6"))
        assert report.equivalences_hold
        assert report.flagged == ("x1", "x4", "x5", "x7")
        r = grade_approx(price_table, target_x, Grade.from_string("2.6"))
        assert set(report.flagged) & set(r.upper) == set()

    def test_catches_a_strict_prob_comparison(self, price_table, target_x, monkeypatch):
        # P(x1) is exactly 0.5, so a strict P > alpha at alpha = 0.5 must break
        # the equivalence with the Fraction route
        t = ThresholdPair.from_strings("0.5", "0.25")
        assert threshold_form_check(price_table, target_x, t, K2).equivalences_hold
        monkeypatch.setattr(single, "ratio_ge", lambda num, den, a: num * 10**6 > a * den)
        assert not threshold_form_check(price_table, target_x, t, K2).equivalences_hold

    def test_k_zero_everything_agrees(self, price_table, target_x):
        # every overlap is positive, so strict and non-strict agree at k = 0
        report = threshold_form_check(price_table, target_x, T, Grade.from_string("0"))
        assert report.flagged == ()
        r = grade_approx(price_table, target_x, Grade.from_string("0"))
        assert r.upper == ALL8


class TestStrictnessBoundaries:
    def test_probabilistic_inclusive_at_alpha(self, price_table, target_x):
        # P(x1) is exactly 0.5; inclusive comparison keeps x1 in the lower set
        t = ThresholdPair.from_strings("0.5", "0.25")
        r = prob_approx(price_table, target_x, t)
        assert "x1" in r.lower

    def test_probabilistic_inclusive_at_beta(self, price_table, target_x):
        t = ThresholdPair.from_strings("0.75", "0.5")
        r = prob_approx(price_table, target_x, t)
        assert "x1" in r.upper
        reg = prob_regions(price_table, target_x, t)
        assert "x1" in reg.bou

    def test_grade_exclusive_at_k(self, price_table, target_x):
        # overlap(x1) is exactly 2.6; the strict upper test drops x1
        r = grade_approx(price_table, target_x, Grade.from_string("2.6"))
        assert "x1" not in r.upper
        assert set(r.upper) == {"x2", "x8"}  # only the 3.2 overlaps survive

    def test_grade_lower_inclusive_at_k(self, price_table, target_x):
        # residual mass at x2/x8 is exactly 1.8
        r = grade_approx(price_table, target_x, Grade.from_string("1.8"))
        assert {"x2", "x8"} <= set(r.lower)


def test_mismatched_target_universe(price_table):
    from fuzzycover.model import Universe

    other = FuzzySet.whole(Universe(("a", "b")))
    with pytest.raises(ParameterError):
        prob_approx(price_table, other, T)


def test_singleton_universe_end_to_end():
    from fuzzycover.model import ApproximationSpace, FuzzyCovering, Universe

    u = Universe(("only",))
    covering = FuzzyCovering(
        "c", u, (("m", FuzzySet.from_strings(u, ["0.8"])),), parse_scaled("0.8")
    )
    table = build_table(ApproximationSpace(u, covering))
    x = FuzzySet.from_strings(u, ["0.3"])
    assert cond_prob(table, x, "only") == Fraction(3, 8)
    r = prob_approx(table, x, ThresholdPair.from_strings("0.375", "0.375"))
    assert r.lower == ("only",)  # inclusive at the exact boundary
    g = grade_approx(table, x, Grade.from_string("0.5"))
    assert g.lower == ("only",)  # mass is exactly 0.5
    assert g.upper == ()
    g_tie = grade_approx(table, x, Grade.from_string("0.3"))
    assert g_tie.upper == ()  # overlap is exactly 0.3, strict test fails


def test_property_suites_smoke():
    assert suite_prob_laws(seed=3, count=150) == 150
    assert suite_grade_laws(seed=3, count=150) == 150
    assert suite_dq_decomposition(seed=3, count=150) == 150
    assert suite_regions(seed=3, count=150) == 150


def test_duality_suite():
    assert suite_duality(seed=3, count=150) == 150


# overlap/mass kernel calls per family on one covering, as (residual,
# complement) mode: a residual mass pass calls the overlap kernel once more.
# An mg fold makes its per-covering family's count once per covering.  These
# are upper bounds, so a change that drops a pass needs no edit here.
KERNEL_PASSES = {"prob": (1, 1), "prob-regions": (1, 1), "grade": (3, 2),
                 "grade-regions": (3, 2), "dq1": (3, 2), "dq2": (3, 2)}
MG_PER_COVERING = {"mg-prob": "prob", "mg-grade": "grade", "mg-dq": "dq1"}


@pytest.mark.parametrize("mode", list(ResidualMode))
@pytest.mark.parametrize("family", list(operators.FUNCTIONS))
def test_kernel_passes_bounded(monkeypatch, two_cov_file, family, mode):
    calls = []
    for name in ("overlap_sums", "mass_sums"):
        kernel = getattr(single, name)
        monkeypatch.setattr(
            single, name, lambda *a, _kernel=kernel, **kw: calls.append(1) or _kernel(*a, **kw)
        )
    system, target = two_cov_file.system, two_cov_file.target("X")
    t, k = ThresholdPair.from_strings("0.75", "0.25"), Grade.from_string("1")
    if family in MG_PER_COVERING:
        operators.run(family, system, target, [t] * system.size, [k] * system.size, "all", mode)
        bound = KERNEL_PASSES[MG_PER_COVERING[family]][mode is ResidualMode.COMPLEMENT]
        bound *= system.size
    else:
        operators.run(family, build_table(system.space("price")), target, t, k, mode=mode)
        bound = KERNEL_PASSES[family][mode is ResidualMode.COMPLEMENT]
    assert 0 < len(calls) <= bound


def test_stored_sums_equal_a_fresh_pass(price_space, target_x):
    # a table keeps the sums of each target vector it has seen; whatever was
    # read before, every read equals the naive per-object sum
    universe = target_x.universe
    rows = [fuzzy_gamma_neighborhood(price_space, x).memberships for x in universe.objects]

    def naive(xs):
        return tuple(sum(map(min, xs, row)) for row in rows)

    other = FuzzySet(universe, tuple(reversed(target_x.memberships)))
    equal = FuzzySet(universe, list(target_x.memberships))
    assert equal.memberships is not target_x.memberships
    reads = [
        (kind, target)
        for kind in ("overlap", *ResidualMode)
        for target in (target_x, other, target_x.complement(), equal)
    ]

    def want(kind, target):
        xs = target.memberships
        if kind == "overlap":
            return naive(xs)
        if kind is ResidualMode.RESIDUAL:
            return tuple(sum(row) - o for row, o in zip(rows, naive(xs)))
        return naive(tuple(MICRO - v for v in xs))

    rng = random.Random(0)
    for order in range(20):
        table = build_table(price_space)
        if order:
            rng.shuffle(reads)
        for kind, target in reads:
            got = (overlap_sums(table, target) if kind == "overlap"
                   else mass_sums(table, target, kind))
            assert len(got) == len(table.packed)
            assert tuple(got[j] for j in table.index) == want(kind, target)
        # four distinct vectors: X, its reverse and the complement of each,
        # each stored as one sum per distinct row
        assert len(table.sums) == 4
        assert all(len(sums) == len(table.packed) for sums in table.sums.values())


def _count_ratio_ge(monkeypatch) -> list:
    calls, ratio_ge = [], single.ratio_ge
    monkeypatch.setattr(single, "ratio_ge", lambda *a: calls.append(a) or ratio_ge(*a))
    return calls


def test_prob_tests_compare_each_distinct_row_once(monkeypatch, price_table, target_x):
    # 8 objects on 3 distinct rows: alpha and beta are each compared once per row
    calls = _count_ratio_ge(monkeypatch)
    prob_approx(price_table, target_x, T)
    assert (price_table.universe.size, len(price_table.packed)) == (8, 3)
    assert len(calls) == 6


def test_mg_prob_compares_each_distinct_row_once(monkeypatch, capsys, fixtures_dir):
    # two coverings of 8 objects on 3 distinct rows each, two tests per covering
    calls = _count_ratio_ge(monkeypatch)
    code = cli.main(["mg", str(fixtures_dir / "two_cov.json"), "--op", "mg-prob1",
                     "--alpha", "0.75", "--beta", "0.25", "--target", "X"])
    assert code == 0 and capsys.readouterr().out
    assert len(calls) == 12


def test_stored_sums_are_not_part_of_the_table(price_space, target_x):
    filled, fresh = build_table(price_space), build_table(price_space)
    overlap_sums(filled, target_x)
    mass_sums(filled, target_x, ResidualMode.COMPLEMENT)
    assert len(filled.sums) == 2 and not fresh.sums
    assert filled == fresh
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert "sums" not in repr(filled)


def test_diagnostics_of_distinct_rows_with_equal_sigma():
    # each distinct row is formatted once: two rows that share a sigma-count
    # must still get their own values, in the documented key order
    u = Universe(("x1", "x2", "x3", "x4"))
    m1 = FuzzySet.from_strings(u, ("1", "0", "0.3", "0.7"))
    m2 = FuzzySet.from_strings(u, ("0", "1", "0.7", "0.3"))
    covering = FuzzyCovering("c", u, (("m1", m1), ("m2", m2)), parse_scaled("0.5"))
    table = build_table(ApproximationSpace(u, covering))
    target = FuzzySet.from_strings(u, ("1", "0", "0", "0"))
    entries = diagnostics(table, target)
    assert [list(e) for e in entries] == [
        ["object", "overlap", "sigma", "p", "residual_mass", "complement_mass"]
    ] * 4
    assert [tuple(e.values()) for e in entries] == [
        ("x1", "1", "2", "1/2", "1", "1"),
        ("x2", "0", "2", "0", "2", "2"),
        ("x3", "0", "2", "0", "2", "2"),
        ("x4", "1", "2", "1/2", "1", "1"),
    ]


def _diagnostics_per_object(space, target) -> list[dict[str, str]]:
    """Each object's entry from its own neighborhood, with no table."""
    entries = []
    for name in space.universe.objects:
        neigh = fuzzy_gamma_neighborhood(space, name).memberships
        xs = target.memberships
        overlap, sigma = sum(map(min, xs, neigh)), sum(neigh)
        complement = sum(min(MICRO - x, v) for x, v in zip(xs, neigh))
        entries.append({
            "object": name,
            "overlap": format_scaled(overlap),
            "sigma": format_scaled(sigma),
            "p": str(Fraction(overlap, sigma)),
            "residual_mass": format_scaled(sigma - overlap),
            "complement_mass": format_scaled(complement),
        })
    return entries


def _fixture_cases(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.json")):
        sf = load(str(path))
        for covering in sf.system.coverings:
            for target in sf.targets.values():
                yield sf.system.space(covering.name), target


def test_diagnostics_equal_a_per_object_reference(fixtures_dir):
    cases = list(_fixture_cases(fixtures_dir))
    sf = generate_system(500, 1, 3, 900_000, 0)
    cases += [(sf.system.space(), target) for target in sf.targets.values()]
    assert len(cases) > 6
    for space, target in cases:
        entries = diagnostics(build_table(space), target)
        reference = _diagnostics_per_object(space, target)
        assert len(entries) == len(reference)
        assert list(entries) == reference
        assert [entries[i] for i in (0, -1)] == [reference[0], reference[-1]]


@pytest.mark.parametrize("alpha, beta", [("0.5", "0.25"), ("0.75", "0.5")])
def test_threshold_form_check_at_a_prob_tie(price_table, target_x, alpha, beta):
    # P(x1) is exactly 0.5: each prob test is inclusive on both routes
    assert cond_prob(price_table, target_x, "x1") == Fraction(1, 2)
    t = ThresholdPair.from_strings(alpha, beta)
    assert threshold_form_check(price_table, target_x, t, Grade.from_string("1")).equivalences_hold


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_sums_at_the_lane_fold_edges(n):
    # a lane sum folds 2^FOLDS = 4096 lanes at most, so rows wider than that
    # keep lanes after the last fold; both targets go through one table, so
    # its sums store holds four vectors (X, Y and their complements)
    sf = generate_system(n, 1, 3, 900_000, 0)
    space = sf.system.space()
    table = build_table(space)
    vectors = [s.memberships for s in space.covering.member_sets]
    gamma = space.covering.gamma
    signatures = [tuple(j for j, v in enumerate(vectors) if v[i] >= gamma) for i in range(n)]
    rows = {sig: tuple(map(min, zip(*(vectors[j] for j in sig)))) for sig in set(signatures)}
    sigma = [sum(rows[sig]) for sig in signatures]
    assert len(sf.targets) == 2
    for target in sf.targets.values():
        xs = target.memberships
        complement = tuple(MICRO - v for v in xs)
        ov_row = {sig: sum(map(min, xs, row)) for sig, row in rows.items()}
        comp_row = {sig: sum(map(min, complement, row)) for sig, row in rows.items()}
        overlap = [ov_row[sig] for sig in signatures]

        def per_object(per_row):
            # one value per distinct row, read for each object through the index
            assert len(per_row) == len(rows) == len(table.packed)
            return tuple(per_row[j] for j in table.index)

        assert per_object(overlap_sums(table, target)) == tuple(overlap)
        assert per_object(mass_sums(table, target, ResidualMode.RESIDUAL)) == tuple(
            s - o for s, o in zip(sigma, overlap)
        )
        assert per_object(mass_sums(table, target, ResidualMode.COMPLEMENT)) == tuple(
            comp_row[sig] for sig in signatures
        )
        for i in (0, n // 2, n - 1):
            name = space.universe.objects[i]
            assert cond_prob(table, target, name) == Fraction(overlap[i], sigma[i])
    assert len(table.sums) == 4
