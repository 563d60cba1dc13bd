import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzycover import model
from fuzzycover.exact import MICRO, parse_scaled
from fuzzycover.model import (
    FuzzyCovering,
    FuzzySet,
    Grade,
    ParameterError,
    StructuralError,
    ThresholdPair,
    Universe,
    ValidationError,
    build_covering_from_reports,
    validate_covering,
)

U8 = Universe(tuple(f"x{i}" for i in range(1, 9)))


def fs(*degrees: str) -> FuzzySet:
    return FuzzySet.from_strings(U8, degrees)


A = fs("1", "0.6", "0", "0.8", "1", "0", "0.8", "1")
B = fs("1", "0", "0.6", "1", "0", "0.8", "1", "0.8")


class TestUniverse:
    def test_basic(self):
        assert U8.size == 8
        assert U8.index("x3") == 2
        assert U8.names([4, 0, 2]) == ("x1", "x3", "x5")

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(StructuralError):
            Universe(("a", "a"))
        with pytest.raises(StructuralError):
            Universe(())

    @pytest.mark.parametrize("objects", [([1],), ([1], [1]), (1, 1), ("a", "")])
    def test_rejects_names_that_are_not_non_empty_strings(self, objects):
        with pytest.raises(StructuralError, match="non-empty strings"):
            Universe(objects)

    def test_unknown_object(self):
        with pytest.raises(StructuralError):
            U8.index("nope")

    def test_rejects_one_string_for_the_objects(self):
        # a str is a sequence of characters, which would become objects
        with pytest.raises(StructuralError, match="'abc'"):
            Universe("abc")

    @pytest.mark.parametrize("objects", [
        {"x1", "x2", "x3"}, frozenset({"x1", "x2"}),
        {"x1": 0, "x2": 1}.keys(), {0: "x1"}.values(), {"x1": 0}.items(),
    ])
    def test_rejects_objects_without_a_fixed_order(self, objects):
        # a set's order follows the hash seed, and every output follows the universe's order
        with pytest.raises(StructuralError, match="sequence of names"):
            Universe(objects)


class TestFuzzySetAlgebra:
    def test_intersection_golden(self):
        assert A.intersect(B).degree_strings() == (
            "1", "0", "0", "0.8", "0", "0", "0.8", "0.8",
        )

    def test_union_golden(self):
        assert A.union(B).degree_strings() == (
            "1", "0.6", "0.6", "1", "1", "0.8", "1", "1",
        )

    def test_complement_golden(self):
        assert A.complement().degree_strings() == (
            "0", "0.4", "1", "0.2", "0", "1", "0.2", "0",
        )

    def test_complement_involution(self):
        assert A.complement().complement() == A

    def test_sigma_count(self):
        low = fs("0", "0.5", "0.9", "0", "0.5", "0.9", "0", "0.5")
        assert low.sigma_count() == parse_scaled("3.3")

    def test_subset_laws(self):
        assert A.intersect(B).subset_of(A)
        assert A.subset_of(A.union(B))
        assert A.subset_of(A)
        assert not A.subset_of(B)

    def test_universe_mismatch(self):
        other = FuzzySet.from_strings(Universe(("a", "b")), ["0", "1"])
        with pytest.raises(StructuralError):
            A.union(other)

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            FuzzySet(U8, (0,) * 7)

    @pytest.mark.parametrize("bad,named", [
        ((0.5,), "0.5"),
        ((-1,), "-1"),
        ((MICRO + 1,), str(MICRO + 1)),
        ((MICRO, 7, -3, 0.25, -9, MICRO + 1), "-3"),  # the first, not the least or largest
        ((1, MICRO + 2, 0.5, -1), str(MICRO + 2)),
        ((0, "1", -1), "'1'"),
    ])
    def test_membership_out_of_range_names_the_first_bad_value(self, bad, named):
        message = f"^membership out of range: {re.escape(named)}$"
        with pytest.raises(StructuralError, match=message):
            FuzzySet(U8, (0,) * (8 - len(bad)) + bad)

    def test_bool_degrees_stay_accepted(self):
        assert FuzzySet(U8, (True, False) * 4).memberships == (True, False) * 4


vectors = st.lists(
    st.integers(min_value=0, max_value=MICRO), min_size=8, max_size=8
).map(lambda vs: FuzzySet(U8, tuple(vs)))


@given(vectors, vectors)
def test_commutativity(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(vectors, vectors, vectors)
def test_associativity(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(vectors)
def test_idempotence_and_involution(a):
    assert a.union(a) == a
    assert a.intersect(a) == a
    assert a.complement().complement() == a


@given(vectors, vectors)
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersect(b.complement())
    assert a.intersect(b).complement() == a.complement().union(b.complement())


@given(vectors, vectors)
def test_subset_bounds(a, b):
    assert a.subset_of(a.union(b))
    assert a.intersect(b).subset_of(a)


@given(vectors, vectors)
def test_subset_antisymmetry(a, b):
    if a.subset_of(b) and b.subset_of(a):
        assert a == b


@given(vectors, vectors, vectors)
def test_subset_transitivity(a, b, c):
    low = a.intersect(b)
    mid = b
    high = b.union(c)
    assert low.subset_of(mid) and mid.subset_of(high)
    assert low.subset_of(high)


def price_members():
    return (
        ("high", fs("1", "0.7", "0", "0.9", "0.9", "0", "0.9", "0.8")),
        ("middle", fs("0.6", "0.9", "0.4", "0.4", "0.5", "0.7", "0.5", "1")),
        ("low", fs("0", "0.5", "0.9", "0", "0.5", "0.9", "0", "0.5")),
    )


class TestValidation:
    def test_valid_at_09(self):
        covering = FuzzyCovering("price", U8, price_members(), parse_scaled("0.9"))
        assert validate_covering(covering).ok

    def test_invalid_at_095(self):
        covering = FuzzyCovering("price", U8, price_members(), parse_scaled("0.95"))
        report = validate_covering(covering)
        assert not report.ok
        offenders = dict(report.uncovered)
        assert offenders["x2"] == parse_scaled("0.9")
        assert set(offenders) == {"x2", "x3", "x4", "x5", "x6", "x7"}

    def test_empty_member_flagged(self):
        members = price_members() + (("zero", FuzzySet.empty(U8)),)
        covering = FuzzyCovering("price", U8, members, parse_scaled("0.9"))
        report = validate_covering(covering)
        assert report.empty_members == ("zero",)
        assert not report.ok

    def test_a_valid_covering_reads_no_columns(self, monkeypatch):
        # the per-object scan for `best` runs only when some object is uncovered
        unpacked, unpack = [], model.lanes.unpack
        monkeypatch.setattr(model.lanes, "unpack", lambda *a: unpacked.append(a) or unpack(*a))
        for gamma in ("0.9", "0.5", "0.1"):
            covering = FuzzyCovering("price", U8, price_members(), parse_scaled(gamma))
            assert validate_covering(covering).ok
        assert unpacked == []
        covering = FuzzyCovering("price", U8, price_members(), parse_scaled("0.95"))
        assert not validate_covering(covering).ok
        assert len(unpacked) == 1

    def test_report_text_with_uncovered_objects_and_an_empty_member(self):
        members = price_members()[:2] + (("zero", FuzzySet.empty(U8)),)
        covering = FuzzyCovering("price", U8, members, parse_scaled("0.95"))
        assert validate_covering(covering).describe() == (
            "covering 'price': invalid\n"
            "  member 'zero' is empty (all degrees 0)\n"
            "  object 'x2' uncovered: max degree 0.9 < gamma\n"
            "  object 'x3' uncovered: max degree 0.4 < gamma\n"
            "  object 'x4' uncovered: max degree 0.9 < gamma\n"
            "  object 'x5' uncovered: max degree 0.9 < gamma\n"
            "  object 'x6' uncovered: max degree 0.7 < gamma\n"
            "  object 'x7' uncovered: max degree 0.9 < gamma"
        )

    def test_degree_equal_to_gamma_covers(self):
        u = Universe(("a", "b"))
        members = (("m", FuzzySet(u, (MICRO, 899_999))), ("e", FuzzySet(u, (0, 900_000))))
        assert validate_covering(FuzzyCovering("c", u, members, 900_000)).ok
        report = validate_covering(FuzzyCovering("c", u, members, 900_001))
        assert report.uncovered == (("b", 900_000),)


class TestGamma:
    U = Universe(("a", "b"))

    def members(self):
        return (("m1", FuzzySet.from_strings(self.U, ["1", "0.5"])),)

    @pytest.mark.parametrize("gamma", [0.9, "0.9", None, 900_000.0])
    def test_refuses_a_gamma_that_is_not_micro_units(self, gamma):
        message = f"gamma must be an int of micro-units, got {gamma!r}"
        with pytest.raises(StructuralError, match=re.escape(message)):
            FuzzyCovering("c", self.U, self.members(), gamma)

    @pytest.mark.parametrize("gamma", [0, -1, MICRO + 1])
    def test_refuses_a_gamma_out_of_range(self, gamma):
        with pytest.raises(StructuralError, match=re.escape("gamma must be in (0, 1]")):
            FuzzyCovering("c", self.U, self.members(), gamma)

    def test_bool_gamma_stays_accepted(self):
        # True is one micro-unit, as a bool degree or threshold is
        covering = FuzzyCovering("c", self.U, self.members(), True)
        assert covering.gamma is True and validate_covering(covering).ok


class TestBuildFromReports:
    def expert_a(self):
        return (
            ("high", fs("1", "0.7", "0", "0.9", "0.9", "0", "0.9", "0.6")),
            ("middle", fs("0.6", "0.9", "0.4", "0.4", "0.5", "0.5", "0.5", "0.9")),
            ("low", fs("0", "0.5", "0.9", "0", "0.5", "0.9", "0", "0.5")),
        )

    def expert_b(self):
        return (
            ("high", fs("0.9", "0.7", "0", "0.9", "0.9", "0", "0.9", "0.8")),
            ("middle", fs("0.6", "0.9", "0.4", "0.4", "0.5", "0.7", "0.5", "1")),
            ("low", fs("0", "0.5", "0.9", "0", "0.5", "0.9", "0", "0.5")),
        )

    def test_union_of_two_experts(self):
        covering = build_covering_from_reports(
            "price",
            [("A", self.expert_a()), ("B", self.expert_b())],
            parse_scaled("0.9"),
        )
        assert covering.member("high").degree_strings() == (
            "1", "0.7", "0", "0.9", "0.9", "0", "0.9", "0.8",
        )
        assert covering.members == price_members()

    def test_single_expert_identity(self):
        covering = build_covering_from_reports(
            "price", [("A", self.expert_a())], parse_scaled("0.9")
        )
        assert covering.member_sets == tuple(s for _, s in self.expert_a())

    def test_crisp_reports(self):
        def crisp(names):
            return FuzzySet.from_names(U8, names)

        a = (
            ("high", crisp({"x1", "x4", "x5", "x7"})),
            ("middle", crisp({"x2", "x8"})),
            ("low", crisp({"x3", "x6"})),
        )
        b = (
            ("high", crisp({"x1", "x2", "x4", "x7", "x8"})),
            ("middle", crisp({"x5"})),
            ("low", crisp({"x3", "x6"})),
        )
        covering = build_covering_from_reports("price", [("A", a), ("B", b)], MICRO)
        assert covering.member("high") == crisp({"x1", "x2", "x4", "x5", "x7", "x8"})
        assert covering.member("middle") == crisp({"x2", "x5", "x8"})
        assert covering.member("low") == crisp({"x3", "x6"})

    def test_name_mismatch(self):
        shuffled = (self.expert_b()[1], self.expert_b()[0], self.expert_b()[2])
        with pytest.raises(StructuralError):
            build_covering_from_reports(
                "price", [("A", self.expert_a()), ("B", shuffled)], parse_scaled("0.9")
            )

    def test_universe_mismatch(self):
        other = Universe(tuple(f"y{i}" for i in range(1, 9)))
        moved = tuple((n, FuzzySet(other, s.memberships)) for n, s in self.expert_b())
        with pytest.raises(StructuralError):
            build_covering_from_reports(
                "price", [("A", self.expert_a()), ("B", moved)], parse_scaled("0.9")
            )

    def test_validates_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            model, "validate_covering", lambda c: calls.append(c) or validate_covering(c)
        )
        build_covering_from_reports(
            "price", [("A", self.expert_a()), ("B", self.expert_b())], parse_scaled("0.9")
        )
        assert len(calls) == 1

    def test_gamma_failure(self):
        with pytest.raises(ValidationError):
            build_covering_from_reports(
                "price", [("A", self.expert_a())], parse_scaled("0.95")
            )


class TestParameters:
    def test_threshold_pair_ok(self):
        t = ThresholdPair.from_strings("0.75", "0.25")
        assert (t.alpha, t.beta) == (750_000, 250_000)
        ThresholdPair.from_strings("0.5", "0.5")

    def test_threshold_pair_rejects(self):
        with pytest.raises(ParameterError):
            ThresholdPair.from_strings("0.25", "0.75")

    @pytest.mark.parametrize("alpha,beta,bad", [
        (0.75, 0.25, "alpha"), (750_000, 0.25, "beta"), ("0.75", 250_000, "alpha"),
    ])
    def test_threshold_pair_refuses_a_value_that_is_not_micro_units(self, alpha, beta, bad):
        value = {"alpha": alpha, "beta": beta}[bad]
        message = f"{bad} must be an int of micro-units, got {value!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            ThresholdPair(alpha, beta)

    @pytest.mark.parametrize("k", [2.0, "2", None])
    def test_grade_refuses_a_value_that_is_not_micro_units(self, k):
        with pytest.raises(ParameterError, match=re.escape(repr(k))):
            Grade(k)

    def test_bool_parameters_stay_accepted(self):
        assert ThresholdPair(True, False).alpha is True
        assert Grade(False).k is False

    def test_grade_parses_negative(self):
        assert Grade.from_string("-1").k == -MICRO
        assert Grade.from_string("2.5").k == 2_500_000
