import pytest

from fuzzycover.model import (
    FuzzySet,
    Grade,
    MultiGranulationSystem,
    ParameterError,
    ThresholdPair,
)
from fuzzycover.multi import Combinator, mg_dq, mg_grade, mg_prob, vector_leq
from fuzzycover.neighborhood import build_table
from fuzzycover.single import (
    dq_conjunctive,
    dq_disjunctive,
    grade_approx,
    prob_approx,
)

from props import suite_mg_decomposition, suite_mg_laws

T = ThresholdPair.from_strings("0.75", "0.25")
ALL8 = tuple(f"x{i}" for i in range(1, 9))


@pytest.fixture(scope="module")
def system(two_cov_file):
    return two_cov_file.system


@pytest.fixture(scope="module")
def x(two_cov_file):
    return two_cov_file.target("X")


def tv(n=2):
    return (T,) * n


def kv(value, n=2):
    return (Grade.from_string(value),) * n


class TestMgProb:
    def test_all_coverings(self, system, x):
        r = mg_prob(system, x, tv(), Combinator.ALL)
        assert r.lower == ("x3",)
        assert r.upper == ALL8

    def test_any_covering(self, system, x):
        r = mg_prob(system, x, tv(), Combinator.ANY)
        assert r.lower == ("x2", "x3", "x4", "x5", "x6", "x8")
        assert r.upper == ALL8

    def test_per_covering_pieces(self, system, x):
        lowers = []
        for c in system.coverings:
            table = build_table(system.space(c.name))
            lowers.append(prob_approx(table, x, T).lower_set)
        assert lowers[0] == {"x3", "x6"}
        assert lowers[1] == {"x2", "x3", "x4", "x5", "x8"}

    def test_vector_length_checked(self, system, x):
        with pytest.raises(ParameterError):
            mg_prob(system, x, tv(3), Combinator.ALL)


class TestMgGrade:
    def test_all_coverings_k2(self, system, x):
        r = mg_grade(system, x, kv("2"), Combinator.ALL)
        assert r.lower == ("x2", "x3", "x6", "x8")
        assert r.upper == ALL8

    def test_any_covering_k2(self, system, x):
        r = mg_grade(system, x, kv("2"), Combinator.ANY)
        assert r.lower == ALL8
        assert r.upper == ALL8

    def test_zero_grades_empty_target(self, system):
        empty = FuzzySet.empty(system.universe)
        for comb in (Combinator.ALL, Combinator.ANY):
            r = mg_grade(system, empty, kv("0"), comb)
            assert r.upper == ()

    def test_vector_length_checked(self, system, x):
        with pytest.raises(ParameterError):
            mg_grade(system, x, kv("2", 1), Combinator.ALL)


class TestMgDq:
    def test_all_coverings_k1(self, system, x):
        r = mg_dq(system, x, tv(), kv("1"), Combinator.ALL)
        assert r.lower == ("x3",)
        assert r.upper == ALL8

    def test_any_covering_k1(self, system, x):
        r = mg_dq(system, x, tv(), kv("1"), Combinator.ANY)
        assert r.lower == ALL8
        assert r.upper == ALL8

    def test_combination_identities(self, system, x):
        p = mg_prob(system, x, tv(), Combinator.ALL)
        g = mg_grade(system, x, kv("1"), Combinator.ALL)
        d = mg_dq(system, x, tv(), kv("1"), Combinator.ALL)
        assert d.lower_set == p.lower_set & g.lower_set
        assert d.upper_set == p.upper_set & g.upper_set
        p2 = mg_prob(system, x, tv(), Combinator.ANY)
        g2 = mg_grade(system, x, kv("1"), Combinator.ANY)
        d2 = mg_dq(system, x, tv(), kv("1"), Combinator.ANY)
        assert d2.lower_set == p2.lower_set | g2.lower_set
        assert d2.upper_set == p2.upper_set | g2.upper_set


class TestSingleCoveringDegeneration:
    def test_m1_equals_single_ops(self, price_file, target_x, price_table):
        system = MultiGranulationSystem(
            price_file.universe, (price_file.system.coverings[0],)
        )
        k = (Grade.from_string("2"),)
        for comb in (Combinator.ALL, Combinator.ANY):
            mp = mg_prob(system, target_x, (T,), comb)
            sp = prob_approx(price_table, target_x, T)
            assert (mp.lower, mp.upper) == (sp.lower, sp.upper)
            mgr = mg_grade(system, target_x, k, comb)
            sg = grade_approx(price_table, target_x, k[0])
            assert (mgr.lower, mgr.upper) == (sg.lower, sg.upper)
        md1 = mg_dq(system, target_x, (T,), k, Combinator.ALL)
        sd1 = dq_disjunctive(price_table, target_x, T, k[0])
        assert (md1.lower, md1.upper) == (sd1.lower, sd1.upper)
        md2 = mg_dq(system, target_x, (T,), k, Combinator.ANY)
        sd2 = dq_conjunctive(price_table, target_x, T, k[0])
        assert (md2.lower, md2.upper) == (sd2.lower, sd2.upper)


class TestVectorOrder:
    def test_grade_vectors(self):
        one_two = (Grade.from_string("1"), Grade.from_string("2"))
        two_two = (Grade.from_string("2"), Grade.from_string("2"))
        one_three = (Grade.from_string("1"), Grade.from_string("3"))
        assert vector_leq(one_two, two_two)
        assert not vector_leq(one_three, two_two)
        assert vector_leq(one_two, one_two)

    def test_threshold_vectors(self):
        lo = (ThresholdPair.from_strings("0.5", "0.25"),) * 2
        hi = (ThresholdPair.from_strings("0.75", "0.25"),) * 2
        assert vector_leq(lo, hi)
        assert not vector_leq(hi, lo)

    def test_threshold_vectors_with_an_equal_alpha(self):
        # the order is componentwise <=, so an equal alpha leaves it to beta
        lo = (ThresholdPair.from_strings("0.5", "0.25"),) * 2
        hi = (ThresholdPair.from_strings("0.5", "0.5"),) * 2
        assert vector_leq(lo, hi)
        assert vector_leq(hi, hi)
        assert not vector_leq(hi, lo)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            vector_leq((Grade.from_string("1"),), (Grade.from_string("1"),) * 2)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParameterError):
            vector_leq((Grade.from_string("1"),), (T,))


def test_property_suites_smoke():
    assert suite_mg_decomposition(seed=5, count=120) == 120
    assert suite_mg_laws(seed=5, count=120) == 120


def test_mg_packs_each_member_once(tmp_path, monkeypatch, capsys):
    """Validation at load, validation again in `space()` and each table all
    read the lanes a covering packed when it was built."""
    from fuzzycover import cli, lanes, sysio
    from fuzzycover.generate import generate_system

    path = tmp_path / "three.json"
    sysio.dump(generate_system(12, 3, 4, 900_000, 0), str(path))
    loaded, packed = [], []
    real_load, real_pack = sysio.load, lanes.pack

    def load(p):
        loaded.append(real_load(p))
        return loaded[-1]

    def pack(xs):
        packed.append(xs)  # kept, so each id stays the vector's own
        return real_pack(xs)

    monkeypatch.setattr(sysio, "load", load)
    monkeypatch.setattr(lanes, "pack", pack)
    argv = ["mg", str(path), "--op", "mg-dq1", "--target", "X", "--alpha", "0.75",
            "--beta", "0.25", "--k", "2"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    members = [id(s.memberships) for c in loaded[0].system.coverings for s in c.member_sets]
    assert len(set(members)) == 3 * 4
    assert sorted(id(xs) for xs in packed if id(xs) in members) == sorted(members)
    assert len(packed) == 3 * 4 + 3  # and the target, once for each covering's table
