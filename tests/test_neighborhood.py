import random

import pytest

from fuzzycover.exact import MICRO, format_scaled, parse_scaled
from fuzzycover.generate import generate_system
from fuzzycover.model import ApproximationSpace, FuzzySet, FuzzyCovering, StructuralError, Universe
from fuzzycover.neighborhood import (
    build_table,
    crisp_neighborhood,
    fuzzy_gamma_neighborhood,
    qualifying_members,
)
from fuzzycover.sysio import load

from props import suite_neighborhood


class TestCrisp:
    def test_intersection_of_blocks(self, crisp_space):
        n2 = crisp_neighborhood(crisp_space, "x2")
        assert n2.support() == ("x2", "x5", "x8")
        n3 = crisp_neighborhood(crisp_space, "x3")
        assert n3.support() == ("x3", "x6")

    def test_single_block_covering(self):
        u = Universe(("a", "b", "c"))
        covering = FuzzyCovering("one", u, (("all", FuzzySet.whole(u)),), MICRO)
        space = ApproximationSpace(u, covering)
        for name in u.objects:
            assert crisp_neighborhood(space, name) == FuzzySet.whole(u)

    def test_requires_crisp_members(self, price_space):
        with pytest.raises(StructuralError):
            crisp_neighborhood(price_space, "x1")


class TestFuzzy:
    def test_single_qualifier_rows(self, price_space):
        n1 = fuzzy_gamma_neighborhood(price_space, "x1")
        assert n1 == price_space.covering.member("high")
        n3 = fuzzy_gamma_neighborhood(price_space, "x3")
        assert n3 == price_space.covering.member("low")
        n8 = fuzzy_gamma_neighborhood(price_space, "x8")
        assert n8 == price_space.covering.member("middle")

    def test_qualifying_assignment(self, price_space):
        expected = {
            "x1": ("high",), "x2": ("middle",), "x3": ("low",), "x4": ("high",),
            "x5": ("high",), "x6": ("low",), "x7": ("high",), "x8": ("middle",),
        }
        for name, member_names in expected.items():
            idx = price_space.universe.index(name)
            assert qualifying_members(price_space, idx) == member_names

    def test_neighborhood_below_each_qualifier(self, quality_space):
        for name in quality_space.universe.objects:
            idx = quality_space.universe.index(name)
            row = fuzzy_gamma_neighborhood(quality_space, name)
            for member_name in qualifying_members(quality_space, idx):
                assert row.subset_of(quality_space.covering.member(member_name))

    def test_quality_row_x1(self, quality_space):
        assert fuzzy_gamma_neighborhood(quality_space, "x1") == (
            quality_space.covering.member("good")
        )


class TestTable:
    def test_sigma_golden(self, price_table):
        sigma = price_table.distinct_sigma
        assert tuple(format_scaled(sigma[j]) for j in price_table.index) == (
            "5.2", "5", "3.3", "5.2", "5.2", "3.3", "5.2", "5",
        )

    def test_rows_match_pointwise_computation(self, price_space, price_table):
        for name, row in zip(price_space.universe.objects, price_table.rows, strict=True):
            assert row == fuzzy_gamma_neighborhood(price_space, name)

    def test_self_membership_at_least_gamma(self, price_table, price_space):
        gamma = price_space.covering.gamma
        for i in range(price_space.universe.size):
            assert price_table.rows[i].memberships[i] >= gamma
            assert price_table.distinct_sigma[price_table.index[i]] >= gamma

    def test_crisp_gamma_one_reduces(self, crisp_space):
        table = build_table(crisp_space)
        for name, row in zip(crisp_space.universe.objects, table.rows, strict=True):
            assert row == crisp_neighborhood(crisp_space, name)

    def test_repr_of_a_wide_table(self):
        # a packed row of 600 lanes has more decimal digits than int-to-str allows
        space = generate_system(600, 1, 2, MICRO // 2, 0).system.space()
        assert repr(build_table(space)).startswith("NeighborhoodTable(")

    def test_rows_are_raw_integer_vectors(self, monkeypatch, fixtures_dir):
        # a table stores packed ints, viewed as int tuples; FuzzySets appear
        # only where a row leaves it
        files = [load(str(path)) for path in sorted(fixtures_dir.glob("*.json"))]
        files.append(generate_system(40, 2, 6, parse_scaled("0.6"), 3))
        spaces = [sf.system.space(c.name) for sf in files for c in sf.system.coverings]
        built = []
        validate = FuzzySet.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(FuzzySet, "__post_init__", counting)
        for space in spaces:
            built.clear()
            table = build_table(space)
            assert built == []
            assert all(type(row) is int for row in table.packed)
            for row in table.distinct:
                assert type(row) is tuple
                assert all(type(v) is int for v in row)
            for i, name in enumerate(space.universe.objects):
                assert table.rows[i] == fuzzy_gamma_neighborhood(space, name)
                assert table.distinct_sigma[table.index[i]] == table.rows[i].sigma_count()


def _naive_table(vectors, gamma):
    """Per-object signatures, slot index and distinct rows by plain loops."""
    slots, index = {}, []
    for i in range(len(vectors[0])):
        signature = tuple(j for j, v in enumerate(vectors) if v[i] >= gamma)
        index.append(slots.setdefault(signature, len(slots)))
    rows = [tuple(map(min, *(vectors[j] for j in signature))) for signature in slots]
    return list(slots), tuple(index), rows


@pytest.mark.parametrize("n", (2, 97, 300))
def test_forty_members_against_the_naive_signatures(n):
    # more members than one 31-bit word holds: objects 0 and 1 differ only in
    # member 35, so a signature cut down to one word would merge their rows
    rng = random.Random(n)
    grid = (0, 300_000, 600_000, 900_000, MICRO)
    matrix = [[rng.choice(grid) for _ in range(n)] for _ in range(40)]
    for row in matrix:
        row[1] = row[0] = row[0] or 300_000  # below gamma: keeps every member non-empty
    matrix[35][0], matrix[35][1] = MICRO, 0
    u = Universe(tuple(f"o{i}" for i in range(n)))
    members = tuple((f"m{j}", FuzzySet(u, tuple(row))) for j, row in enumerate(matrix))
    space = ApproximationSpace(u, FuzzyCovering("wide", u, members, 600_000))
    signatures, index, rows = _naive_table(matrix, 600_000)
    table = build_table(space)
    assert table.index == index
    assert table.distinct == tuple(rows)
    assert table.distinct_sigma == tuple(map(sum, rows))
    assert index[0] != index[1] and 35 in signatures[index[0]]
    for i, name in enumerate(u.objects):
        names = tuple(f"m{j}" for j in signatures[index[i]])
        assert qualifying_members(space, i) == names
        assert fuzzy_gamma_neighborhood(space, name).memberships == rows[index[i]]


def test_property_suite():
    assert suite_neighborhood(seed=11, count=200) == 200
