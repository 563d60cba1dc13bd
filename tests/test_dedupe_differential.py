"""Signature-shared neighborhood tables against the brute-force oracle.

At n <= 16 (the acceptance gate) almost every object has its own signature,
so the shared rows hardly act.  These systems are large enough that
signatures collide (few members, or gamma = 1) and also stay unique (many
members at low gamma), and every operator must still equal `oracle.py` by
exact set equality.  At the same sizes, with 16 members and d near n, every
row and sum of the packed-lane kernel must equal the per-element loop.
"""

import pytest

import fuzzycover.oracle as oracle
from fuzzycover import single
from fuzzycover.exact import MICRO
from fuzzycover.generate import generate_system
from fuzzycover.model import Grade, ThresholdPair
from fuzzycover.multi import Combinator, mg_dq, mg_grade, mg_prob
from fuzzycover.neighborhood import build_table, fuzzy_gamma_neighborhood
from fuzzycover.single import ResidualMode, mass_sums, overlap_sums

SIZES = (50, 150, 300)
MEMBERS = (3, 12)
GAMMAS = (MICRO, MICRO // 2)
MODES = (ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT)
ALPHA, BETA = 600_000, 300_000


def _instances():
    for n in SIZES:
        for members in MEMBERS:
            for gamma in GAMMAS:
                yield n, members, gamma


def _pair(result):
    return result.lower_set, result.upper_set


def _regions(partition):
    return {label: frozenset(names) for label, names in partition.as_dict().items()}


def _system(n: int, members: int, gamma: int):
    return generate_system(n, 2, members, gamma, seed=n + members)


def _check_system(sf) -> None:
    system, target = sf.system, sf.target("X")
    t = ThresholdPair(ALPHA, BETA)
    tables = [build_table(system.space(c.name)) for c in system.coverings]
    for table in tables:
        for name, row in zip(table.universe.objects, table.rows):
            assert row == fuzzy_gamma_neighborhood(table.space, name)

    # a grade equal to a realized overlap puts an exact tie on the boundary
    ks = []
    for table in tables:
        per_row = single.overlap_sums(table, target)
        overlaps = sorted(per_row[j] for j in table.index)
        ks.append(Grade(overlaps[len(overlaps) // 2]))

    # single-covering operators on the first covering; the mg folds use both
    table, space, k = tables[0], tables[0].space, ks[0]
    res, comp = ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT
    assert _pair(single.prob_approx(table, target, t)) == oracle.prob_approx(
        space, target, ALPHA, BETA
    )
    for mode in MODES:
        assert _pair(single.grade_approx(table, target, k, mode)) == oracle.grade_approx(
            space, target, k.k, mode.value
        )
    assert _pair(single.dq_disjunctive(table, target, t, k, res)) == (
        oracle.dq_disjunctive(space, target, ALPHA, BETA, k.k, res.value)
    )
    assert _pair(single.dq_conjunctive(table, target, t, k, comp)) == (
        oracle.dq_conjunctive(space, target, ALPHA, BETA, k.k, comp.value)
    )
    assert _regions(single.prob_regions(table, target, t)) == oracle.prob_regions(
        space, target, ALPHA, BETA
    )
    assert _regions(single.grade_regions(table, target, k, comp)) == (
        oracle.grade_regions(space, target, k.k, comp.value)
    )

    ts, raw_ks = (t,) * system.size, [g.k for g in ks]
    alphas, betas = [ALPHA] * system.size, [BETA] * system.size
    for comb, mode in ((Combinator.ALL, res), (Combinator.ANY, comp)):
        assert _pair(mg_prob(system, target, ts, comb)) == oracle.mg_prob(
            system, target, alphas, betas, comb
        )
        assert _pair(mg_grade(system, target, tuple(ks), comb, mode)) == (
            oracle.mg_grade(system, target, raw_ks, comb, mode.value)
        )
        assert _pair(mg_dq(system, target, ts, tuple(ks), comb, mode)) == (
            oracle.mg_dq(system, target, alphas, betas, raw_ks, comb, mode.value)
        )


@pytest.mark.parametrize("n,members,gamma", list(_instances()))
def test_matches_oracle(n, members, gamma):
    _check_system(_system(n, members, gamma))


def test_instances_share_rows_and_keep_them_unique():
    """Some covering above has d < n distinct rows, and some has d = n."""
    counts = []
    for n, members, gamma in _instances():
        system = _system(n, members, gamma).system
        for covering in system.coverings:
            counts.append((n, len(build_table(system.space(covering.name)).distinct)))
    assert any(d < n for n, d in counts)
    assert any(d == n for n, d in counts)


@pytest.mark.parametrize("n", (50, 173, 300))
def test_lane_kernel_matches_the_per_element_meet(n):
    sf = generate_system(n, 1, 16, 900_000, seed=n)
    space, target = sf.system.space(), sf.target("X")
    vectors, gamma = [s.memberships for s in space.covering.member_sets], space.covering.gamma
    table = build_table(space)
    assert len(table.distinct_sigma) >= 0.8 * n  # d near n: the rows are hardly shared
    rows = []
    for i, name in enumerate(space.universe.objects):
        row = tuple(map(min, zip(*[v for v in vectors if v[i] >= gamma])))
        rows.append(row)
        assert table.distinct[table.index[i]] == row
        assert table.distinct_sigma[table.index[i]] == sum(row)
        assert fuzzy_gamma_neighborhood(space, name).memberships == row
    xs, cs = target.memberships, target.complement().memberships
    overlap = tuple(sum(map(min, xs, row)) for row in rows)

    def per_object(per_row):
        # one value per distinct row, read for each object through the index
        assert len(per_row) == len(table.packed)
        return tuple(per_row[j] for j in table.index)

    assert per_object(overlap_sums(table, target)) == overlap
    assert per_object(mass_sums(table, target, ResidualMode.RESIDUAL)) == tuple(
        sum(row) - o for row, o in zip(rows, overlap)
    )
    assert per_object(mass_sums(table, target, ResidualMode.COMPLEMENT)) == tuple(
        sum(map(min, cs, row)) for row in rows
    )
