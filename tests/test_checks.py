"""The differential check itself: it catches a wrong operator, and its seeds replay.

The mutant tests break one main-path operator family at a time, where
`check_one` looks it up, and require `run_random` to report mismatches for
that family and no other; the boundary tests flip one of the paper's exact
comparisons and require mismatches for exactly the families that make it.
The replay digest pins every oracle call that a fixed set of checks makes
(name, arguments, result), so a change to how instances or parameters are
drawn shows up here, and a `seed=… i=…` tag keeps naming the same instance.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from fuzzycover import checks, cli, operators, oracle, single
from fuzzycover.exact import MICRO
from fuzzycover.model import (
    ApproximationSpace,
    FuzzyCovering,
    FuzzySet,
    Grade,
    MultiGranulationSystem,
)
from fuzzycover.sysio import load

FAMILIES = (
    "prob", "grade", "dq1", "dq2", "prob-regions", "grade-regions",
    "mg-prob", "mg-grade", "mg-dq",
)
ORACLE_FNS = (
    "prob_approx", "prob_regions", "grade_approx", "grade_regions",
    "dq_disjunctive", "dq_conjunctive", "mg_prob", "mg_grade", "mg_dq",
)
# sha256 of every oracle call made by the checks in `_replayed_calls`
REPLAY_SHA256 = "c17771fea574cb218d70ed9617a9ee7e388151405d93f7afbf1bb724a58bae18"


def _canon(value):
    """A plain, order-stable value for an oracle argument or result."""
    if isinstance(value, FuzzySet):
        return value.universe.objects, value.memberships
    if isinstance(value, FuzzyCovering):
        return value.name, value.gamma, tuple((n, _canon(s)) for n, s in value.members)
    if isinstance(value, ApproximationSpace):
        return "space", _canon(value.covering)
    if isinstance(value, MultiGranulationSystem):
        return "system", tuple(_canon(c) for c in value.coverings)
    if isinstance(value, (frozenset, set)):
        return tuple(sorted(value))
    if isinstance(value, dict):  # the regions
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def _replayed_calls(monkeypatch, fixtures_dir) -> list:
    calls = []

    def record(name, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            calls.append((name, _canon(args), _canon(result)))
            return result

        return wrapper

    for name in ORACLE_FNS:
        monkeypatch.setattr(oracle, name, record(name, getattr(oracle, name)))
    assert checks.run_random(seed=20260809, count=90).ok
    assert checks.run_file(load(str(fixtures_dir / "two_cov.json")), seed=0).ok
    return calls


def test_replay_digest(monkeypatch, fixtures_dir):
    calls = _replayed_calls(monkeypatch, fixtures_dir)
    assert {name for name, *_ in calls} == set(ORACLE_FNS)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == REPLAY_SHA256, f"{len(calls)} oracle calls, sha256 {digest}"


def _drop_upper(result):
    return dataclasses.replace(result, upper=result.upper[:-1])


def _swap_pos_neg(result):
    return dataclasses.replace(result, pos=result.neg, neg=result.pos)


@pytest.mark.parametrize("op", FAMILIES)
def test_mutant_is_caught(monkeypatch, op):
    module, name = operators.FUNCTIONS[op]
    right = getattr(module, name)
    spoil = _swap_pos_neg if op.endswith("-regions") else _drop_upper
    monkeypatch.setattr(module, name, lambda *args: spoil(right(*args)))
    report = checks.run_random(seed=7, count=270)
    assert report.mismatches, f"a broken {op} went unnoticed"
    assert {m.op for m in report.mismatches} == {op}


def _strict(right):
    """`single.ratio_ge` made strict: P > threshold."""
    return lambda num, den, threshold: num * MICRO > threshold * den


def _grades_lowered(right):
    """`single.flags` with each grade one micro-unit lower: overlap >= k, mass < k."""
    def wrong(target, tests, *args):
        tests = [(table, t, None if k is None else Grade(k.k - 1)) for table, t, k in tests]
        return right(target, tests, *args)

    return wrong


# the paper's boundary rules: P >= alpha, P >= beta, overlap > k and mass <= k
@pytest.mark.parametrize("name,mutant,caught", [
    ("ratio_ge", _strict, {"prob", "prob-regions", "dq1", "dq2", "mg-prob", "mg-dq"}),
    ("flags", _grades_lowered, {"grade", "grade-regions", "dq1", "dq2", "mg-grade", "mg-dq"}),
], ids=["strict-ratio", "grade-minus-one"])
def test_boundary_flip_is_caught(monkeypatch, name, mutant, caught):
    monkeypatch.setattr(single, name, mutant(getattr(single, name)))
    report = checks.run_random(seed=0, count=cli.RANDOM_COUNT)
    assert {m.op for m in report.mismatches} == caught
