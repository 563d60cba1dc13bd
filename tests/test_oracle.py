"""Crisp baseline behavior, brute-force agreement, and the import firewall."""

import ast
import pathlib

import pytest

import fuzzycover.oracle as oracle
from fuzzycover.exact import MICRO
from fuzzycover.checks import run_random

from props import suite_crisp_reduction

ALL8 = frozenset(f"x{i}" for i in range(1, 9))


@pytest.fixture(scope="module")
def crisp_covering(crisp_file):
    return crisp_file.system.coverings[0]


class TestCrispPawlak:
    def test_low_block(self, crisp_covering):
        lower, upper = oracle.crisp_pawlak(crisp_covering, frozenset({"x3", "x6"}))
        assert lower == frozenset({"x3", "x6"})
        assert upper == frozenset({"x3", "x6"})

    def test_whole_set(self, crisp_covering):
        lower, upper = oracle.crisp_pawlak(crisp_covering, ALL8)
        assert lower == upper == ALL8

    def test_empty_set(self, crisp_covering):
        lower, upper = oracle.crisp_pawlak(crisp_covering, frozenset())
        assert lower == frozenset()
        assert upper == frozenset()


class TestCrispProb:
    def test_alpha_one_matches_pawlak_lower(self, crisp_covering):
        x = frozenset({"x2", "x5", "x8"})
        pl, _ = oracle.crisp_pawlak(crisp_covering, x)
        got = oracle.crisp_prob(crisp_covering, x, alpha=MICRO, beta=100_000)
        assert got["lower"] == pl

    def test_small_beta_matches_pawlak_upper(self, crisp_covering):
        # the smallest positive ratio here is 1/6, so beta = 0.125 works
        x = frozenset({"x2", "x5", "x8"})
        _, pu = oracle.crisp_pawlak(crisp_covering, x)
        got = oracle.crisp_prob(crisp_covering, x, alpha=MICRO, beta=125_000)
        assert got["upper"] == pu

    def test_positive_region_membership(self, crisp_covering):
        x = frozenset({"x2", "x5", "x8"})
        got = oracle.crisp_prob(crisp_covering, x, alpha=750_000, beta=250_000)
        assert "x2" in got["POS"]  # N(x2) = {x2,x5,x8} entirely inside X
        assert got["POS"] | got["BOU"] | got["NEG"] == ALL8


class TestCrispGrade:
    def test_k0_upper_is_pawlak_upper(self, crisp_covering):
        x = frozenset({"x3", "x6"})
        _, pu = oracle.crisp_pawlak(crisp_covering, x)
        got = oracle.crisp_grade(crisp_covering, x, k=0)
        assert got["upper"] == pu

    def test_large_k_full_lower(self, crisp_covering):
        got = oracle.crisp_grade(crisp_covering, frozenset({"x1"}), k=8 * MICRO)
        assert got["lower"] == ALL8

    def test_k1_keeps_low_block(self, crisp_covering):
        got = oracle.crisp_grade(crisp_covering, frozenset({"x3", "x6"}), k=MICRO)
        assert frozenset({"x3", "x6"}) <= got["upper"]


class TestBruteForce:
    def test_prob_golden(self, price_space, target_x):
        lower, upper = oracle.prob_approx(price_space, target_x, 750_000, 250_000)
        assert lower == frozenset({"x3", "x6"})
        assert upper == ALL8

    def test_grade_golden(self, price_space, target_x):
        lower, upper = oracle.grade_approx(price_space, target_x, 2 * MICRO, "residual")
        assert lower == frozenset({"x2", "x3", "x6", "x8"})
        assert upper == ALL8

    def test_differential_smoke(self):
        report = run_random(seed=99, count=400)
        assert report.ok, report.describe()
        assert report.instances == 400


def test_crisp_reduction_suite():
    assert suite_crisp_reduction(seed=17, count=200) == 200


def test_import_firewall():
    """The brute-force path may only import shared data types, never the
    optimized operator modules."""
    source = pathlib.Path(oracle.__file__).read_text()
    tree = ast.parse(source)
    banned = {"neighborhood", "single", "multi", "checks", "sysio", "cli", "generate"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            assert module not in banned, f"oracle imports {module}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                tail = alias.name.split(".")[-1]
                assert tail not in banned, f"oracle imports {alias.name}"
