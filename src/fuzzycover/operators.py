"""The nine operator families, the function that serves each, and its arguments.

Every function takes its subject (a neighborhood table, or the system for
the mg folds) and the target, then the parameters its family reads in the
order of `arguments`.  The oracle's function of the same name does too.
"""

from __future__ import annotations

from . import multi, single
from .single import ResidualMode

# family -> (module, function name).  The functions are looked up when called,
# so a wrapper installed on the module (a trace, a test's mutant) is the one
# that runs.
FUNCTIONS = {
    "prob": (single, "prob_approx"),
    "grade": (single, "grade_approx"),
    "dq1": (single, "dq_disjunctive"),
    "dq2": (single, "dq_conjunctive"),
    "prob-regions": (single, "prob_regions"),
    "grade-regions": (single, "grade_regions"),
    "mg-prob": (multi, "mg_prob"),
    "mg-grade": (multi, "mg_grade"),
    "mg-dq": (multi, "mg_dq"),
}


def parameters_read(family: str) -> tuple[str, ...]:
    """The parameters a family reads: alpha and beta unless it is a grade op,
    k unless it is a prob op (dq1, dq2 and mg-dq read all three)."""
    base = family.removeprefix("mg-").removesuffix("-regions")
    return ("alpha", "beta") * (base != "grade") + ("k",) * (base != "prob")


def arguments(family: str, thresholds: list, grades: list, combinator, mode) -> list:
    """The parameters `family` reads: thresholds unless it is a grade op, grades
    unless it is a prob op, the combinator for mg, the mode when grades are read.

    `thresholds` and `grades` are argument lists ([ThresholdPair] or
    [alpha, beta]), so the main path and the oracle each pass their own form.
    """
    reads = parameters_read(family)
    return [
        *(thresholds if "alpha" in reads else ()),
        *(grades if "k" in reads else ()),
        *((combinator,) if family.startswith("mg-") else ()),
        *((mode,) if "k" in reads else ()),
    ]


def run(family: str, subject, target, t, k, combinator=None, mode=ResidualMode.RESIDUAL):
    """Evaluate `family` on a table (the system for mg) at one parameter point.

    `t` and `k` are a ThresholdPair and a Grade (one per covering for mg);
    a parameter the family does not read is ignored.
    """
    module, name = FUNCTIONS[family]
    return getattr(module, name)(subject, target, *arguments(family, [t], [k], combinator, mode))
