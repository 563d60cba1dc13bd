"""Differential testing: optimized operators against the brute-force path.

Every comparison is exact set equality.  Random instances draw degrees on a
coarse grid and bias parameters toward exact boundaries: thresholds are
sometimes taken from realized conditional probabilities (when they are
representable decimals) and grades from realized overlap and mass sums.  Of
2000 `check --random --seed 0` instances, about 1 in 10 draws a threshold
that some object's P equals exactly and about 1 in 5 a grade equal to some
object's overlap or mass, so a flipped boundary comparison shows within the
default 1000 instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import operators, oracle, single
from .exact import MICRO
from .generate import random_fuzzy_set, random_system
from .model import ApproximationSpace, FuzzySet, Grade, MultiGranulationSystem, ThresholdPair
from .neighborhood import build_table
from .single import RegionPartition, ResidualMode

OP_CYCLE = tuple(operators.FUNCTIONS)

# size of a random instance: objects, coverings, members per covering
MAX_N, MAX_M, MAX_MEMBERS = 16, 4, 5
GAMMAS = (300_000, 500_000, 600_000, 750_000, 900_000, MICRO)
FILE_ROUNDS = 40


@dataclass
class Mismatch:
    op: str
    instance: str
    detail: str


@dataclass
class DiffReport:
    instances: int = 0
    comparisons: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        lines = [
            f"instances: {self.instances}",
            f"comparisons: {self.comparisons}",
            f"mismatches: {len(self.mismatches)}",
        ]
        for m in self.mismatches[:20]:
            lines.append(f"  {m.op} @ {m.instance}: {m.detail}")
        return "\n".join(lines)


def _representable(p: Fraction) -> int | None:
    """Micro-units for p if it lies on the 10^-6 grid and in [0, 1]."""
    scaled = p * MICRO
    if scaled.denominator == 1 and 0 <= scaled <= MICRO:
        return int(scaled)
    return None


def _pick_thresholds_for(
    rng: random.Random, table, target: FuzzySet
) -> ThresholdPair:
    candidates = [0, MICRO // 4, MICRO // 2, 3 * MICRO // 4, MICRO]
    candidates += [rng.randrange(0, MICRO + 1, 50_000) for _ in range(2)]
    if rng.random() < 0.6:
        ov = single.overlap_sums(table, target)
        j = table.index[rng.randrange(table.universe.size)]
        p = _representable(Fraction(ov[j], table.distinct_sigma[j]))
        if p is not None:
            candidates.append(p)
    a, b = sorted((rng.choice(candidates), rng.choice(candidates)))
    return ThresholdPair(alpha=b, beta=a)


def _pick_grade_for(rng: random.Random, table, target: FuzzySet) -> Grade:
    n = table.universe.size
    candidates = [0, MICRO // 2, MICRO, 2 * MICRO, n * MICRO]
    candidates.append(rng.randrange(0, (n + 1) * MICRO + 1, 100_000))
    if rng.random() < 0.6:
        # exact tie: overlap == k or residual mass == k at some object, drawn over objects
        ov = single.overlap_sums(table, target)
        mass = single.mass_sums(table, target, ResidualMode.RESIDUAL)
        candidates.append(rng.choice([sums[j] for sums in (ov, mass) for j in table.index]))
    return Grade(rng.choice(candidates))


def _as_sets(result):
    """A main-path result in the oracle's shape: a (lower, upper) pair or the region dict."""
    if isinstance(result, RegionPartition):
        return {name: frozenset(objs) for name, objs in result.as_dict().items()}
    return result.lower_set, result.upper_set


def _shown(sets, universe) -> str:
    """`_as_sets` output with each set's names in universe order, the same on every run."""
    def ordered(names):
        return sorted(names, key=universe.index)

    if isinstance(sets, dict):
        return str({label: ordered(names) for label, names in sets.items()})
    return str(tuple(map(ordered, sets)))


def check_one(
    report: DiffReport,
    op: str,
    system: MultiGranulationSystem,
    target: FuzzySet,
    rng: random.Random,
    tag: str,
) -> None:
    """Compare one operator family on one system/target draw.

    Both sides take the parameters the family reads in the order of
    `operators.arguments`; the main path gets model values, the oracle raw
    micro-units and the mode's string.
    """
    # every parameter is drawn whether the family reads it or not, so the draw
    # order, and with it the instance a seed tag names, is the same for all ops
    mode = rng.choice((ResidualMode.RESIDUAL, ResidualMode.COMPLEMENT))
    fused = op.startswith("mg-")
    if fused:
        spaces = [system.space(c.name) for c in system.coverings]
    else:
        spaces = [ApproximationSpace(system.universe, rng.choice(system.coverings))]
    tables = [build_table(space) for space in spaces]
    ts = tuple(_pick_thresholds_for(rng, table, target) for table in tables)
    ks = tuple(_pick_grade_for(rng, table, target) for table in tables)
    comb = rng.choice(("all", "any")) if fused else None

    def per_covering(values):
        return values if fused else values[0]

    main = _as_sets(operators.run(
        op, system if fused else tables[0], target,
        per_covering(ts), per_covering(ks), comb, mode,
    ))
    oracle_fn = getattr(oracle, operators.FUNCTIONS[op][1])
    got = oracle_fn(system if fused else spaces[0], target, *operators.arguments(
        op,
        [per_covering([t.alpha for t in ts]), per_covering([t.beta for t in ts])],
        [per_covering([g.k for g in ks])],
        comb,
        mode.value,
    ))
    report.comparisons += 1
    if main != got:
        u = system.universe
        detail = f"main={_shown(main, u)} oracle={_shown(got, u)}"
        report.mismatches.append(Mismatch(op, tag, detail))


def run_random(seed: int, count: int) -> DiffReport:
    """count random instances, cycling through every operator family."""
    report = DiffReport()
    for i in range(count):
        rng = random.Random(f"fuzzycover-check:{seed}:{i}")
        n = rng.randint(1, MAX_N)
        m = rng.randint(1, MAX_M)
        members = rng.randint(1, MAX_MEMBERS)
        system = random_system(rng, n, m, members, rng.choice(GAMMAS))
        target = random_fuzzy_set(rng, system.universe)
        op = OP_CYCLE[i % len(OP_CYCLE)]
        check_one(report, op, system, target, rng, tag=f"seed={seed} i={i}")
        report.instances += 1
    return report


def run_file(sf, seed: int = 0) -> DiffReport:
    """Differential check over a loaded system file's own data."""
    report = DiffReport()
    system = sf.system
    targets = list(sf.targets.values()) or [FuzzySet.whole(system.universe)]
    for r in range(FILE_ROUNDS):
        rng = random.Random(f"fuzzycover-check-file:{seed}:{r}")
        target = targets[r % len(targets)]
        op = OP_CYCLE[r % len(OP_CYCLE)]
        check_one(report, op, system, target, rng, tag=f"file round={r}")
        report.instances += 1
    return report
