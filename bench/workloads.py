"""The benchmark's three workloads: their input files, commands and shapes.

Each workload is a fixed list of CLI commands (one *pass*) that the loop in
run.py cycles through.  Inputs are generated from the workload seed only, so
the same seed gives the same files, the same commands and the same bytes.

  coarse-single  one covering, n=500, 3 members: ~7 distinct neighborhoods,
                 so table building, the overlap/mass kernel, diagnostics and
                 rendering dominate and signature dedupe has most to gain.
  fine-fused     three coverings of 16 members: d is ~0.9 n, so dedupe finds
                 little to share while mg folds and sweep grid points repeat
                 the kernel (evaluate-once, sweep reuse, mg folding).
  small-many     the bundled fixtures plus small generated systems run through
                 every subcommand and a few deliberate errors: fixed
                 per-command costs (argparse, load, validation, rendering,
                 the oracle) dominate, so added set-up or per-call overhead
                 shows here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from fuzzycover import sysio
from fuzzycover.exact import parse_degree, parse_scaled
from fuzzycover.generate import generate_system

WORK_ROOT = os.path.join(".bench_out", "work")
GAMMA = "0.9"
# bundled fixtures: path, covering for single-covering commands, target, m
FIXTURES = (
    ("fixtures/crisp.json", "price", "M", 1),
    ("fixtures/price.json", "price", "X", 1),
    ("fixtures/price_experts.json", "price", "X", 1),
    ("fixtures/two_cov.json", "quality", "X", 2),
)
FIXTURE_N = 8
# (n, m, members, gamma) of the generated small-many systems
SMALL_POOL = (
    (8, 1, 2, "0.5"),
    (16, 2, 3, "0.9"),
    (24, 3, 4, "1"),
    (32, 1, 6, "0.9"),
    (48, 2, 5, "0.5"),
    (64, 3, 2, "1"),
)
SINGLE_OPS = ("prob", "grade", "dq1", "dq2")
MG_OPS = ("mg-prob1", "mg-prob2", "mg-grade1", "mg-grade2", "mg-dq1", "mg-dq2")
PROB_SWEEP = {"alpha": "0.5:1:0.1", "beta": "0:0.5:0.1"}
SHORT_SWEEP = {"k": "0:2:0.5"}
UNCOVERED = {
    "universe": ["a", "b"],
    "coverings": [
        {"name": "c", "gamma": "0.9", "members": [{"name": "m1", "degrees": ["1", "0.5"]}]}
    ],
    "targets": {"X": ["1", "0"]},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its expected exit code and how many verdicts it emits.

    `oracle` describes the result for the cross-check in verify.py; it is set
    on every command that emits lower/upper sets (approx, regions, mg, sweep).
    """

    argv: tuple[str, ...]
    expect_exit: int = 0
    verdicts: int = 0
    oracle: dict | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def grid_points(spec: str) -> list[int]:
    """Micro-unit values of a CLI grid start:stop:step (closed interval)."""
    start, stop, step = (parse_scaled(p) for p in spec.split(":"))
    return list(range(start, stop + 1, step))


def sweep_points(grids: dict) -> int:
    """Grid points one sweep evaluates; the CLI skips beta > alpha."""
    if "k" in grids:
        return len(grid_points(grids["k"]))
    alphas, betas = grid_points(grids["alpha"]), grid_points(grids["beta"])
    return sum(b <= a for a in alphas for b in betas)


def _result(cmd, path, op, target, mode, fmt, verdicts, covering=None, **params):
    argv = [cmd, path, "--op", op, "--target", target, "--residual-mode", mode]
    if fmt is not None:  # sweep always writes CSV and takes no --format
        argv += ["--format", fmt]
    if covering is not None:
        argv += ["--covering", covering]
    for flag, value in params.items():
        argv += [f"--{flag}", value]
    spec = dict(kind=cmd, path=path, op=op, target=target, covering=covering,
                mode=mode, format=fmt or "csv", **params)
    return Command(tuple(argv), verdicts=verdicts, oracle=spec)


def _sweep(path, op, target, mode, covering, n, grids):
    return _result("sweep", path, op, target, mode, None, n * sweep_points(grids),
                   covering, **grids)


def grade_sweep(n: int) -> dict:
    """11 grade points from 0.14n to 0.34n, where lower and upper both change.

    Overlap and residual mass per object grow with n (about 0.1n to 0.35n
    on the fine-fused coverings), so a fixed grid would be trivial at large n.
    """
    return {"k": ":".join(f"{p * n / 100:g}" for p in (14, 34, 2))}


def _family_params(op: str, t: dict, k: dict) -> dict:
    """The flags an operator id reads: thresholds, a grade, or both."""
    family = op.removeprefix("mg-").rstrip("12")
    return {"prob": t, "grade": k}.get(family, {**t, **k})


@dataclass
class Workload:
    """A named workload at one seed: where its inputs go and what it runs."""

    name: str
    seed: int
    params: dict = field(default_factory=dict)
    work_root: str = WORK_ROOT

    @property
    def dir(self) -> str:
        return os.path.join(self.work_root, self.name)

    def path(self, file: str) -> str:
        return os.path.join(self.dir, file)

    def systems(self) -> list[tuple[str, tuple | None]]:
        """(path, (n, m, members, gamma)) per system file; None for a fixture."""
        p = self.params
        if self.name == "coarse-single":
            return [(self.path("coarse.json"), (p["n"], 1, p["members"], GAMMA))]
        if self.name == "fine-fused":
            return [(self.path("fine.json"), (p["n"], p["m"], p["members"], GAMMA))]
        fixtures = [(f[0], None) for f in FIXTURES]
        return fixtures + [(self.path(f"pool{i}.json"), s) for i, s in enumerate(p["pool"])]

    def write_inputs(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        for path, gen in self.systems():
            if gen is not None:
                n, m, members, gamma = gen
                sysio.dump(generate_system(n, m, members, parse_degree(gamma), self.seed), path)
        if self.name == "small-many":
            with open(self.path("uncovered.json"), "w", encoding="utf-8") as fh:
                json.dump(UNCOVERED, fh)
            with open(self.path("malformed.json"), "w", encoding="utf-8") as fh:
                fh.write('{"universe": ["a", "b"], "coverings": [')

    def commands(self) -> list[Command]:
        """One pass of the workload, in loop order."""
        return getattr(self, "_" + self.name.replace("-", "_"))()

    def _coarse_single(self) -> list[Command]:
        n = self.params["n"]
        path = self.systems()[0][0]
        t = {"alpha": "0.62", "beta": "0.59"}
        k = {"k": str(3 * n // 10)}
        kinds = [("approx", op, _family_params(op, t, k)) for op in SINGLE_OPS]
        kinds += [("regions", "prob", t), ("regions", "grade", k)]
        # every (operator, target) pair meets both residual modes and both formats
        combos = [("X", "residual", "json"), ("Y", "complement", "csv"),
                  ("X", "complement", "csv"), ("Y", "residual", "json")]
        out = [
            _result(cmd, path, op, target, mode, fmt, n, **params)
            for target, mode, fmt in combos
            for cmd, op, params in kinds
        ]
        # A fifth `regions --op grade`, the slowest kind: four passes of 25 are the
        # 100 commands the 90th percentile needs, and with the slowest kind a fifth
        # of the samples p90 falls at its middle, not at an edge between two of them.
        out.append(_result("regions", path, "grade", "Y", "complement", "json", n, **k))
        return out

    def _fine_fused(self) -> list[Command]:
        n, m = self.params["n"], self.params["m"]
        path = self.systems()[0][0]
        t = {"alpha": "0.8", "beta": "0.7"}
        k = {"k": str(12 * n // 100)}
        tv = {"alphas": ",".join(("0.8", "0.75", "0.7")[i % 3] for i in range(m)),
              "betas": ",".join(("0.7", "0.65", "0.6")[i % 3] for i in range(m))}
        kv = {"ks": ",".join(str((8, 12, 18)[i % 3] * n // 100) for i in range(m))}
        out = []
        for i, op in enumerate(MG_OPS):
            out.append(_result("mg", path, op, "X", "residual", "json", n * m,
                               **_family_params(op, t, k)))
            out.append(_result("mg", path, op, "Y", "complement", "csv", n * m,
                               **_family_params(op, tv, kv)))
            covering = f"g{i // 2 % m + 1}"
            if i % 2 == 0:
                out.append(_sweep(path, "grade", "X", "complement", covering, n, grade_sweep(n)))
            else:
                out.append(_sweep(path, "prob", "Y", "residual", covering, n, PROB_SWEEP))
        return out

    def _small_many(self) -> list[Command]:
        files = [(f, c, target, FIXTURE_N, m) for f, c, target, m in FIXTURES]
        files += [
            (self.path(f"pool{i}.json"), f"g{m}", "XY"[i % 2], n, m)
            for i, (n, m, _, _) in enumerate(self.params["pool"])
        ]
        t = {"alpha": "0.75", "beta": "0.25"}
        out = []
        for i, (path, covering, target, n, m) in enumerate(files):
            k = {"k": str(max(n // 4, 1))}
            op, mg_op, region_op = SINGLE_OPS[i % 4], MG_OPS[i % 6], ("prob", "grade")[i % 2]
            mode = ("residual", "complement")[i % 2]
            fmt, other_fmt = ("json", "csv")[i % 2], ("csv", "json")[i % 2]
            out += [
                Command(("validate", path)),
                Command(("neigh", path)),
                Command(("neigh", path, "--covering", covering, "--format", "csv")),
                _result("approx", path, op, target, mode, fmt, n, covering,
                        **_family_params(op, t, k)),
                _result("regions", path, region_op, target, mode, other_fmt, n, covering,
                        **_family_params(region_op, t, k)),
                _result("mg", path, mg_op, target, mode, fmt, n * m, **_family_params(mg_op, t, k)),
                _sweep(path, "grade", target, mode, covering, n, SHORT_SWEEP),
            ]
        pool0 = files[len(FIXTURES)][0]
        out += [
            Command(("gen", "--n", "16", "--m", "2", "--members", "3", "--gamma", GAMMA,
                     "--seed", str(self.seed))),
            Command(("check", "--random", "--count", "100", "--seed", str(self.seed))),
            Command(("validate", self.path("uncovered.json")), expect_exit=3),
            Command(("approx", pool0, "--op", "prob", "--alpha", "1.5", "--beta", "0.2",
                     "--target", "X"), expect_exit=4),
            Command(("validate", self.path("malformed.json")), expect_exit=2),
        ]
        return out


DEFAULTS = {
    "coarse-single": {"n": 500, "members": 3},
    "fine-fused": {"n": 250, "m": 3, "members": 16},
    "small-many": {"pool": SMALL_POOL},
}


def make(name: str, seed: int, work_root: str = WORK_ROOT, **params) -> Workload:
    """The named workload at a seed; `params` override its default sizes."""
    if name not in DEFAULTS:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(DEFAULTS)})")
    return Workload(name, seed, {**DEFAULTS[name], **params}, work_root)
