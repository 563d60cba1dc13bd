"""Cross-check of emitted results against the brute-force oracle.

Once per run, outside the timed loop, every distinct result-producing
command's emitted lower/upper (and region) sets are compared with
`fuzzycover.oracle` by exact set equality.  The oracle recomputes each
neighborhood from the covering members, so this reaches the workload sizes
(n=500) that the package's own differential check does not.
"""

from __future__ import annotations

import csv
import io
import json

from fuzzycover import oracle
from fuzzycover.exact import parse_degree, parse_scaled
from fuzzycover.model import ApproximationSpace
from fuzzycover.sysio import load

COMBINATOR = {"1": "all", "2": "any"}


class Oracle:
    """Brute-force results for command specs, each computed once per run."""

    def __init__(self):
        self._systems: dict = {}
        self._results: dict = {}

    def _system(self, path: str):
        if path not in self._systems:
            self._systems[path] = load(path)
        return self._systems[path]

    def _call(self, fn, spec, *args):
        key = (fn.__name__, spec["path"], spec["target"], spec["covering"], *args)
        if key not in self._results:
            sf = self._system(spec["path"])
            target = sf.target(spec["target"])
            if fn.__name__.startswith("mg_"):
                self._results[key] = fn(sf.system, target, *args)
            else:
                name = spec["covering"] or sf.system.coverings[0].name
                space = ApproximationSpace(sf.universe, sf.system.covering(name))
                self._results[key] = fn(space, target, *args)
        return self._results[key]

    def single(self, spec: dict, op: str, alpha=None, beta=None, k=None) -> dict:
        """Expected lower/upper (plus regions for `regions` commands)."""
        mode = spec["mode"]
        if op == "prob":
            lo, up = self._call(oracle.prob_approx, spec, alpha, beta)
        elif op == "grade":
            lo, up = self._call(oracle.grade_approx, spec, k, mode)
        elif op == "dq1":
            lo, up = self._call(oracle.dq_disjunctive, spec, alpha, beta, k, mode)
        else:
            lo, up = self._call(oracle.dq_conjunctive, spec, alpha, beta, k, mode)
        expected = {"lower": lo, "upper": up}
        if spec["kind"] == "regions":
            if op == "prob":
                regions = self._call(oracle.prob_regions, spec, alpha, beta)
            else:
                regions = self._call(oracle.grade_regions, spec, k, mode)
            expected["regions"] = regions
        return expected

    def mg(self, spec: dict) -> dict:
        op, mode = spec["op"], spec["mode"]
        m = self._system(spec["path"]).system.size
        comb = COMBINATOR[op[-1]]
        family = op[3:-1]

        def vector(flag, parse):
            if flag + "s" in spec:
                return tuple(parse(v) for v in spec[flag + "s"].split(","))
            return (parse(spec[flag]),) * m

        if family == "prob":
            args = (vector("alpha", parse_degree), vector("beta", parse_degree), comb)
            lo, up = self._call(oracle.mg_prob, spec, *args)
        elif family == "grade":
            lo, up = self._call(oracle.mg_grade, spec, vector("k", parse_scaled), comb, mode)
        else:
            args = (vector("alpha", parse_degree), vector("beta", parse_degree),
                    vector("k", parse_scaled), comb, mode)
            lo, up = self._call(oracle.mg_dq, spec, *args)
        return {"lower": lo, "upper": up}


def _emitted(spec: dict, text: str) -> dict:
    """lower/upper/regions sets from a JSON or CSV result document."""
    if spec["format"] == "json":
        doc = json.loads(text)
        got = {"lower": frozenset(doc["lower"]), "upper": frozenset(doc["upper"])}
        if "regions" in doc:
            got["regions"] = {k: frozenset(v) for k, v in doc["regions"].items()}
        return got
    rows = list(csv.DictReader(io.StringIO(text)))
    got = {
        "lower": frozenset(r["object"] for r in rows if r["in_lower"] == "1"),
        "upper": frozenset(r["object"] for r in rows if r["in_upper"] == "1"),
    }
    if rows and "regions" in rows[0]:
        regions: dict = {}
        for r in rows:
            for label in filter(None, r["regions"].split("|")):
                regions.setdefault(label, set()).add(r["object"])
        got["regions"] = {k: frozenset(v) for k, v in regions.items()}
    return got


def _same(expected: dict, got: dict) -> bool:
    if expected.keys() != got.keys():
        return False
    for key, want in expected.items():
        have = got[key]
        if key == "regions":
            # CSV cannot show an empty region; JSON lists it as []
            labels = want.keys() | have.keys()
            if any(want.get(lb, frozenset()) != have.get(lb, frozenset()) for lb in labels):
                return False
            if not have.keys() <= want.keys():
                return False
        elif have != want:
            return False
    return True


def check(orc: Oracle, spec: dict, stdout: bytes) -> str | None:
    """None when the emitted sets equal the oracle's, else what differs."""
    text = stdout.decode("utf-8")
    if spec["kind"] == "sweep":
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return "sweep emitted no rows"
        for r in rows:
            point = {f: parse_scaled(r[f]) for f in ("alpha", "beta", "k") if f in r}
            expected = orc.single({**spec, "kind": "approx"}, spec["op"], **point)
            got = {"lower": frozenset(filter(None, r["lower"].split(";"))),
                   "upper": frozenset(filter(None, r["upper"].split(";")))}
            if expected != got:
                return f"sweep point {point}: emitted {got} oracle {expected}"
        return None
    if spec["kind"] == "mg":
        expected = orc.mg(spec)
    else:
        point = {}
        if "alpha" in spec:
            point.update(alpha=parse_degree(spec["alpha"]), beta=parse_degree(spec["beta"]))
        if "k" in spec:
            point["k"] = parse_scaled(spec["k"])
        expected = orc.single(spec, spec["op"], **point)
    got = _emitted(spec, text)
    if not _same(expected, got):
        return f"emitted {got} oracle {expected}"
    return None
