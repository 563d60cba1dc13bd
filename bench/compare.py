"""Parent against change: the same benchmark code timed in two checkouts.

    python3 bench/compare.py --parent ../parent --change . --workload coarse-single

Each of ten pairs runs bench/run.py (this copy) once in each checkout on a
fresh seed, for `run_seconds` from BENCHMARK.json, alternating which side goes
first.  Both sides must emit the same outputs: on every seed their
`outputs_sha256` lines, one digest of every command's exit code and output
sha256, must agree, or no verdict is given.  For every end-to-end metric it
prints each side's median and quartiles, the share of pairs the change won,
and a verdict: a gain needs at least 9 of 10 pairs won, a median difference
larger than the parent's own quartile spread, and no more failed commands on
the change than on the parent; a regression is a change median worse than the
parent's by more than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
FIRST_SEED = 1   # seed 0 is the goldens' seed
PAIRS = 10


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """Metrics, failed commands and output digest of one run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark failed\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("outputs_sha256 "))
    if not result["correct"]:
        print(f"warning: {checkout} seed {seed}: {result['failed']} failed commands")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "digest": digest}


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            gain_allowed: bool) -> str:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    won = wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1
    if won and gain_allowed:
        label = "gain"
    elif sign * (c_med - p_med) < -bound * p_med:
        label = "regression"
    elif won:
        label = "no gain: the change failed more commands than the parent"
    elif (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent)):
        label = "better in every run"
    elif q3 - q1 > bound * p_med:
        label = "unresolved (parent spread wider than the bound)"
    else:
        label = "no change"
    return f"won {wins}/{len(parent)}: {label}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed,
                                       spec["run_seconds"]))
    differ = [FIRST_SEED + i for i, (p, c) in enumerate(zip(runs["parent"], runs["change"]))
              if p["digest"] != c["digest"]]
    if differ:
        print(f"{args.workload}: outputs differ between parent and change on seeds "
              f"{differ}; no verdict")
        return 1
    gain_allowed = (sum(r["failed"] for r in runs["change"])
                    <= sum(r["failed"] for r in runs["parent"]))
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        cells = []
        for values in (parent, change):
            q1, _, q3 = statistics.quantiles(values, n=4)
            cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{args.workload} {name} ({m['unit']}): parent {cells[0]}  change {cells[1]}  "
              f"{verdict(parent, change, m['better'], m['bound'], gain_allowed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
