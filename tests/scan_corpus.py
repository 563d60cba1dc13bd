"""Command lines that check `cli._scan` against argparse, and the checks.

`_scan` must return either None or the Namespace argparse returns, and None
wherever argparse refuses the line or prints help.  `corpus()` is every
benchmark command line at seed 0 (all must scan) plus edge cases that must
go to argparse.  Only the standard library is used, so the corpus also runs
on an interpreter without the test dependencies:

    PYTHONPATH=src python tests/scan_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

from fuzzycover import cli
from fuzzycover.model import ParameterError

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# one well-formed command line per subcommand, each flag given once
BASE = {
    "validate": ["validate", "f.json"],
    "neigh": ["neigh", "f.json", "--covering", "c", "--format", "csv", "--out", "o.txt"],
    "approx": ["approx", "f.json", "--op", "dq1", "--target", "X", "--alpha", "0.75",
               "--beta", "0.25", "--k", "2", "--covering", "price"],
    "regions": ["regions", "f.json", "--op", "grade", "--target", "X", "--k", "2",
                "--residual-mode", "complement", "--format", "csv"],
    "mg": ["mg", "f.json", "--op", "mg-prob1", "--target", "X", "--alphas", "0.75,0.7",
           "--beta", "0.25"],
    "check": ["check", "--random", "--count", "3", "--seed", "1"],
    "gen": ["gen", "--n", "4", "--gamma", "0.9", "--m", "2", "--members", "3", "--seed", "1",
            "--out", "o.json"],
    "sweep": ["sweep", "f.json", "--op", "grade", "--target", "X", "--k", "0:2:0.5"],
}
# tokens to add: help, '--', a lone '-', negative numbers, an empty string, a positional
NOISE = ["-h", "--help", "--", "-", "-1", "-0.5", "", "extra"]


def _edges(argv: list[str]) -> list[list[str]]:
    """Ill-formed or unusual variants of one well-formed command line."""
    out = [argv + [token] for token in NOISE]
    out += [argv[:1] + [token] + argv[1:] for token in NOISE]
    for i, flag in enumerate(argv):
        if not flag.startswith("--"):
            continue
        out.append(argv[:i] + [flag[:-1]] + argv[i + 1:])  # an abbreviation
        out.append(argv + [flag])  # repeated with no value, or a repeated switch
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value = argv[i + 1]
            out.append(argv[:i] + [f"{flag}={value}"] + argv[i + 2:])
            out.append(argv[:i] + argv[i + 2:])  # left out: a required flag goes missing
            out.append(argv + [flag, value])  # repeated
            out += [argv[:i + 1] + [v] + argv[i + 2:] for v in ("", "0", "-1", "nope", "--")]
    return out


def bench_workloads() -> list:
    """The benchmark's workloads at seed 0, inputs under ./.bench_out (bench/workloads.py)."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return [workloads.make(name, 0) for name in workloads.DEFAULTS]


def corpus() -> list[list[str]]:
    """Every benchmark command line at seed 0, then the edge cases."""
    lines = [list(command.argv) for w in bench_workloads() for command in w.commands()]
    lines += [[], ["nope"], ["-h"], ["--help"], ["approx"], ["check"], ["check", ""],
              ["check", "f.json"], ["check", "f.json", "--random"], ["check", "--random", "f.json"],
              ["check", "--seed", "1", "f.json"], ["check", "--count", "0", "--random"],
              ["mg", "f.json", "--op", "mg-prob1", "--target", "X", "--alpha", "1", "--alphas", "1"],
              ["gen", "--n", "0", "--gamma", "1"], ["gen", "--n", "1", "--gamma", "1", "--out", ""]]
    for argv in BASE.values():
        lines += [argv, *_edges(argv)]
    return lines


def argparse_reads(argv: list[str]):
    """The Namespace argparse returns for `argv`; None where it refuses it or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.build_parser(argv[0] if argv else None).parse_args(argv)
    except (ParameterError, SystemExit):
        return None


def disagreement(argv: list[str]) -> str | None:
    """How `_scan` disagrees with argparse on `argv`; None where it agrees."""
    scanned = cli._scan(argv)
    if scanned is None:
        return None
    parsed = argparse_reads(argv)
    if parsed is None:
        return "scanned a command line argparse refuses"
    if vars(scanned) != vars(parsed):
        return f"scanned {vars(scanned)}, argparse read {vars(parsed)}"
    return None


if __name__ == "__main__":
    lines = corpus()
    bad = [(argv, why) for argv in lines if (why := disagreement(argv))]
    scanned = sum(cli._scan(argv) is not None for argv in lines)
    for argv, why in bad:
        print(argv, why)
    print(f"{sys.version.split()[0]}: {len(lines)} command lines, {scanned} scanned, "
          f"{len(bad)} disagreements")
    sys.exit(1 if bad else 0)
