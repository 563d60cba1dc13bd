"""`cli.main` reads a well-formed command line with `cli._scan`, not argparse.

The scanner must agree with argparse: on any command line it returns None or
the Namespace argparse returns, and None wherever argparse refuses the line
or prints help, so argparse still writes every help, usage and error text.
"""

import ast
import inspect
import itertools
import types

import pytest

import scan_corpus
from fuzzycover import cli

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CORPUS = scan_corpus.corpus()


def test_corpus_scans_as_argparse_reads():
    assert [(argv, why) for argv in CORPUS if (why := scan_corpus.disagreement(argv))] == []


def test_every_benchmark_command_line_scans():
    lines = [c.argv for w in scan_corpus.bench_workloads() for c in w.commands()]
    assert [argv for argv in lines if cli._scan(list(argv)) is None] == []


def test_scanned_command_lines_run_as_argparse_reads(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixtures").symlink_to(scan_corpus.BENCH.parent / "fixtures")
    for workload in scan_corpus.bench_workloads():
        workload.write_inputs()
    monkeypatch.setattr(cli, "RANDOM_COUNT", 3)  # `check --random` without --count
    scanned = [argv for argv in CORPUS if cli._scan(argv) is not None]

    def outcomes():  # (exit code, stdout, stderr) of each scanned line
        return [(cli.main(argv), *capsys.readouterr()) for argv in scanned]

    scanned_outcomes = outcomes()
    monkeypatch.setattr(cli, "_scan", lambda argv: None)
    assert outcomes() == scanned_outcomes


def _declared(command: str) -> list:
    """The arguments `command` declares in `cli.SUBCOMMANDS`, a group's in its place."""
    declared = []
    for names, options in cli.SUBCOMMANDS[command][2]:
        for name, member in names if isinstance(names, list) else [(names, options)]:
            flag = name.startswith("-")
            declared.append(types.SimpleNamespace(
                flag=name if flag else None,
                switch=member.get("action") == "store_true",
                required=member.get("required") or (not flag and member.get("nargs") is None),
                type=member.get("type"),
                choices=member.get("choices"),
            ))
    return declared


def _options() -> list[tuple[str, str, dict]]:
    """(command, name, options) of every argument and group in `cli.SUBCOMMANDS`."""
    found = []
    for command, (_, _, arguments) in cli.SUBCOMMANDS.items():
        for names, options in arguments:
            found.append((command, str(names), options))
            if isinstance(names, list):
                found += [(command, name, member) for name, member in names]
    return found


def _scan_reads() -> set[str]:
    """The option keys `cli._scan` reads, each an `options.get("<key>")` in its source."""
    scan = ast.parse(inspect.getsource(cli._scan))
    return {node.args[0].value for node in ast.walk(scan)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args and isinstance(node.args[0], ast.Constant)}


def test_every_declared_option_is_one_scan_reads():
    # an option `_scan` ignores (dest, const, metavar ...) would let it
    # return another Namespace than argparse on a line it accepts
    reads = _scan_reads() | {"help"}
    assert [(c, name, key) for c, name, options in _options() for key in options
            if key not in reads] == []
    # `_scan` knows one action and one nargs
    assert {o["action"] for _, _, o in _options() if "action" in o} <= {"store_true"}
    assert {o["nargs"] for _, _, o in _options() if "nargs" in o} <= {"?"}


def test_only_build_parser_declares_arguments_to_argparse():
    tree = ast.parse(inspect.getsource(cli))
    callers = {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in ("add_argument", "add_mutually_exclusive_group")}
    assert callers == {"build_parser"}


GOOD = ["0.5", "2", "0:2:0.5", "0.75,0.7", "X", "f.json"]
BAD = ["", "0", "-1", "-0.5", "--", "nope"]


def _value(arg):
    """A value the parser accepts for `arg`."""
    if arg.choices:
        return st.sampled_from(list(arg.choices))
    return st.sampled_from(["1", "3"] if arg.type in (int, cli._positive) else GOOD)


def _given(draw, arg) -> list[str]:
    """The tokens that give `arg`, ill-formed one time in eight."""
    if arg.flag is None:
        return [draw(_value(arg))]
    if arg.switch:
        return [arg.flag]
    good = [arg.flag, draw(_value(arg))]
    if draw(st.integers(0, 7)):
        return good
    return draw(st.sampled_from([
        [],  # left out
        [arg.flag[:-1], good[1]],  # an abbreviation
        [f"{arg.flag}={good[1]}"],
        [arg.flag],  # no value
        [arg.flag, draw(st.sampled_from(BAD))],
    ]))


@st.composite
def command_lines(draw):
    """A subcommand's declared arguments in any order: the required ones and
    half the others, then one time in four a repeat or a token only argparse reads."""
    command = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    parts = [_given(draw, arg) for arg in _declared(command) if arg.required or draw(st.booleans())]
    if not draw(st.integers(0, 3)):
        parts.append(draw(st.sampled_from(parts + [[token] for token in scan_corpus.NOISE])))
    return [command, *itertools.chain.from_iterable(draw(st.permutations(parts)))]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_scan_agrees_with_argparse(argv):
    assert scan_corpus.disagreement(argv) is None
