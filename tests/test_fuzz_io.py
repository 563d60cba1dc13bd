"""Fuzz of the inputs: any system file or flag value ends in a result or a documented error.

`sysio.loads` may only succeed or raise `ParseError`/`ValidationError`, and
`fuzzycover validate` on the same input written to a file may only exit 0, 2
or 3, never with another exception.  The numeric flags of approx, regions, mg
and sweep, run on the fixtures, may only exit 0 or 4.  A command line of any
shape, built from each subcommand's registered flags, may only exit 0, 2, 3
or 4 with at most one error line.
"""

import argparse
import contextlib
import io
import json
import pathlib

import pytest

from fuzzycover import cli, sysio
from fuzzycover.model import ValidationError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

leaves = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6)
)
json_values = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=12,
)


def mostly(strategy):
    """`strategy` three times in four, any JSON value otherwise."""
    return st.sampled_from((strategy, strategy, strategy, json_values)).flatmap(lambda s: s)


# values near the file schema (universe x1, x2), so that inputs reach past the shape checks
names = st.sampled_from(["x1", "x2", "g1", ""]) | st.text(max_size=3)
degrees = st.sampled_from(
    ["0", "0.5", "1"] * 8 + ["0.9", "1.5", "-0.1", "0.1234567", "", " 1", "1e0"]
)
gammas = st.sampled_from(["0.5", "1"] * 4 + ["0", "1.5", "", "0.1234567"])
vectors = mostly(st.lists(degrees, min_size=2, max_size=2))
members = mostly(st.lists(
    st.fixed_dictionaries({"name": names, "degrees": vectors}),
    min_size=1, max_size=3, unique_by=lambda member: member["name"],
))
coverings = st.fixed_dictionaries({"name": names, "gamma": mostly(gammas), "members": members})
reports = st.fixed_dictionaries({"expert": names, "sets": members})
experts = st.fixed_dictionaries({
    "name": names, "gamma": gammas, "reports": st.lists(reports, max_size=2),
})
systems = st.fixed_dictionaries({
    "universe": mostly(st.just(["x1", "x2"])),
    "coverings": mostly(st.lists(mostly(coverings), max_size=2)),
}, optional={
    "experts": mostly(st.lists(mostly(experts), max_size=2)),
    "targets": mostly(st.dictionaries(names, vectors, max_size=2)),
})
documents = st.one_of(mostly(systems).map(json.dumps), st.text(max_size=40))


@settings(max_examples=300, deadline=None)
@given(documents)
def test_loads_succeeds_or_raises_a_documented_error(text):
    try:
        sysio.loads(text)
    except (sysio.ParseError, ValidationError):
        pass


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "system.json"


@settings(max_examples=150, deadline=None)
@given(documents.map(str.encode) | st.binary(max_size=40))
def test_validate_exits_with_a_documented_code(fuzz_file, data):
    fuzz_file.write_bytes(data)
    assert cli.main(["validate", str(fuzz_file)]) in (0, 2, 3)


FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

# decimals near the parameter ranges, malformed text, and integer parts of at
# least 4301 digits, past the interpreter's default conversion limit
flag_values = (
    st.sampled_from([
        "0", "0.25", "0.5", "0.75", "1", "2", "1.5", "-1", "0.1234567", "", " 1", "1e3",
        "\uff11", "\u0660.\u0665", "0..5", "-", ".5",
    ])
    | st.integers(4301, 4400).map(lambda n: "9" * n)
    | st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
)
# a grid with few points, a malformed one, or one whose stop is far past the point limit
huge_stops = st.sampled_from([30, 300, 4300]).map(lambda n: "9" * n)
grids = (
    flag_values
    | st.lists(flag_values, min_size=2, max_size=4).map(":".join)
    | st.tuples(flag_values, huge_stops, st.sampled_from(["1", "0.5", "0.000001"])).map(":".join)
)


def _flag_args(draw, flags: dict) -> list[str]:
    """`--flag=value` for each flag drawn present, so a value may start with `-`."""
    return [f"--{flag}={draw(values)}" for flag, values in flags.items() if draw(st.booleans())]


@st.composite
def commands(draw):
    cmd = draw(st.sampled_from(["approx", "regions", "mg", "sweep"]))
    if cmd == "mg":
        path = FIXTURES / "two_cov.json"
        op = draw(st.sampled_from(["mg-prob1", "mg-grade2", "mg-dq1"]))
        lists = st.lists(flag_values, min_size=1, max_size=3).map(",".join)
        flags = {"alphas": lists, "beta": flag_values, "ks": lists}
    else:
        path = FIXTURES / "price.json"
        op = draw(st.sampled_from(["prob", "grade"] + (["dq1"] if cmd != "regions" else [])))
        value = grids if cmd == "sweep" else flag_values
        flags = {"alpha": value, "beta": value, "k": value}
    return [cmd, str(path), "--op", op, "--target", "X", *_flag_args(draw, flags)]


@settings(max_examples=200, deadline=None)
@given(commands())
def test_numeric_flags_exit_with_a_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 4)


def _registered() -> dict:
    """{subcommand: {long option or positional name: its action}}, --help left out."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        cmd: {(a.option_strings or [a.dest])[-1]: a for a in p._actions if a.dest != "help"}
        for cmd, p in sub.choices.items()
    }


REGISTERED = _registered()
ALL_OP_IDS = sorted({*cli.SINGLE_OPS, *cli.REGION_OPS, *cli.MG_OPS, "nope"})


def usually(good: list, bad: list):
    """One of `good` three times in four, one of `bad` otherwise."""
    return st.sampled_from([good] * 3 + [bad]).flatmap(st.sampled_from)


sizes = st.integers(-2, 3).map(str)
decimals = usually(["0.25", "0.75", "2"], ["zz"])
per_covering = usually(["0.25,0.75", "1,2"], ["0.5", "zz,1"])
SHAPE_VALUES = {
    "--target": usually(["X"], ["nope"]),
    "--covering": usually(["price"], ["quality", "nope", ""]),
    "--alpha": decimals, "--beta": decimals, "--k": decimals,
    "--alphas": per_covering, "--betas": per_covering, "--ks": per_covering,
    "--residual-mode": usually(["residual", "complement"], ["both"]),
    "--format": usually(["json", "csv"], ["xml"]),
    "--seed": usually(["0", "-1"], ["x"]),
    "--count": sizes, "--n": sizes, "--m": sizes, "--members": sizes,
    "--gamma": usually(["0.9", "1"], ["0", "1.5"]),
}
PATHS = [str(FIXTURES / "price.json"), str(FIXTURES / "two_cov.json"),
         str(FIXTURES / "missing.json")]


@st.composite
def command_lines(draw, out_path):
    """A subcommand with each registered flag present or absent, a path or none.

    A flag or path the parser requires is left out one time in eight.
    """
    cmd = draw(st.sampled_from(sorted(REGISTERED)))
    argv = [cmd]
    for flag, action in REGISTERED[cmd].items():
        if not draw(st.sampled_from([True] * 7 + [False]) if action.required else st.booleans()):
            continue
        if flag == "--random":
            argv.append(flag)
        elif flag == "--op":
            argv.append(f"--op={draw(usually(list(action.choices), ALL_OP_IDS))}")
        elif flag == "--out":
            argv.append(f"--out={draw(usually([out_path], ['']))}")
        elif flag == "path":
            argv.append(draw(usually(PATHS[:2], PATHS[2:])))
        else:
            argv.append(f"{flag}={draw(SHAPE_VALUES[flag])}")
    return argv


ERROR_PREFIXES = ("parse error: ", "parameter error: ", "validation error: ")


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("shape") / "out.txt")


@pytest.fixture(scope="module")
def few_random_instances():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "RANDOM_COUNT", 3)  # `check --random` without --count
        yield


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_command_line_shape_exits_with_a_documented_code(out_path, few_random_instances, data):
    argv = data.draw(command_lines(out_path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(ERROR_PREFIXES)
