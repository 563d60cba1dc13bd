"""Fuzz of the inputs: any system file or flag value ends in a result or a documented error.

`sysio.loads` may only succeed or raise `ParseError`/`ValidationError`, and
`fuzzycover validate` on the same input written to a file may only exit 0, 2
or 3, never with another exception.  The numeric flags of approx, regions, mg
and sweep, run on the fixtures, may only exit 0 or 4.
"""

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
