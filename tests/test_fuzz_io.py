"""Fuzz of system-file ingestion: any input ends in a result or a documented error.

`sysio.loads` may only succeed or raise `ParseError`/`ValidationError`, and
`fuzzycover validate` on the same input written to a file may only exit 0, 2
or 3, never with another exception.
"""

import json

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
