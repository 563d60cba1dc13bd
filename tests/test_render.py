"""The result and system writers: same bytes as json.dumps and the row-loop CSV.

`sysio.render_json` must return exactly `json.dumps(doc, indent=2,
sort_keys=True, ensure_ascii=False) + "\\n"`, and the key-order-keeping writer
behind `sysio.dumps` the same call without `sort_keys`, for any document of
str, list and dict; any other type raises TypeError.  `render_result_csv`
builds its table by columns and must give the bytes of the per-object row loop
kept below as the reference.  Rendering a large `neigh` document must not
need much more memory than its output.  Every degree vector is written
through `exact.format_each`, one `format_scaled` call per distinct value,
with the bytes of one call per degree.
"""

import json
import tracemalloc

import pytest

from fuzzycover import cli, exact, model, sysio
from fuzzycover.exact import format_scaled, parse_scaled
from fuzzycover.generate import generate_system
from fuzzycover.model import Universe
from fuzzycover.neighborhood import build_table

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def sorted_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def ordered_json(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# pieces of names that need escaping in JSON or quoting in CSV, and the key the
# templates splice at
ODD = ['"', "\\", "\x00", "\x01", "\n", "\r", "\t", "\x1f", "\x7f", "é", "中",
       "\u2028", "\U0001f600", ",", "|", "object", "a", "z", " "]
names = st.lists(
    st.sampled_from(ODD) | st.characters(exclude_categories=("Cs",)), max_size=4,
).map("".join)
# few values, so that entries share their non-object items and the templates are reused
shared_values = st.sampled_from(["0", "1", "0.5", "1/3", ""]) | names
entry_keys = st.sampled_from(["overlap", "sigma", "p", "a", "objecs", "objectz", "~"]) | names


@st.composite
def entries(draw):
    """A flat dict with a string `object` at any position of its insertion order."""
    items = draw(st.lists(
        st.tuples(entry_keys.filter(lambda key: key != "object"), shared_values),
        max_size=4, unique_by=lambda item: item[0],
    ))
    items.insert(draw(st.integers(0, len(items))), ("object", draw(names)))
    return dict(items)


documents = st.recursive(
    names,
    lambda inner: (
        st.lists(inner | entries(), max_size=4)
        | st.dictionaries(names, inner, max_size=4)
        | st.lists(entries(), max_size=6)
    ),
    max_leaves=25,
)


@st.composite
def with_shared_list(draw):
    """A document holding one list object at depths 1, 2 and 3, next to any document."""
    shared = draw(st.lists(names | entries(), min_size=1, max_size=4))
    return {"doc": draw(documents), "s": shared, "t": {"u": shared, "v": [shared, shared]}}


any_document = documents | with_shared_list()


@given(any_document)
@settings(max_examples=200, deadline=None)
def test_render_json_is_json_dumps(doc):
    assert sysio.render_json(doc) == sorted_json(doc)


@given(any_document)
@settings(max_examples=200, deadline=None)
def test_key_order_writer_is_json_dumps(doc):
    assert sysio._json_text(doc, sort=False) == ordered_json(doc)


SHARED = ["a", {"object": "b", "p": "1"}]


@pytest.mark.parametrize("doc", [
    # one list at depths 1, 2 and 3: the memo must key on the depth too
    {"x": SHARED, "y": [SHARED, {"z": SHARED}], "w": [{"object": "c", "p": "1"}]},
    # a name or value holding NUL or the text of another entry is spliced, not parsed
    [
        {"object": "\x00", "p": "\x00"},
        {"object": 'a", "p": "1', "p": "\x00"},
        {"p": "\x00", "object": "b"},
        {"object": "c", "p": "\x00", "q": '"object": '},
    ],
])
def test_named_documents(doc):
    assert sysio.render_json(doc) == sorted_json(doc)
    assert sysio._json_text(doc, sort=False) == ordered_json(doc)


@pytest.mark.parametrize("leaf", [None, True, 0, 1.5, ("a",), b"a", {"a"}])
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: ["a", v],
    lambda v: {"a": "b", "c": v},
    lambda v: [{"object": "a", "p": v}],
    lambda v: [{"object": "a", "p": "1"}, {"object": "b", "p": v}],
    lambda v: {"a": [{"p": "1"}, [v]]},
])
@pytest.mark.parametrize("sort", [True, False])
def test_other_types_raise_type_error(leaf, place, sort):
    with pytest.raises(TypeError):
        sysio._json_text(place(leaf), sort=sort)


@pytest.mark.parametrize("doc", [{1: "a"}, [{"object": "a", 2: "b"}], {"a": {None: []}}])
def test_non_string_keys_raise_type_error(doc):
    for sort in (True, False):
        with pytest.raises(TypeError):
            sysio._json_text(doc, sort=sort)


def test_dumps_keeps_key_order(fixtures_dir):
    for name in ("price.json", "two_cov.json", "price_experts.json"):
        text = sysio.dumps(sysio.load(str(fixtures_dir / name)))
        assert text == ordered_json(json.loads(text))
    text = sysio.dumps(generate_system(60, 2, 4, parse_scaled("0.6"), 1))
    assert text == ordered_json(json.loads(text))


def test_dumps_formats_each_distinct_degree_once(monkeypatch, fixtures_dir):
    files = [sysio.load(str(path)) for path in sorted(fixtures_dir.glob("*.json"))]
    files.append(generate_system(250, 3, 16, parse_scaled("0.9"), 0))
    # the per-position formatting degree_strings replaced, as the byte reference
    monkeypatch.setattr(model.FuzzySet, "degree_strings",
                        lambda s: tuple(map(format_scaled, s.memberships)))
    expected = [sysio.dumps(sf) for sf in files]
    monkeypatch.undo()
    calls, fmt = [], exact.format_scaled
    monkeypatch.setattr(exact, "format_scaled", lambda v: calls.append(v) or fmt(v))
    assert [sysio.dumps(sf) for sf in files] == expected
    for sf in files:
        members = [s for c in sf.system.coverings for s in c.member_sets]
        for vector in [*members, *sf.targets.values()]:
            calls.clear()
            assert vector.degree_strings() == tuple(map(fmt, vector.memberships))
            assert sorted(calls) == sorted(set(vector.memberships))


def _neigh_outputs(paths, capsys):
    """(exit code, stdout) of `neigh` on each path, as JSON and as CSV."""
    outputs = []
    for path in paths:
        for fmt in ("json", "csv"):
            code = cli.main(["neigh", str(path), "--format", fmt])
            outputs.append((code, capsys.readouterr().out))
    return outputs


def test_neigh_bytes_match_per_degree_formatting(capsys, monkeypatch, fixtures_dir, tmp_path):
    paths = sorted(fixtures_dir.glob("*.json")) + [tmp_path / "gen.json"]
    sysio.dump(generate_system(120, 2, 8, parse_scaled("0.9"), 0), str(paths[-1]))
    # the reference: one `format_scaled` call per degree
    monkeypatch.setattr(cli, "format_each", lambda values: list(map(format_scaled, values)))
    expected = _neigh_outputs(paths, capsys)
    monkeypatch.undo()
    assert _neigh_outputs(paths, capsys) == expected
    assert all(code == 0 for code, _ in expected)


def test_neigh_formats_each_distinct_value_of_a_row_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "gen.json"
    sysio.dump(generate_system(250, 3, 16, parse_scaled("0.9"), 0), str(path))
    sf = sysio.load(str(path))
    tables = [build_table(sf.system.space(c.name)) for c in sf.system.coverings]
    # each distinct value of each distinct row, each covering's sigmas, and its gamma
    bound = sum(
        sum(len(set(row)) for row in t.distinct) + len(set(t.distinct_sigma)) + 1 for t in tables
    )
    degrees = sum(len(t.distinct) * sf.universe.size for t in tables)
    assert bound < degrees / 10
    calls, fmt = [], exact.format_scaled
    for module in (exact, cli):
        monkeypatch.setattr(module, "format_scaled", lambda v: calls.append(v) or fmt(v))
    for fmt_flag in ("json", "csv"):
        calls.clear()
        assert cli.main(["neigh", str(path), "--format", fmt_flag]) == 0
        assert 0 < len(calls) <= bound
    capsys.readouterr()


def reference_result_csv(doc: dict, universe: Universe) -> str:
    """The per-object row loop that `render_result_csv` replaced, kept as its reference."""
    lower, upper = set(doc["lower"]), set(doc["upper"])
    regions = {label: set(names) for label, names in doc.get("regions", {}).items()}
    entries = doc.get("diagnostics", [])
    columns = [key for key in entries[0] if key != "object"] if entries else []
    rows = [["object", "in_lower", "in_upper", *(["regions"] if regions else []), *columns]]
    for i, name in enumerate(universe.objects):
        row = [name, str(int(name in lower)), str(int(name in upper))]
        if regions:
            row.append("|".join(label for label, names in regions.items() if name in names))
        rows.append(row + [entries[i][key] for key in columns])
    return sysio.render_csv(rows)


CSV_NAMES = ("a,b", 'say "hi"', "two\nlines", "cr\rname", "p|q", "plain", "é,中")


@st.composite
def result_documents(draw):
    """A result document over a universe of CSV-hostile names, with optional
    regions (labels may hold '|', an object may sit in two regions, none, or
    twice in one)
    and optional diagnostics."""
    objects = draw(st.lists(
        st.sampled_from(CSV_NAMES) | names.filter(bool), min_size=1, max_size=8, unique=True,
    ))
    subset = st.lists(st.sampled_from(objects), max_size=len(objects), unique=True)
    doc = {"operator": "grade", "params": {"k": "1"}, "lower": draw(subset),
           "upper": draw(subset)}
    if draw(st.booleans()):
        labels = st.sampled_from(["POS", "BND", "NEG", "a|b", "x,y", "cr\r"])
        members = st.lists(st.sampled_from(objects), max_size=len(objects) + 2)
        doc["regions"] = draw(st.dictionaries(labels, members, max_size=3))
    if draw(st.booleans()):
        columns = draw(st.lists(entry_keys.filter(lambda key: key != "object"),
                                max_size=3, unique=True))
        doc["diagnostics"] = [
            {"object": name, **{key: draw(shared_values) for key in columns}}
            for name in objects
        ]
    return doc, Universe(tuple(objects))


@given(result_documents())
@settings(max_examples=300, deadline=None)
def test_result_csv_matches_row_loop(case):
    doc, universe = case
    assert sysio.render_result_csv(doc, universe) == reference_result_csv(doc, universe)


def test_result_csv_named_cases():
    universe = Universe(CSV_NAMES)
    diagnostics = [{"object": name, "overlap": "1", "p": "1/2"} for name in CSV_NAMES]
    regions = {"POS": ["a,b", "p|q"], "BND": ["p|q", 'say "hi"'], "NEG": ["cr\rname"]}
    base = {"operator": "prob", "params": {}, "lower": ["a,b"], "upper": ["a,b", "p|q"]}
    for extra in ({}, {"regions": regions}, {"diagnostics": diagnostics},
                  {"regions": regions, "diagnostics": diagnostics}, {"regions": {}}):
        doc = {**base, **extra}
        assert sysio.render_result_csv(doc, universe) == reference_result_csv(doc, universe)


def _recorded(monkeypatch, name):
    """Wrap sysio.`name` so that each document it renders is kept."""
    seen, render = [], getattr(sysio, name)

    def record(doc, *args):
        seen.append((doc, *args))
        return render(doc, *args)

    monkeypatch.setattr(sysio, name, record)
    return seen


def test_cli_regions_bytes_at_n500(capsys, monkeypatch, tmp_path):
    path = tmp_path / "n500.json"
    sysio.dump(generate_system(500, 1, 3, parse_scaled("0.9"), 0), str(path))
    argv = ["regions", str(path), "--op", "grade", "--covering", "g1", "--k", "0.5",
            "--target", "X"]
    as_json = _recorded(monkeypatch, "render_json")
    assert cli.main(argv) == 0
    [(doc,)] = as_json
    assert capsys.readouterr().out == sorted_json(doc)
    as_csv = _recorded(monkeypatch, "render_result_csv")
    assert cli.main(argv + ["--format", "csv"]) == 0
    [(doc, universe)] = as_csv
    assert len(universe.objects) == 500 and len(doc["diagnostics"]) == 500
    assert capsys.readouterr().out == reference_result_csv(doc, universe)


def test_neigh_render_peak_memory(monkeypatch, tmp_path):
    """The writer's peak allocation stays within 1.5x the text it returns: rows
    shared by objects are rendered once, and the chunks are joined once."""
    path = tmp_path / "n1000.json"
    sysio.dump(generate_system(1000, 1, 8, parse_scaled("0.9"), 0), str(path))
    seen = []
    monkeypatch.setattr(sysio, "render_json", lambda doc: seen.append(doc) or "")
    assert cli.main(["neigh", str(path), "--out", str(tmp_path / "out.json")]) == 0
    [doc] = seen
    monkeypatch.undo()
    tracemalloc.start()
    try:
        text = sysio.render_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 10_000_000  # n * n degrees: the size at which the bound says something
    assert peak <= 1.5 * len(text)
