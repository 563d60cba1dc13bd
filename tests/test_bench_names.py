"""The traced benchmark wraps package functions by name (bench/spans.py).

A refactor that drops or renames one of them fails here instead of making
`bench/run.py --trace 1` exit 3.
"""

import importlib
import pathlib

BENCH = pathlib.Path(__file__).parent.parent / "bench"


def test_every_traced_function_is_defined(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    found = spans.resolve()  # raises spans.MissingFunction for a missing name
    listed = sum(len(names) for _, names in spans.LAYERS.values())
    assert len(found) == listed
    assert all(callable(fn) for _, _, _, fn in found)


def test_row_counter_reads_each_fixture_table(monkeypatch, fixtures_dir):
    """The traced row count and run.py's `shape` line read a table as
    [n, number of distinct rows]; a table change that breaks that fails here."""
    from fuzzycover.neighborhood import build_table
    from fuzzycover.sysio import load

    monkeypatch.syspath_prepend(str(BENCH))
    count_rows = importlib.import_module("spans").COUNTERS["build_table"]
    for path in sorted(fixtures_dir.glob("*.json")):
        sf = load(str(path))
        for covering in sf.system.coverings:
            table = build_table(sf.system.space(covering.name))
            assert count_rows(table) == [sf.universe.size, len(table.distinct)]
