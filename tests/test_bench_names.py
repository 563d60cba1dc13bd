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
