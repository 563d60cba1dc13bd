"""System documents that check `sysio.loads` against recorded outcomes.

`load_corpus.json` holds each document's text and what loading it gave: the
`dumps` text of the loaded system, or the exception's type and message.  The
documents are drawn from `test_fuzz_io`'s system strategies, plus
`degrees` keys and values in every place a file can put them: a member, an
expert set, a target named `degrees`, a stray key on a covering, report,
expert block or the top level, with good vectors, a bad item after good
ones, good items in the wrong number, and items that are not strings.  A
change to how degrees are read must give every outcome byte for byte,
error text and path included.  The replay uses only the standard library,
so it also runs on an interpreter without the test dependencies:

    PYTHONPATH=src python tests/load_corpus.py

`--record` rewrites the file with the outcomes of the code on PYTHONPATH;
it needs hypothesis, which draws the documents.  Record only when an
outcome is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys

from fuzzycover import sysio

CORPUS = pathlib.Path(__file__).resolve().parent / "load_corpus.json"

BASE = {
    "universe": ["x1", "x2"],
    "coverings": [{"name": "g1", "gamma": "0.5", "members": [
        {"name": "a", "degrees": ["1", "0.5"]},
        {"name": "b", "degrees": ["0", "1"]},
    ]}],
    "experts": [{"name": "e1", "gamma": "0.5", "reports": [
        {"expert": "A", "sets": [{"name": "s", "degrees": ["1", "0.5"]}]},
        {"expert": "B", "sets": [{"name": "s", "degrees": ["0.5", "1"]}]},
    ]}],
    "targets": {"X": ["0.5", "1"]},
}

# values for a `degrees` slot: good ones, a bad item after good ones, good
# items in the wrong number, items that are not strings, and non-lists
VECTORS = [
    ["1", "0.5"], ["0.000001", "1.000000"], ["00.5", "1"], ["0", "0"],
    ["0.5", "2"], ["1", "0.1234567"], ["1", " 1"], ["1", "-0.1"], ["1", "1e0"], ["1", ""],
    ["1", "١"], ["x", "0.5"],
    ["1"], ["1", "0.5", "0"], [],
    [1, "1"], ["1", 1], ["1", None], ["1", True], ["1", 0.5], ["1", ["1"]], ["1", {"a": "1"}],
    ["1", [1, "1"]], [["1", "0.5"], ["1", "0.5"]], ["1", {"degrees": ["1", "1"]}],
    ["1", {"degrees": ["1.0", "0.5"]}], ["1", {"name": "m", "degrees": ["0.5", "1"]}],
    "1", None, {}, {"degrees": ["1", "0.5"]}, 1,
]


def _member(doc, v):
    doc["coverings"][0]["members"][1]["degrees"] = v


def _first_member(doc, v):
    doc["coverings"][0]["members"][0]["degrees"] = v


def _expert_set(doc, v):
    doc["experts"][0]["reports"][1]["sets"][0]["degrees"] = v


def _gamma(doc, v):
    doc["coverings"][0]["gamma"] = v


def _target(doc, v):
    doc["targets"]["X"] = v


def _target_named_degrees(doc, v):
    doc["targets"]["degrees"] = v


def _stray_on_covering(doc, v):
    doc["coverings"][0] = {"degrees": v, **doc["coverings"][0]}


def _stray_after_members(doc, v):
    doc["coverings"][0]["degrees"] = v


def _stray_on_report(doc, v):
    doc["experts"][0]["reports"][0]["degrees"] = v


def _stray_on_expert_block(doc, v):
    doc["experts"][0]["degrees"] = v


def _stray_at_top(doc, v):
    doc["degrees"] = v


def _universe_named_degrees(doc, v):
    doc["universe"] = ["degrees", "x2"]
    _member(doc, v)


PLACES = [_member, _first_member, _expert_set, _gamma, _target, _target_named_degrees,
          _stray_on_covering, _stray_after_members, _stray_on_report,
          _stray_on_expert_block, _stray_at_top, _universe_named_degrees]


def _variant(*edits) -> str:
    doc = copy.deepcopy(BASE)
    for place, value in edits:
        place(doc, copy.deepcopy(value))
    return json.dumps(doc)


def placed() -> list[str]:
    """BASE with each vector in each place, then pairs of edits whose errors race."""
    texts = [_variant((place, v)) for place in PLACES for v in VECTORS]
    good, bad, short = ["1", "0.5"], ["0.5", "2"], ["1"]
    texts += [
        _variant((_first_member, bad), (_member, good)),  # a spelling in a bad list, then reused
        _variant((_first_member, ["1.0", "0.5"]), (_member, ["0", "1"])),  # another spelling of 1
        _variant((_member, ["1", "9" * 4400])),  # past the interpreter's digit limit
        _variant((_member, bad), (_target, bad)),
        _variant((_target, bad), (_expert_set, bad)),
        _variant((_stray_at_top, good), (_member, bad)),
        _variant((_stray_on_covering, bad), (_member, short)),
        _variant((_target_named_degrees, bad), (_target, short)),
        _variant((_member, ["0", "0"]), (_first_member, ["0", "0"])),  # valid degrees, invalid covering
        json.dumps({**BASE, "universe": ["x1"] * 2}),
        json.dumps(BASE).replace('"name": "a"', '"degrees": ["1", "1"], "degrees": ["1", "1"], "name": "a"'),
        json.dumps(BASE).replace('"name": "a"', '"name": "a", "name": "b"'),
        json.dumps(BASE).replace('["1", "0.5"]', '["1" "0.5"]', 1),
        json.dumps(BASE).replace('"0.5"', '"\\ud800"', 1),
    ]
    return texts


def drawn(count: int) -> list[str]:
    """`count` documents from `test_fuzz_io.documents`, drawn without randomness."""
    from hypothesis import HealthCheck, given, settings

    import test_fuzz_io

    texts = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(test_fuzz_io.documents)
    def collect(text):
        texts.append(text)

    collect()
    return texts


def outcome(text: str) -> dict:
    """What `sysio.loads(text)` gives: its system's `dumps` text, or its error."""
    try:
        return {"dumps": sysio.dumps(sysio.loads(text))}
    except Exception as e:  # noqa: BLE001 - the outcome records any exception
        return {"error": type(e).__name__, "message": str(e)}


def mismatches(entries: list[dict]) -> list[tuple[str, dict, dict]]:
    """(text, recorded, got) for each document whose outcome changed."""
    return [(e["text"], e["outcome"], got) for e in entries
            if (got := outcome(e["text"])) != e["outcome"]]


def read() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def record() -> None:
    texts = list(dict.fromkeys(placed() + drawn(400)))
    entries = [{"text": text, "outcome": outcome(text)} for text in texts]
    lines = ",\n".join(map(json.dumps, entries))  # one document a line
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    entries = read()
    bad = mismatches(entries)
    for text, want, got in bad:
        print(text[:200], want, got, sep="\n  ")
    print(f"{sys.version.split()[0]}: {len(entries)} documents, "
          f"{sum('dumps' in e['outcome'] for e in entries)} load, {len(bad)} changed")
    sys.exit(1 if bad else 0)
