"""Loading a system file: recorded outcomes, its memory and its parse count.

The JSON object hook reads each member's degrees as the parser closes it,
so the file's degree strings never all exist at once, and each spelling is
parsed once; every outcome, error text and path included, must stay as
recorded in `load_corpus.json`.
"""

import collections
import json
import tracemalloc

import load_corpus
from fuzzycover import sysio
from fuzzycover.generate import generate_system


def test_load_corpus_replays_its_recorded_outcomes():
    entries = load_corpus.read()
    assert len(entries) > 700
    assert load_corpus.mismatches(entries) == []


def fine_fused_text() -> str:
    return sysio.dumps(generate_system(250, 3, 16, 900_000, 0))


def test_loads_peaks_below_one_and_a_half_times_the_text():
    text = fine_fused_text()  # 12 500 degree strings in about 240 KB
    tracemalloc.start()
    try:
        sysio.loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text)


def test_each_spelling_is_parsed_once(monkeypatch):
    text = fine_fused_text()
    parsed = collections.Counter()
    real = sysio.parse_degree

    def counting(spelling):
        parsed[spelling] += 1
        return real(spelling)

    monkeypatch.setattr(sysio, "parse_degree", counting)
    sysio.loads(text)
    doc = json.loads(text)
    vectors = [m["degrees"] for c in doc["coverings"] for m in c["members"]]
    spellings = {t for v in vectors + list(doc["targets"].values()) for t in v}
    gammas = collections.Counter(c["gamma"] for c in doc["coverings"])  # one parse per block
    assert parsed == collections.Counter(spellings) + gammas
