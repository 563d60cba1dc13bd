"""Loading a system file: recorded outcomes, its memory and its parse count.

The JSON object hook reads each member's degrees as the parser closes it,
so the file's degree strings never all exist at once, and each spelling is
parsed once; every outcome, error text and path included, must stay as
recorded in `load_corpus.json`.  The hook reads a list whole or not at all,
so its spelling table holds canonical spellings only while the parser runs,
and no outcome depends on the hash seed.
"""

import collections
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import load_corpus
from fuzzycover import sysio
from fuzzycover.exact import CANONICAL_DEGREE_RE
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


# A stray list on covering g0 holds the other spelling "1.0" before a bad item,
# and a member of g1 holds a dict whose list has "1.0" again: the error quotes
# that dict, so its list must print as the file writes it.
MIXED_SPELLINGS = json.dumps({
    "universe": ["x1", "x2"],
    "coverings": [
        {"name": "g0", "gamma": "0.5", "degrees": ["1.0", "x"],
         "members": [{"name": "a", "degrees": ["1", "0.5"]}]},
        {"name": "g1", "gamma": "0.5",
         "members": [{"name": "b", "degrees": ["1", {"degrees": ["1.0", "0.5"]}]}]},
    ],
})


def test_error_text_is_the_same_under_every_hash_seed():
    src = pathlib.Path(sysio.__file__).parents[1]
    script = (
        "import sys\n"
        "from fuzzycover import sysio\n"
        "try:\n"
        "    sysio.loads(sys.stdin.read())\n"
        "except sysio.ParseError as e:\n"
        "    print(e)\n"
    )
    texts = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], input=MIXED_SPELLINGS, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        texts.add(proc.stdout)
    [text] = texts
    assert text.startswith(
        "<string>.coverings[1].members[0].degrees[1]: expected a decimal string, "
        "got dict {'degrees': ['1.0', '0.5']}"
    )


def test_spelling_table_holds_canonical_spellings_while_parsing(monkeypatch):
    hook, tables, odd = sysio._unique_keys, [], []

    def checked(origin, scaled):
        build = hook(origin, scaled)
        tables.append(scaled)

        def check(pairs):
            doc = build(pairs)
            odd.extend(itertools.filterfalse(CANONICAL_DEGREE_RE.fullmatch, scaled))
            return doc

        return check

    monkeypatch.setattr(sysio, "_unique_keys", checked)
    texts = [entry["text"] for entry in load_corpus.read()] + [MIXED_SPELLINGS]
    for text in texts:
        load_corpus.outcome(text)  # the outcome itself is the corpus test's to check
    assert len(tables) == len(texts)
    assert odd == []
    # a list of another spelling is read after the parser: its spellings join the table then
    assert any(not all(map(CANONICAL_DEGREE_RE.fullmatch, table)) for table in tables)
