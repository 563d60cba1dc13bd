#!/bin/sh
# The checks CI runs after installing the package, in one script so that a
# local run and CI run the same steps.  From the repository root:
#
#     sh tests/run_checks.sh
#
# The three corpora run without pytest; the load corpus also runs under fixed
# hash seeds, since no outcome may depend on the iteration order of a set of
# strings.  Then tier-1 and the benchmark tests.  It stops at the first failure.
set -eu
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python tests/scan_corpus.py
python tests/load_corpus.py
for seed in 0 1 2 3; do
    PYTHONHASHSEED=$seed python tests/load_corpus.py
done
python tests/draw_stream.py
python -m pytest -q
python -m pytest -q bench/test_bench.py
