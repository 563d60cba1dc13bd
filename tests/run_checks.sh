#!/bin/sh
# Every check CI runs after installing the package, in one script so that a
# local run and CI run the same steps.  From the repository root:
#
#     sh tests/run_checks.sh
#
# First the commands run in development mode with warnings as errors.  The
# three corpora then run without pytest; the load corpus also runs under fixed
# hash seeds, since no outcome may depend on the iteration order of a set of
# strings.  Then tier-1, the benchmark tests, and the benchmark workloads
# against their goldens.  It stops at the first failure.
set -eu
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM

# a warning raised in a finalizer (an unclosed handle's ResourceWarning)
# does not change the exit code, so each command's stderr must be empty
clean() {
    python -X dev -W error -m fuzzycover "$@" > /dev/null 2> "$tmp/stderr"
    if [ -s "$tmp/stderr" ]; then cat "$tmp/stderr"; return 1; fi
}
clean approx fixtures/price.json --op dq1 --alpha 0.75 --beta 0.25 --k 2 --target X \
    --format csv --out "$tmp/approx.csv"
clean regions fixtures/price.json --op grade --k 2 --target X
clean mg fixtures/two_cov.json --op mg-dq2 --alpha 0.75 --beta 0.25 --k 1 --target X
clean sweep fixtures/price.json --op grade --k 0:4:0.5 --target X
clean neigh fixtures/two_cov.json
clean neigh fixtures/two_cov.json --format csv
clean sweep fixtures/price.json --op prob --alpha 0.5:1:0.25 --beta 0:0.5:0.25 --target X \
    --out "$tmp/sweep.csv"
clean check fixtures/two_cov.json
clean check --random --count 200
code=0
python -X dev -W error -m fuzzycover approx fixtures/price.json --op nope --target X \
    2> "$tmp/stderr" || code=$?
cat "$tmp/stderr"
test "$code" -eq 4
if grep -q Warning "$tmp/stderr"; then exit 1; fi
# an invalid covering: exit 3, and stderr is the report and nothing more
cat > "$tmp/invalid.json" <<'EOF'
{"universe": ["a", "b"], "coverings": [{"name": "c", "gamma": "0.9", "members": [
  {"name": "m", "degrees": ["1", "0.5"]}, {"name": "zero", "degrees": ["0", "0"]}]}]}
EOF
printf '%s\n' "validation error: covering 'c': invalid" \
    "  member 'zero' is empty (all degrees 0)" \
    "  object 'b' uncovered: max degree 0.5 < gamma" > "$tmp/expected"
code=0
python -X dev -W error -m fuzzycover validate "$tmp/invalid.json" 2> "$tmp/stderr" || code=$?
test "$code" -eq 3
cmp "$tmp/expected" "$tmp/stderr"

python tests/scan_corpus.py
python tests/load_corpus.py
for seed in 0 1 2 3; do
    PYTHONHASHSEED=$seed python tests/load_corpus.py
done
python tests/draw_stream.py
python -m pytest -q
python -m pytest -q bench/test_bench.py

# run.py exits 0 whether or not an output matched; its last line says
for w in coarse-single fine-fused small-many; do
    out=$(python bench/run.py --workload "$w" --seed 0 --seconds 0)
    echo "$out"
    echo "$out" | tail -n 1 | python -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)
'
done
