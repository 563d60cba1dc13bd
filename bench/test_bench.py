"""Tests of the benchmark itself, on tiny sizes of each workload.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(REPO, "src"), BENCH]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fuzzycover import single, sysio  # noqa: E402

TINY = {
    "coarse-single": {"n": 20},
    "fine-fused": {"n": 12},
    "small-many": {"pool": ((8, 1, 2, "0.5"), (12, 3, 3, "1"))},
}
SEED = 7  # not the golden seed: tiny commands have no goldens


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


def tiny(name: str, seed: int = SEED):
    return workloads.make(name, seed, os.path.join(".bench_out", "test-work"), **TINY[name])


def benchmark_json() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.DEFAULTS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    outcome = run.measure(tiny(name), 0, trace)
    run.print_report(outcome)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = spans.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        unit = expected[metric][0] if trace else expected[metric]
        assert entry["unit"] == unit
        assert any(line.split()[:1] == [metric] and line.endswith(" " + unit) for line in lines)
    assert any(line.startswith("failed_ratio ") for line in lines)
    shape = json.loads(next(line for line in lines if line.startswith("shape "))[6:])
    assert shape["seed"] == SEED and shape["commands_per_pass"] == len(tiny(name).commands())
    assert all("d" in c for s in shape["systems"] for c in s["coverings"])


def test_flipped_output_byte_raises_failed_ratio(monkeypatch):
    workload = tiny("coarse-single")
    first = run.measure(workload, 0, False)
    assert first["report"]["failed_ratio"] == 0
    goldens = {key: {"sha256": digest, "exit": code}
               for key, (digest, code, _, _) in first["gate"].first.items()}
    monkeypatch.setattr(run, "load_goldens", lambda w: goldens)

    render_json = sysio.render_json

    def one_bit_off(doc):  # "operator" -> "operatos": still valid JSON, same sets
        return render_json(doc).replace('"operator"', '"operatos"', 1)

    monkeypatch.setattr(sysio, "render_json", one_bit_off)  # forked children inherit it
    second = run.measure(workload, 0, False)
    json_commands = sum(1 for c in workload.commands() if "json" in c.argv)
    assert second["report"]["failed_ratio"] == json_commands / len(workload.commands())
    assert not second["result"]["correct"]
    assert not second["report"]["details"]  # the oracle agrees; only the hash caught it


def test_oracle_mismatch_fails_every_execution(monkeypatch):
    workload = tiny("coarse-single")
    monkeypatch.setattr(sysio, "result_document", _drop_first_upper(sysio.result_document))
    outcome = run.measure(workload, 0, False)
    assert outcome["report"]["details"]
    assert outcome["result"]["failed"] == outcome["result"]["attempted"]


def _drop_first_upper(result_document):
    def wrong(result, **kwargs):
        doc = result_document(result, **kwargs)
        doc["upper"] = doc["upper"][1:] if doc["upper"] else ["x1"]
        return doc
    return wrong


def test_missing_wrapped_function_fails_the_traced_run(monkeypatch, capsys):
    monkeypatch.delattr(single, "mass_sums")
    with pytest.raises(spans.MissingFunction):
        run.measure(tiny("coarse-single"), 0, True)
    assert run.main(["--workload", "coarse-single", "--seed", "1", "--seconds", "1",
                     "--trace", "1"]) != 0
    assert not capsys.readouterr().out.strip()


def test_verdict_counts_follow_the_formula():
    # hand-computed: approx/regions n, mg n*m, sweep n*points
    coarse = tiny("coarse-single").commands()
    assert sum(c.verdicts for c in coarse) == 25 * 20
    fine = tiny("fine-fused").commands()
    assert workloads.grade_sweep(12) == {"k": "1.68:4.08:0.24"}
    assert workloads.sweep_points(workloads.grade_sweep(12)) == 11
    assert workloads.sweep_points(workloads.PROB_SWEEP) == 36
    assert sum(c.verdicts for c in fine) == 12 * 12 * 3 + 3 * 11 * 12 + 3 * 36 * 12
    small = tiny("small-many").commands()
    # fixtures (n=8; two_cov has m=2) then pool n=8,m=1 and n=12,m=3
    per_system = [(8, 1), (8, 1), (8, 1), (8, 2), (8, 1), (12, 3)]
    assert sum(c.verdicts for c in small) == sum(n + n + n * m + n * 5 for n, m in per_system)

    gate = run.Gate(None, os.path.join(".bench_out", "test-outputs"))
    workload = tiny("coarse-single")
    workload.write_inputs()
    try:
        loop = run.timed_loop(coarse, gate, 0)
    finally:
        shutil.rmtree(workload.dir)
        shutil.rmtree(gate.out_dir)
    assert loop.attempted == 4 * 25  # whole passes of 25 until at least 100 commands
    assert loop.verdicts == 4 * 25 * 20


def test_regions_grade_makes_ten_kernel_calls():
    workload = tiny("coarse-single")
    outcome = run.measure(workload, 0, True)
    with open(outcome["report"]["spans"], encoding="utf-8") as fh:
        log = json.load(fh)["commands"]
    regions = [entry for entry in log if entry["command"].startswith("regions")
               and "--op grade" in entry["command"]]
    assert regions
    for entry in regions:
        # residual mass_sums nests an overlap_sums call; the complement reading does not
        expected = 10 if "--residual-mode residual" in entry["command"] else 8
        assert sum(s[0] == "single.kernel" for s in entry["spans"]) == expected
    metrics = {k: v["value"] for k, v in outcome["result"]["metrics"].items()}
    assert metrics["single.kernel.per_cmd"] > 2
    assert metrics["neighborhood.distinct_ratio"] <= 1


def test_per_command_ratios_count_only_their_own_commands():
    outcome = run.measure(tiny("small-many"), 0, True)
    metrics = {k: v["value"] for k, v in outcome["result"]["metrics"].items()}
    # validations per loading command, by hand: loading a file validates its m
    # coverings (the experts fixture also its merged covering: e=1); then
    # validate, neigh and mg validate all m again, and neigh --covering,
    # approx, regions and sweep validate one space
    systems = [(1, 0), (1, 0), (1, 1), (2, 0), (1, 0), (3, 0)]  # (m, e) in loop order
    per_system = [3 * (m + e + m) + 4 * (m + e + 1) for m, e in systems]
    errors = [1, 2, 0]  # uncovered (m=1, fails in load), bad flag (pool0), malformed JSON
    loading = 7 * len(systems) + len(errors)
    assert metrics["model.validate.per_cmd"] == (sum(per_system) + sum(errors)) / loading

    # kernel calls only of result-producing commands; check --random makes many more
    with open(outcome["report"]["spans"], encoding="utf-8") as fh:
        log = json.load(fh)["commands"]
    results = {c.key for c in tiny("small-many").commands() if c.oracle is not None}
    kernel = {entry["command"]: sum(s[0] == "single.kernel" for s in entry["spans"])
              for entry in log}
    assert kernel[next(k for k in kernel if k.startswith("check --random"))] > 0
    assert len(results) == 4 * len(systems)  # approx, regions, mg, sweep
    assert metrics["single.kernel.per_cmd"] == sum(kernel[k] for k in results) / len(results)


def test_compare_refuses_a_gain_when_the_change_fails_more():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    change = [v / 2 for v in parent]
    assert compare.verdict(parent, change, "lower", 0.25, True).endswith(": gain")
    refused = compare.verdict(parent, change, "lower", 0.25, False)
    assert refused.endswith("failed more commands than the parent")


def test_compare_gives_no_verdict_when_outputs_differ(monkeypatch, capsys):
    def run_once(checkout, workload, seed, seconds):
        digest = "b" if checkout == "change" and seed == 3 else "a"
        return {"metrics": {}, "failed": 0, "digest": digest}

    monkeypatch.setattr(compare, "run_once", run_once)
    assert compare.main(["--parent", "parent", "--change", "change", "--workload", "w"]) == 1
    assert "outputs differ between parent and change on seeds [3]" in capsys.readouterr().out


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "coarse-single", "--seed", "1", "--seconds", "1"]) != 0
    assert not capsys.readouterr().out.strip()
