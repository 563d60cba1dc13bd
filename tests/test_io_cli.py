import argparse
import csv
import errno
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from fuzzycover import cli, lanes, multi, operators, single, sysio
from fuzzycover.exact import parse_scaled
from fuzzycover.generate import generate_system
from fuzzycover.model import FuzzySet, ValidationError
from fuzzycover.neighborhood import build_table


class TestLoad:
    def test_price_fixture(self, price_file):
        assert price_file.universe.objects == tuple(f"x{i}" for i in range(1, 9))
        assert [c.name for c in price_file.system.coverings] == ["price"]
        covering = price_file.system.coverings[0]
        assert covering.gamma == parse_scaled("0.9")
        assert covering.member_names == ("high", "middle", "low")
        assert set(price_file.targets) == {"X", "A", "B"}

    def test_two_cov_fixture(self, two_cov_file):
        assert [c.name for c in two_cov_file.system.coverings] == ["price", "quality"]
        gammas = [c.gamma for c in two_cov_file.system.coverings]
        assert gammas == [parse_scaled("0.9"), parse_scaled("0.6")]

    def test_expert_union_equals_plain_covering(self, fixtures_dir, price_file):
        merged = sysio.load(str(fixtures_dir / "price_experts.json"))
        assert merged.system.coverings[0].members == price_file.system.coverings[0].members

    def test_rejects_bare_numbers(self, price_file):
        doc = json.loads(sysio.dumps(price_file))
        doc["targets"]["X"][0] = 0.6
        with pytest.raises(sysio.ParseError, match="quote"):
            sysio.loads(json.dumps(doc))

    def test_rejects_seven_digit_degrees(self, price_file):
        doc = json.loads(sysio.dumps(price_file))
        doc["targets"]["X"][0] = "0.1234567"
        with pytest.raises(sysio.ParseError, match="6 fractional digits"):
            sysio.loads(json.dumps(doc))

    @pytest.mark.parametrize("degrees,where,message", [
        (["0.5", "bad", "0.5", "bad"], "X[1]", "not a decimal"),
        (["0.5", ["x"], "bad", "1"], "X[1]", "got list"),
        (["0.5", "0.5", "2", {}], "X[2]", "degree out of [0, 1]: '2'"),
        (["0.5", "0.5", "0.5", 0.5], "X[3]", "got float"),
        (["1", "bad", "1", "1"], "X[1]", "not a decimal"),
    ], ids=["repeated-bad", "unhashable", "bad-before-unhashable", "number-last",
            "member-spelling-first"])
    def test_degree_error_names_the_first_bad_position(self, degrees, where, message):
        # each distinct spelling is parsed once, but errors still come in vector order
        doc = {
            "universe": ["a", "b", "c", "d"],
            "coverings": [{"name": "c", "gamma": "0.5",
                           "members": [{"name": "m", "degrees": ["1"] * 4}]}],
            "targets": {"X": degrees},
        }
        with pytest.raises(sysio.ParseError) as info:
            sysio.loads(json.dumps(doc), origin="f")
        assert str(info.value).startswith(f"f.targets.{where}: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("name", ["two_cov.json", "price_experts.json"])
    def test_each_degree_spelling_is_parsed_once_per_file(self, monkeypatch, fixtures_dir, name):
        path = fixtures_dir / name
        doc = json.loads(path.read_text(encoding="utf-8"))
        blocks = doc.get("coverings", []) + doc.get("experts", [])
        vectors = [m["degrees"] for c in doc.get("coverings", []) for m in c["members"]]
        vectors += [s["degrees"] for e in doc.get("experts", []) for r in e["reports"]
                    for s in r["sets"]]
        vectors += list(doc["targets"].values())
        spellings = {text for v in vectors for text in v}
        assert len(vectors) > 1 and len(spellings) < sum(map(len, vectors))
        calls = []
        parse = sysio.parse_degree
        monkeypatch.setattr(sysio, "parse_degree", lambda text: calls.append(text) or parse(text))
        sysio.load(str(path))
        # one parse per gamma, and one per distinct spelling in the whole file
        assert len(calls) == len(blocks) + len(spellings)

    def test_rejects_wrong_vector_length(self, price_file):
        doc = json.loads(sysio.dumps(price_file))
        doc["targets"]["X"] = doc["targets"]["X"][:-1]
        with pytest.raises(sysio.ParseError, match="length"):
            sysio.loads(json.dumps(doc))

    def test_rejects_invalid_json(self):
        with pytest.raises(sysio.ParseError, match="line 1"):
            sysio.loads("{not json", origin="buffer")

    def test_rejects_duplicate_keys(self, capsys, tmp_path, price_file):
        text = sysio.dumps(price_file)
        twice = text.replace('"targets": {', '"targets": {\n    "X": ["1", "1", "1", "1", "1", "1", "1", "1"],', 1)
        with pytest.raises(sysio.ParseError, match="duplicate key 'X'"):
            sysio.loads(twice)
        nested = text.replace('"name": "high",', '"name": "high", "name": "low",', 1)
        with pytest.raises(sysio.ParseError, match="duplicate key 'name'"):
            sysio.loads(nested)
        bad = tmp_path / "dup.json"
        bad.write_text(twice)
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "duplicate key" in err

    def test_rejects_unknown_top_level_keys(self, capsys, tmp_path, price_file):
        doc = json.loads(sysio.dumps(price_file))
        doc["targts"] = doc["targets"]
        with pytest.raises(sysio.ParseError, match="unknown top-level key 'targts'"):
            sysio.loads(json.dumps(doc))
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "targts" in err

    def test_non_ascii_digits_exit_2(self, capsys, tmp_path, price_file):
        doc = json.loads(sysio.dumps(price_file))
        doc["coverings"][0]["gamma"] = "\uff10.\uff19"  # fullwidth 0.9
        bad = tmp_path / "fullwidth.json"
        bad.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("padded", [" 0.9", "0.9 ", "\u30000.9", "0.9\n"])
    def test_padded_degree_exits_2(self, capsys, tmp_path, price_file, padded):
        doc = json.loads(sysio.dumps(price_file))
        doc["coverings"][0]["gamma"] = padded
        bad = tmp_path / "padded.json"
        bad.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error:")

    def test_validation_failure_names_offender(self, price_file):
        doc = json.loads(sysio.dumps(price_file))
        doc["coverings"][0]["gamma"] = "0.95"
        with pytest.raises(ValidationError, match="x2"):
            sysio.loads(json.dumps(doc))


class TestRoundTrip:
    def test_save_load_identity(self, price_file, two_cov_file):
        for sf in (price_file, two_cov_file):
            text = sysio.dumps(sf)
            again = sysio.loads(text)
            assert again.system == sf.system
            assert again.targets == sf.targets

    def test_byte_stability(self, price_file):
        once = sysio.dumps(price_file)
        twice = sysio.dumps(sysio.loads(once))
        assert once == twice

    def test_degree_strings_survive(self, price_file):
        text = sysio.dumps(price_file)
        doc = json.loads(text)
        assert doc["coverings"][0]["members"][0]["degrees"] == [
            "1", "0.7", "0", "0.9", "0.9", "0", "0.9", "0.8",
        ]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliValidate:
    def test_valid_file(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "validate", str(fixtures_dir / "price.json"))
        assert code == 0
        assert "valid" in out

    def test_invalid_gamma_exits_3(self, capsys, tmp_path, price_file):
        doc = json.loads(sysio.dumps(price_file))
        doc["coverings"][0]["gamma"] = "0.95"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 3
        assert "x2" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "parse error" in err


def _edited(**changes):
    return lambda doc: json.dumps({**doc, **changes}).encode()


def _replaced(old: str, new: str):
    def build(doc):
        text = json.dumps(doc)
        assert old in text
        return text.replace(old, new, 1).encode()
    return build


def _with_expert(gamma="0.9", sets=None):
    """An experts block of one report, by default the price covering's members."""
    return lambda doc: json.dumps({**doc, "experts": [{
        "name": "e", "gamma": gamma,
        "reports": [{
            "expert": "A", "sets": doc["coverings"][0]["members"] if sets is None else sets,
        }],
    }]}).encode()


# system files that must end in a parse error, each with a fragment of its message
MALFORMED_FILES = {
    "coverings is a number": (_edited(coverings=5), ".coverings: expected list, got int"),
    "coverings is true": (_edited(coverings=True), ".coverings: expected list, got bool"),
    "coverings is 0": (_edited(coverings=0), ".coverings: expected list, got int"),
    "experts is a number": (_edited(experts=3), ".experts: expected list, got int"),
    "targets is an empty list": (_edited(targets=[]), ".targets: expected dict, got list"),
    "targets is 0": (_edited(targets=0), ".targets: expected dict, got int"),
    "duplicate covering names": (
        lambda doc: json.dumps({**doc, "coverings": doc["coverings"] * 2}).encode(),
        "covering names must be unique",
    ),
    "not UTF-8": (
        lambda doc: json.dumps(doc).replace("x1", "x\xe91").encode("latin-1"),
        "not UTF-8",
    ),
    "nested 100k deep": (lambda doc: b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
    # a JSON escape can make a name a lone surrogate, which loads but cannot be written out
    "object name is a lone surrogate": (
        _replaced('"x1"', '"x\\ud800"'), ".universe[0]: name 'x\\ud800' holds a lone surrogate",
    ),
    "covering name is a lone surrogate": (
        _replaced('"name": "price"', '"name": "p\\udc80"'), ".coverings[0].name: name 'p\\udc80'",
    ),
    "member name is a lone surrogate": (
        _replaced('"name": "high"', '"name": "\\ud800"'), ".coverings[0].members[0].name: name",
    ),
    "target name is a lone surrogate": (
        _replaced('"X":', '"X\\udfff":'), ".targets: name 'X\\udfff' holds a lone surrogate",
    ),
    "expert name is a lone surrogate": (
        lambda doc: json.dumps({**doc, "experts": [{
            "name": "e", "gamma": "0.9",
            "reports": [{"expert": "A\udc80", "sets": doc["coverings"][0]["members"]}],
        }]}).encode(),
        ".experts[0].reports[0].expert: name 'A\\udc80' holds a lone surrogate",
    ),
    "integer past the digit limit": (
        lambda doc: b'{"universe": [' + b"1" * 5000 + b"]}", "invalid JSON",
    ),
    "degree past the digit limit": (
        lambda doc: json.dumps({**doc, "targets": {"X": ["9" * 5000] * 8}}).encode(),
        ".targets.X[0]: integer part has 5000 digits",
    ),
    # each rule below is checked once, in exact or model; the file names the block
    "gamma is a bare number": (
        _replaced('"gamma": "0.9"', '"gamma": 0.9'), ".coverings[0].gamma: ",
    ),
    "gamma is 0": (_replaced('"gamma": "0.9"', '"gamma": "0"'), ".coverings[0]"),
    "expert gamma is 0": (_with_expert(gamma="0"), ".experts[0]"),
    "no members": (
        lambda doc: json.dumps(
            {**doc, "coverings": [{**doc["coverings"][0], "members": []}]}
        ).encode(),
        ".coverings[0]",
    ),
    "an expert with no sets": (_with_expert(sets=[]), ".experts[0]"),
    "no coverings or experts block": (
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "coverings"}).encode(),
        "covering",
    ),
    "object name is a list": (_edited(universe=[[1]]), ".universe: "),
    "object names are repeated numbers": (_edited(universe=[1, 1]), ".universe: "),
    "two members with one name": (
        lambda doc: json.dumps({**doc, "coverings": [{
            **doc["coverings"][0], "members": doc["coverings"][0]["members"][:1] * 2,
        }]}).encode(),
        "duplicate member names",
    ),
}


class TestCliMalformedFiles:
    @pytest.mark.parametrize("case", list(MALFORMED_FILES))
    def test_exits_2_with_parse_error(self, capsys, tmp_path, price_file, case):
        build, message = MALFORMED_FILES[case]
        bad = tmp_path / "bad.json"
        bad.write_bytes(build(json.loads(sysio.dumps(price_file))))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"parse error: {bad}")
        assert message in err


class TestCliApprox:
    def test_unwritable_name_exits_2_writing_nothing(self, capsys, tmp_path, fixtures_dir):
        bad = tmp_path / "bad.json"
        text = (fixtures_dir / "price.json").read_text(encoding="utf-8")
        bad.write_text(text.replace('"x1"', '"x\\ud800"'), encoding="utf-8")
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(
            capsys, "approx", str(bad), "--op", "prob", "--alpha", "0.5", "--beta", "0.25",
            "--target", "X", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"parse error: {bad}.universe[0]: name 'x\\ud800'")
        assert not out_path.exists()

    def test_prob_golden(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "approx", str(fixtures_dir / "price.json"),
            "--op", "prob", "--alpha", "0.75", "--beta", "0.25", "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == ["x3", "x6"]
        assert doc["upper"] == [f"x{i}" for i in range(1, 9)]
        assert doc["params"] == {"alpha": "0.75", "beta": "0.25"}
        p_by_object = {d["object"]: d["p"] for d in doc["diagnostics"]}
        assert p_by_object["x1"] == "1/2"
        assert p_by_object["x3"] == "25/33"

    def test_grade_golden(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "approx", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "2", "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == ["x2", "x3", "x6", "x8"]
        assert doc["residual_mode"] == "residual"

    def test_alias_ops(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "approx", str(fixtures_dir / "price.json"),
            "--op", "dq-any", "--alpha", "0.75", "--beta", "0.25", "--k", "2",
            "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["operator"] == "dq2"
        assert doc["lower"] == ["x2", "x3", "x6", "x8"]

    def test_unknown_op_exits_4(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"),
            "--op", "nope", "--target", "X",
        )
        assert code == 4
        assert "argument --op: invalid choice: 'nope'" in err

    def test_gamma_override_rejected(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"),
            "--op", "prob", "--alpha", "0.75", "--beta", "0.25",
            "--target", "X", "--gamma", "0.8",
        )
        assert code == 4
        assert "gamma" in err

    @pytest.mark.parametrize("cmd,name,flags", [
        ("approx", "price.json", ("--op", "grade", "--k", "2")),
        ("regions", "price.json", ("--op", "grade", "--k", "2")),
        ("mg", "two_cov.json", ("--op", "mg-grade1", "--k", "2")),
        ("sweep", "price.json", ("--op", "grade", "--k", "0:2:1")),
    ])
    @pytest.mark.parametrize("exists", [True, False])
    def test_missing_target_refused_before_the_file_is_read(
        self, capsys, fixtures_dir, cmd, name, flags, exists
    ):
        path = fixtures_dir / (name if exists else "nonexistent.json")
        code, out, err = run_cli(capsys, cmd, str(path), *flags)
        assert code == 4
        assert out == ""
        assert err == "parameter error: the following arguments are required: --target\n"

    def test_missing_target_exits_4(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"),
            "--op", "prob", "--alpha", "0.75", "--beta", "0.25",
        )
        assert code == 4

    def test_bad_threshold_order_exits_4(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"),
            "--op", "prob", "--alpha", "0.25", "--beta", "0.75", "--target", "X",
        )
        assert code == 4

    @pytest.mark.parametrize("name,extra,code,message", [
        ("two_cov.json", ("--target", "X"), 4, "parameter error: system has several coverings"),
        ("two_cov.json", ("--target", "X", "--covering", "nope"), 4,
         "parameter error: no covering named 'nope'"),
        ("price.json", ("--target", "nope"), 4, "parameter error: no target named 'nope'"),
        ("nonexistent.json", ("--target", "X"), 2, "No such file or directory"),
    ], ids=["no-covering", "unknown-covering", "unknown-target", "missing-file"])
    def test_unknown_name_or_file(self, capsys, fixtures_dir, name, extra, code, message):
        got, out, err = run_cli(
            capsys, "approx", str(fixtures_dir / name), "--op", "grade", "--k", "1", *extra,
        )
        assert got == code
        assert out == ""
        assert message in err

    def test_csv_format(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "approx", str(fixtures_dir / "price.json"),
            "--op", "prob", "--alpha", "0.75", "--beta", "0.25", "--target", "X",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("object,in_lower,in_upper")
        assert len(lines) == 9


class TestCliRegions:
    def test_prob_regions(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "regions", str(fixtures_dir / "price.json"),
            "--op", "prob", "--alpha", "0.75", "--beta", "0.25", "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["regions"]["POS"] == ["x3", "x6"]
        assert doc["regions"]["BOU"] == ["x1", "x2", "x4", "x5", "x7", "x8"]
        assert doc["regions"]["NEG"] == []

    def test_grade_regions(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "regions", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "2", "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["regions"]["POS"] == ["x2", "x3", "x6", "x8"]
        assert doc["regions"]["UBO"] == ["x1", "x4", "x5", "x7"]
        assert doc["regions"]["LBO"] == []


class TestCliMg:
    def test_uniform_expansion(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "mg", str(fixtures_dir / "two_cov.json"),
            "--op", "mg-prob1", "--alpha", "0.75", "--beta", "0.25", "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == ["x3"]
        assert doc["params"]["alphas"] == "0.75,0.75"

    def test_explicit_vectors(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "mg", str(fixtures_dir / "two_cov.json"),
            "--op", "mg-grade2", "--ks", "2,2", "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == [f"x{i}" for i in range(1, 9)]

    def test_vector_length_mismatch_exits_4(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys,
            "mg", str(fixtures_dir / "two_cov.json"),
            "--op", "mg-grade1", "--ks", "2,2,2", "--target", "X",
        )
        assert code == 4
        assert "2 coverings" in err

    def test_alias(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "mg", str(fixtures_dir / "two_cov.json"),
            "--op", "mg-dq-all", "--alpha", "0.75", "--beta", "0.25",
            "--k", "1", "--target", "X",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["operator"] == "mg-dq-all"
        assert doc["lower"] == ["x3"]


class TestCliFlags:
    """Each result command reads its flags through one reader and accepts only those."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "price.json", "--op", "grade", "--k", "2", "--format", "json"),
        ("mg", "two_cov.json", "--op", "mg-grade1", "--k", "2", "--covering", "price"),
    ])
    def test_unread_flag_exits_4(self, capsys, fixtures_dir, argv):
        cmd, name, *rest = argv
        code, out, err = run_cli(capsys, cmd, str(fixtures_dir / name), *rest, "--target", "X")
        assert code == 4
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("cmd,name,op", [
        ("approx", "price.json", "dq1"),
        ("sweep", "price.json", "dq1"),
        ("mg", "two_cov.json", "mg-dq1"),
    ])
    @pytest.mark.parametrize("empty", ["--alpha", "--k"])
    def test_empty_value_exits_4(self, capsys, fixtures_dir, cmd, name, op, empty):
        flags = {"--alpha": "0.75", "--beta": "0.25", "--k": "2", empty: ""}
        code, out, err = run_cli(
            capsys, cmd, str(fixtures_dir / name), "--op", op, "--target", "X",
            *(item for pair in flags.items() for item in pair),
        )
        assert code == 4
        assert out == ""
        assert err.startswith(f"parameter error: {empty}:")

    @pytest.mark.parametrize("cmd,name,op,given,missing", [
        ("approx", "price.json", "dq2", ("--alpha", "0.75", "--k", "2"), "--beta"),
        ("regions", "price.json", "grade", ("--alpha", "0.75"), "--k"),
        ("sweep", "price.json", "prob", ("--beta", "0:1:0.5"), "--alpha"),
        ("mg", "two_cov.json", "mg-dq2", ("--alphas", "1,1", "--betas", "0,0"), "--k"),
    ])
    def test_missing_flag_is_named(self, capsys, fixtures_dir, cmd, name, op, given, missing):
        code, _, err = run_cli(
            capsys, cmd, str(fixtures_dir / name), "--op", op, "--target", "X", *given,
        )
        assert code == 4
        assert err == f"parameter error: {missing} is required for this operator\n"

    def test_non_ascii_digits_exit_4(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"), "--op", "prob",
            "--alpha", "\uff10.\uff15", "--beta", "0.25", "--target", "X",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("parameter error: --alpha:")

    @pytest.mark.parametrize("padded", [" 0.5", "0.5 ", "\u30000.5"])
    def test_padded_value_exits_4(self, capsys, fixtures_dir, padded):
        code, out, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"), "--op", "prob",
            "--alpha", padded, "--beta", "0.25", "--target", "X",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("parameter error: --alpha:")

    @pytest.mark.parametrize("alphas,betas,flag", [
        ("\u30000.75,0.8", "0.25,0.25", "--alphas"),
        ("0.75, 0.8", "0.25,0.25", "--alphas"),
        ("0.75,0.8,", "0.25,0.25", "--alphas"),
        ("0.75,0.8", "0.25,,0.3", "--betas"),
    ])
    def test_list_entry_parsed_as_is(self, capsys, fixtures_dir, alphas, betas, flag):
        code, out, err = run_cli(
            capsys, "mg", str(fixtures_dir / "two_cov.json"), "--op", "mg-prob1",
            "--alphas", alphas, "--betas", betas, "--target", "X",
        )
        assert code == 4
        assert out == ""
        assert err.startswith(f"parameter error: {flag}:")

    @pytest.mark.parametrize("argv,flag", [
        (("approx", "price.json", "--op", "prob", "--alpha", "0.5", "--beta", "0.2",
          "--k", "zz"), "--k"),
        (("sweep", "price.json", "--op", "grade", "--k", "2", "--alpha", "zz"), "--alpha"),
        (("mg", "two_cov.json", "--op", "mg-grade1", "--k", "1", "--alphas", "0.5,zz"),
         "--alphas"),
    ], ids=["approx", "sweep", "mg"])
    def test_malformed_value_of_an_unread_flag_exits_4(self, capsys, fixtures_dir, argv, flag):
        cmd, name, *rest = argv
        code, out, err = run_cli(capsys, cmd, str(fixtures_dir / name), *rest, "--target", "X")
        assert code == 4
        assert out == ""
        assert err.startswith(f"parameter error: {flag}:")

    def test_mg_refuses_scalar_and_list_together(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys, "mg", str(fixtures_dir / "two_cov.json"),
            "--op", "mg-grade1", "--k", "2", "--ks", "1,1", "--target", "X",
        )
        assert code == 4
        assert out == ""
        assert "argument --ks: not allowed with argument --k" in err

    def test_mg_negative_list_entry_needs_the_equals_form(self, capsys, fixtures_dir):
        # argparse reads `-1,2` after a space as a flag
        path = str(fixtures_dir / "two_cov.json")
        code, out, err = run_cli(
            capsys, "mg", path, "--op", "mg-grade1", "--ks", "-1,2", "--target", "X",
        )
        assert (code, out) == (4, "")
        assert err == "parameter error: argument --ks: expected one argument\n"
        code, out, _ = run_cli(
            capsys, "mg", path, "--op", "mg-grade1", "--ks=-1,2", "--target", "X",
        )
        assert code == 0
        assert json.loads(out)["params"]["ks"] == "-1,2"

    @pytest.mark.parametrize("cmd,name,op,flag,value", [
        ("approx", "price.json", "grade", "--k", "9" * 5000),
        ("mg", "two_cov.json", "mg-grade1", "--ks", "1," + "9" * 5000),
        ("sweep", "price.json", "grade", "--k", "0:" + "9" * 5000 + ":1"),
    ], ids=["approx", "mg", "sweep"])
    def test_value_past_the_digit_limit_exits_4(
        self, capsys, fixtures_dir, cmd, name, op, flag, value
    ):
        code, out, err = run_cli(
            capsys, cmd, str(fixtures_dir / name), "--op", op, flag, value, "--target", "X",
        )
        assert code == 4
        assert out == ""
        assert err == (
            f"parameter error: {flag}: integer part has 5000 digits, past this interpreter's limit\n"
        )

    @pytest.mark.parametrize("cmd,name,flags", [
        ("neigh", "price.json", ()),
        ("approx", "price.json", ("--op", "grade", "--k", "2", "--target", "X")),
        ("regions", "price.json", ("--op", "grade", "--k", "2", "--target", "X")),
        ("mg", "two_cov.json", ("--op", "mg-grade1", "--k", "2", "--target", "X")),
        ("sweep", "price.json", ("--op", "grade", "--k", "2", "--target", "X")),
    ])
    def test_gamma_flag_refused(self, capsys, fixtures_dir, cmd, name, flags):
        code, out, err = run_cli(
            capsys, cmd, str(fixtures_dir / name), *flags, "--gamma", "0.8",
        )
        assert code == 4
        assert out == ""
        assert err == "parameter error: unrecognized arguments: --gamma 0.8\n"

    @pytest.mark.parametrize("stop,step,shown", [
        ("9" * 30, "1", str(10**30)),
        ("9" * 4300, "0.000001", "about 10^4306"),
    ], ids=["30 digits", "4300 digits"])
    def test_sweep_grid_past_sys_maxsize_is_refused(
        self, capsys, fixtures_dir, monkeypatch, stop, step, shown
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a refused grid was evaluated")

        monkeypatch.setattr(operators, "run", must_not_run)
        code, out, err = run_cli(
            capsys, "sweep", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", f"0:{stop}:{step}", "--target", "X",
        )
        assert code == 4
        assert out == ""
        assert err == (
            f"parameter error: sweep grid has {shown} points, "
            f"more than the limit of {cli.MAX_SWEEP_POINTS}\n"
        )

    @pytest.mark.parametrize("limit,code", [(12, 4), (13, 0)])
    def test_sweep_grid_bound(self, capsys, fixtures_dir, monkeypatch, limit, code):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", limit)
        if code:
            def must_not_run(*args):
                raise AssertionError("a refused grid was evaluated")
            monkeypatch.setattr(single, "grade_approx", must_not_run)
        got, out, err = run_cli(
            capsys, "sweep", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "0:6:0.5", "--target", "X",
        )
        assert got == code
        if code:
            assert out == ""
            assert err == (
                f"parameter error: sweep grid has 13 points, more than the limit of {limit}\n"
            )
        else:
            assert len(out.splitlines()) == 14


# the long options each subcommand lists under --help, as README's CLI section documents them
DOCUMENTED_FLAGS = {
    "validate": "",
    "neigh": "--covering --format --out",
    "approx": "--op --target --covering --alpha --beta --k --residual-mode --format --out",
    "regions": "--op --target --covering --alpha --beta --k --residual-mode --format --out",
    "mg": "--op --target --alpha --alphas --beta --betas --k --ks --residual-mode --format --out",
    "sweep": "--op --target --covering --alpha --beta --k --residual-mode --out",
    "check": "--random --seed --count",
    "gen": "--n --m --members --gamma --seed --out",
}


class TestCliShape:
    """The parser refuses a malformed command line before the system file is read."""

    @pytest.mark.parametrize("argv", [
        ("approx", "--op", "nope", "--target", "X"),
        ("regions", "--op", "nope", "--target", "X"),
        ("regions", "--op", "dq1", "--k", "1", "--target", "X"),
        ("sweep", "--op", "nope", "--target", "X"),
        ("mg", "--op", "nope", "--target", "X"),
        ("mg", "--op", "mg-grade1", "--k", "1", "--ks", "1,1", "--target", "X"),
        ("approx", "--op", "grade", "--k", "1", "--residual-mode", "both", "--target", "X"),
    ], ids=["approx", "regions", "regions-dq1", "sweep", "mg", "mg-k-ks", "residual-mode"])
    def test_refused_before_the_file_is_read(self, capsys, tmp_path, argv):
        cmd, *rest = argv
        code, out, err = run_cli(capsys, cmd, str(tmp_path / "missing.json"), *rest)
        assert code == 4
        assert out == ""
        assert err.startswith("parameter error: argument --")

    @pytest.mark.parametrize("cmd", list(DOCUMENTED_FLAGS))
    def test_help_lists_the_documented_flags(self, capsys, cmd):
        with pytest.raises(SystemExit) as stop:
            cli.main([cmd, "--help"])
        assert stop.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed - {"--help"} == set(DOCUMENTED_FLAGS[cmd].split())


class TestCliOutput:
    def test_unwritable_out_exits_4(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "2", "--target", "X", "--out", str(out_path),
        )
        assert code == 4
        assert out == ""
        assert err.startswith(f"parameter error: --out {out_path}")
        assert not out_path.exists()

    def test_failed_replace_keeps_old_file(self, capsys, fixtures_dir, tmp_path, monkeypatch):
        out_path = tmp_path / "x.json"
        out_path.write_bytes(b"old content\n")

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        code, out, err = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "2", "--target", "X", "--out", str(out_path),
        )
        assert code == 4
        assert out == ""
        assert err == f"parameter error: --out {out_path}: No space left on device\n"
        assert out_path.read_bytes() == b"old content\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_out_replaces_old_file(self, capsys, fixtures_dir, tmp_path):
        real = tmp_path / "x.json"
        real.write_bytes(b"old content that is longer than nothing\n")
        real.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(real.name)
        argv = ("approx", str(fixtures_dir / "price.json"), "--op", "grade", "--k", "2",
                "--target", "X")
        code, out, _ = run_cli(capsys, *argv, "--out", str(link))
        assert (code, out) == (0, "")
        _, expected, _ = run_cli(capsys, *argv)
        assert real.read_text(encoding="utf-8") == expected
        assert real.stat().st_mode & 0o777 == 0o640
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "x.json"]

    @pytest.mark.parametrize("argv", [
        ("neigh", "price.json"),
        ("approx", "price.json", "--op", "grade", "--k", "2", "--target", "X"),
        ("regions", "price.json", "--op", "grade", "--k", "2", "--target", "X"),
        ("mg", "two_cov.json", "--op", "mg-grade1", "--k", "2", "--target", "X"),
        ("sweep", "price.json", "--op", "grade", "--k", "2", "--target", "X"),
        ("gen", "--n", "4", "--gamma", "0.9"),
    ])
    def test_empty_out_exits_4(self, capsys, fixtures_dir, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        cmd, *rest = argv
        if cmd != "gen":
            rest[0] = str(fixtures_dir / rest[0])
        code, out, err = run_cli(capsys, cmd, *rest, "--out", "")
        assert code == 4
        assert out == ""
        assert err == "parameter error: argument --out: expected a file path, got an empty string\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_to_a_device_writes_in_place(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "approx", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "2", "--target", "X", "--out", os.devnull,
        )
        assert (code, out) == (0, "")
        assert not os.path.isfile(os.devnull)

    def test_stale_temp_file_does_not_block_out(self, capsys, fixtures_dir, tmp_path):
        # a run killed mid-write leaves its temporary file; a later run may get the same pid
        stale = tmp_path / f"res.json.{os.getpid()}.tmp"
        stale.write_bytes(b"left by a killed run\n")
        out_path = tmp_path / "res.json"
        argv = ("approx", str(fixtures_dir / "price.json"), "--op", "grade", "--k", "2",
                "--target", "X")
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (0, "")
        _, expected, _ = run_cli(capsys, *argv)
        assert out_path.read_text(encoding="utf-8") == expected
        assert stale.read_bytes() == b"left by a killed run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res.json", stale.name]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_new_out_file_gets_the_mode_the_umask_allows(
        self, capsys, fixtures_dir, tmp_path, umask, mode
    ):
        out_path = tmp_path / "new.json"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(
                capsys, "approx", str(fixtures_dir / "price.json"),
                "--op", "grade", "--k", "2", "--target", "X", "--out", str(out_path),
            )
        finally:
            os.umask(old)
        assert code == 0
        assert out_path.stat().st_mode & 0o7777 == mode


ODD_NAMES = ("a,b", 'say "hi"', "two\nlines", "cr\rname", "x5", "x6", "x7", "x8")


@pytest.fixture
def odd_names_file(tmp_path, price_file):
    """The price fixture with object names that need CSV quoting."""
    doc = json.loads(sysio.dumps(price_file))
    doc["universe"] = list(ODD_NAMES)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


class TestCliCsvQuoting:
    def test_result_csv(self, capsys, odd_names_file):
        code, out, _ = run_cli(
            capsys, "regions", odd_names_file,
            "--op", "grade", "--k", "2", "--target", "X", "--format", "csv",
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == [
            "object", "in_lower", "in_upper", "regions",
            "overlap", "sigma", "p", "residual_mass", "complement_mass",
        ]
        assert [r[0] for r in rows[1:]] == list(ODD_NAMES)
        assert all(len(r) == len(rows[0]) for r in rows)
        # same verdicts and sigma-counts as the fixture with plain names
        assert [r[3] for r in rows[1:5]] == ["BOU|UBO", "POS", "POS", "BOU|UBO"]
        assert [r[5] for r in rows[1:5]] == ["5.2", "5", "3.3", "5.2"]

    def test_neigh_csv(self, capsys, odd_names_file):
        code, out, _ = run_cli(capsys, "neigh", odd_names_file, "--format", "csv")
        assert code == 0
        rows = _csv_rows(out)
        assert rows[0] == ["covering", "object", *ODD_NAMES, "sigma"]
        assert [r[1] for r in rows[1:]] == list(ODD_NAMES)
        assert all(len(r) == len(rows[0]) for r in rows)
        assert rows[3][2:] == ["0", "0.5", "0.9", "0", "0.5", "0.9", "0", "0.5", "3.3"]

    def test_sweep_csv(self, capsys, odd_names_file):
        code, out, _ = run_cli(
            capsys, "sweep", odd_names_file, "--op", "grade", "--k", "2", "--target", "X",
        )
        assert code == 0
        rows = _csv_rows(out)
        assert rows == [
            ["k", "lower", "upper", "n_lower", "n_upper"],
            ["2", ";".join(ODD_NAMES[1:3] + ("x6", "x8")), ";".join(ODD_NAMES), "4", "8"],
        ]

    def test_plain_names_are_not_quoted(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "neigh", str(fixtures_dir / "price.json"), "--format", "csv")
        assert code == 0
        assert '"' not in out
        assert out.splitlines()[0] == "covering,object,x1,x2,x3,x4,x5,x6,x7,x8,sigma"


class TestCliNeigh:
    def test_json_dump(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "neigh", str(fixtures_dir / "price.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["price"]["sigma"]["x1"] == "5.2"
        assert doc["price"]["rows"]["x3"] == ["0", "0.5", "0.9", "0", "0.5", "0.9", "0", "0.5"]

    def test_covering_selector(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "neigh", str(fixtures_dir / "two_cov.json"), "--covering", "quality"
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["quality"]

    @pytest.mark.parametrize("name", ["", "nope"])
    def test_unknown_covering_exits_4(self, capsys, fixtures_dir, name):
        code, out, err = run_cli(
            capsys, "neigh", str(fixtures_dir / "two_cov.json"), "--covering", name
        )
        assert code == 4
        assert out == ""
        assert err.startswith("parameter error: no covering named")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_shared_by_objects_of_one_signature(self, capsys, tmp_path, fmt):
        sf = generate_system(40, 1, 3, parse_scaled("0.9"), 0)
        table = build_table(sf.system.space())
        assert len(table.distinct) < sf.universe.size
        path = tmp_path / "gen.json"
        sysio.dump(sf, str(path))
        code, out, _ = run_cli(capsys, "neigh", str(path), "--format", fmt)
        assert code == 0
        name = sf.system.coverings[0].name
        if fmt == "json":
            rows = json.loads(out)[name]["rows"]
        else:
            rows = {r[1]: r[2:-1] for r in _csv_rows(out)[1:]}
        assert sorted(rows) == sorted(sf.universe.objects)
        for obj, row in rows.items():
            assert tuple(row) == table.rows[sf.universe.index(obj)].degree_strings()


class TestPackedRows:
    @pytest.mark.parametrize("argv", [
        ("approx", "--op", "dq1", "--alpha", "0.75", "--beta", "0.25", "--k", "1",
         "--covering", "price"),
        ("regions", "--op", "grade", "--k", "1", "--covering", "price"),
        ("mg", "--op", "mg-dq1", "--alpha", "0.75", "--beta", "0.25", "--k", "1"),
        ("sweep", "--op", "grade", "--k", "0:2:0.5", "--covering", "quality"),
    ], ids=["approx", "regions", "mg", "sweep"])
    def test_results_never_unpack_the_rows(self, capsys, monkeypatch, fixtures_dir, argv):
        # tables keep only packed rows; an integer-vector copy of every row
        # is built on demand (neigh), never by a command that evaluates
        tables = []

        def recording(space):
            tables.append(build_table(space))
            return tables[-1]

        monkeypatch.setattr(cli, "build_table", recording)
        monkeypatch.setattr(multi, "build_table", recording)
        path = str(fixtures_dir / "two_cov.json")
        code, _, _ = run_cli(capsys, argv[0], path, *argv[1:], "--target", "X")
        assert code == 0
        assert tables
        for table in tables:
            assert "distinct" not in vars(table)
            assert "rows" not in vars(table)



class TestRowPasses:
    # one (table, target vector) walks the table's rows once per command: the
    # overlap pass of X, and the pass of 1 - X when a complement mass is read
    # (diagnostics always print it; complement mode tests it)
    @pytest.mark.parametrize("argv,passes", [
        (("regions", "--op", "grade", "--k", "1", "--covering", "price"), 2),
        (("regions", "--op", "grade", "--k", "1", "--covering", "price",
          "--residual-mode", "complement"), 2),
        (("approx", "--op", "grade", "--k", "1", "--covering", "price"), 2),
        (("approx", "--op", "prob", "--alpha", "0.75", "--beta", "0.25",
          "--covering", "price"), 2),
        (("mg", "--op", "mg-dq1", "--alpha", "0.75", "--beta", "0.25", "--k", "1"), 2),
        (("mg", "--op", "mg-dq1", "--alpha", "0.75", "--beta", "0.25", "--k", "1",
          "--residual-mode", "complement"), 4),
        (("sweep", "--op", "grade", "--k", "0:5:0.5", "--covering", "price",
          "--residual-mode", "complement"), 2),
        (("sweep", "--op", "prob", "--alpha", "0:1:0.2", "--beta", "0:1:0.2",
          "--covering", "price"), 1),
    ], ids=["regions", "regions-complement", "approx-grade", "approx-prob", "mg-dq1",
            "mg-dq1-complement", "sweep-grade-complement", "sweep-prob"])
    def test_one_row_pass_per_table_and_target(
        self, capsys, monkeypatch, fixtures_dir, argv, passes
    ):
        calls = []
        meet_sums = lanes.meet_sums
        monkeypatch.setattr(
            lanes, "meet_sums", lambda *a: calls.append(1) or meet_sums(*a)
        )
        path = str(fixtures_dir / "two_cov.json")
        code, out, _ = run_cli(capsys, argv[0], path, *argv[1:], "--target", "X")
        assert code == 0
        if argv[0] == "sweep":  # header plus one line per point: 11 k values, 21 (alpha, beta)
            assert len(out.splitlines()) == 1 + (11 if "grade" in argv else 21)
        assert len(calls) == passes

    @pytest.mark.parametrize("argv", [
        ("regions", "--op", "grade", "--k", "1", "--residual-mode", "complement"),
        ("approx", "--op", "grade", "--k", "1"),
        ("sweep", "--op", "grade", "--k", "0:5:0.5", "--residual-mode", "complement"),
    ], ids=["regions-complement", "approx-grade", "sweep-grade-complement"])
    def test_complement_mass_builds_no_fuzzy_set(self, capsys, monkeypatch, fixtures_dir, argv):
        # 1 - X is a plain vector keyed into the table's sums store; the only
        # FuzzySets a command builds are the ones loading the file builds
        path = str(fixtures_dir / "two_cov.json")
        built, validate = [], FuzzySet.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(FuzzySet, "__post_init__", counting)
        sysio.load(path)
        assert len(built) == 7
        built.clear()
        code, _, _ = run_cli(capsys, argv[0], path, *argv[1:], "--covering", "price",
                             "--target", "X")
        assert code == 0
        assert len(built) == 7


class TestCliGen:
    def test_deterministic(self, capsys, fixtures_dir):
        args = ["gen", "--n", "8", "--m", "1", "--members", "3", "--gamma", "0.9", "--seed", "42"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_output_validates(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        code, _, _ = run_cli(
            capsys, "gen", "--n", "10", "--m", "2", "--members", "4",
            "--gamma", "0.75", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "validate", str(out_path))
        assert code == 0
        assert "ok" in out

    def test_bad_sizes_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--n", "0", "--gamma", "0.9")
        assert code == 4

    def test_zero_gamma_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--n", "3", "--gamma", "0")
        assert code == 4
        assert out == ""
        assert err == "parameter error: --gamma must be positive\n"


class TestCliSweep:
    def test_grade_sweep_monotone_lower(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "sweep", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "0:6:0.5", "--target", "X",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,lower,upper,n_lower,n_upper"
        assert len(lines) == 14  # 0, 0.5, ..., 6
        previous = set()
        for line in lines[1:]:
            cells = line.split(",")
            lower = set(cells[1].split(";")) - {""}
            assert previous <= lower
            previous = lower

    def test_prob_sweep_skips_invalid_pairs(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "sweep", str(fixtures_dir / "price.json"),
            "--op", "prob", "--alpha", "0:1:0.25", "--beta", "0:1:0.25",
            "--target", "X",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            a, b = line.split(",")[:2]
            assert parse_scaled(a) >= parse_scaled(b)

    @pytest.mark.parametrize("mode", ["residual", "complement"])
    @pytest.mark.parametrize("op", ["prob", "grade", "dq1", "dq2", "dq-all", "dq-any"])
    def test_one_point_equals_approx(self, capsys, fixtures_dir, op, mode):
        params = ["--alpha", "0.75", "--beta", "0.6", "--k", "2.6", "--target", "X",
                  "--residual-mode", mode]
        path = str(fixtures_dir / "price.json")
        code, out, _ = run_cli(capsys, "approx", path, "--op", op, *params)
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run_cli(capsys, "sweep", path, "--op", op, *params)
        assert code == 0
        header, row = _csv_rows(out)
        cells = dict(zip(header, row))
        assert cells["lower"] == ";".join(doc["lower"])
        assert cells["upper"] == ";".join(doc["upper"])

    def test_unused_grid_adds_no_rows(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "sweep", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "2", "--alpha", "0:1:0.5", "--target", "X",
        )
        assert code == 0
        assert out.splitlines() == [
            "k,lower,upper,n_lower,n_upper",
            "2,x2;x3;x6;x8,x1;x2;x3;x4;x5;x6;x7;x8,4,8",
        ]

    def test_names_with_separator_are_escaped(self, capsys, tmp_path):
        names = ["a;b", "a", "b", "a\\"]
        doc = {
            "universe": names,
            "coverings": [{"name": "g", "gamma": "1", "members": [
                {"name": "left", "degrees": ["1", "1", "0", "0"]},
                {"name": "right", "degrees": ["0", "0", "1", "1"]},
            ]}],
            "targets": {"X": ["1", "1", "0", "1"]},
        }
        path = tmp_path / "semicolons.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "sweep", str(path), "--op", "grade", "--k", "0:2:1", "--target", "X",
        )
        assert code == 0
        header, *rows = _csv_rows(out)
        assert rows == [
            ["0", "a\\;b;a", "a\\;b;a;b;a\\\\", "2", "4"],
            ["1", "a\\;b;a;b;a\\\\", "a\\;b;a", "4", "2"],
            ["2", "a\\;b;a;b;a\\\\", "", "4", "0"],
        ]
        # at every point, splitting at each unescaped `;` and unescaping gives
        # back the names `approx` lists
        for row in rows:
            cells = dict(zip(header, row))
            code, out, _ = run_cli(
                capsys, "approx", str(path), "--op", "grade", "--k", cells["k"], "--target", "X",
            )
            assert code == 0
            doc = json.loads(out)
            assert _split_names(cells["lower"]) == doc["lower"]
            assert _split_names(cells["upper"]) == doc["upper"]

    @pytest.mark.parametrize("grid,message", [
        ("0:1:0", "--k: grid step must be positive"),
        ("2:1:0.5", "--k: grid stop is below start"),
    ])
    def test_empty_grid_exits_4(self, capsys, fixtures_dir, grid, message):
        code, out, err = run_cli(
            capsys, "sweep", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", grid, "--target", "X",
        )
        assert code == 4
        assert out == ""
        assert err == f"parameter error: {message}\n"

    def test_negative_grid_start_needs_the_equals_form(self, capsys, fixtures_dir):
        # argparse reads `-1:0:0.5` after a space as a flag; a scalar `-0.5` is a number
        path = str(fixtures_dir / "price.json")
        code, out, err = run_cli(
            capsys, "sweep", path, "--op", "grade", "--k", "-1:0:0.5", "--target", "X",
        )
        assert (code, out) == (4, "")
        assert err == "parameter error: argument --k: expected one argument\n"
        code, out, _ = run_cli(
            capsys, "sweep", path, "--op", "grade", "--k=-1:0:0.5", "--target", "X",
        )
        assert code == 0
        assert [row[0] for row in _csv_rows(out)[1:]] == ["-1", "-0.5", "0"]
        code, out, _ = run_cli(
            capsys, "sweep", path, "--op", "grade", "--k", "-0.5", "--target", "X",
        )
        assert code == 0
        assert [row[0] for row in _csv_rows(out)[1:]] == ["-0.5"]

    def test_malformed_grid_exits_4(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys,
            "sweep", str(fixtures_dir / "price.json"),
            "--op", "grade", "--k", "0:6", "--target", "X",
        )
        assert code == 4
        assert "grid" in err


def _split_names(cell: str) -> list[str]:
    return [
        re.sub(r"\\(.)", r"\1", part)
        for part in re.findall(r"(?:[^;\\]|\\.)+", cell)
    ]


class TestCliCheck:
    def test_fixture_file(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "check", str(fixtures_dir / "two_cov.json"))
        assert code == 0
        assert "differential check ok" in out

    def test_failure_prints_the_same_bytes_under_any_hash_seed(self, fixtures_dir):
        # prob_approx drops its first lower object, so some prob rounds mismatch
        script = (
            "import dataclasses, sys\n"
            "from fuzzycover import cli, single\n"
            "right = single.prob_approx\n"
            "def wrong(*args):\n"
            "    result = right(*args)\n"
            "    return dataclasses.replace(result, lower=result.lower[1:])\n"
            "single.prob_approx = wrong\n"
            f"sys.exit(cli.main(['check', {str(fixtures_dir / 'price.json')!r}]))\n"
        )
        outs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
            )}
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == cli.EXIT_CHECK
            assert b"differential check FAILED\n" in proc.stdout
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_neither_path_nor_random_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "check")
        assert code == 4
        assert out == ""
        assert err == "parameter error: one of the arguments path --random is required\n"

    def test_random(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--random", "--seed", "3", "--count", "200")
        assert code == 0
        assert "mismatches: 0" in out

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_random_count_below_one_exits_4(self, capsys, count):
        code, out, err = run_cli(capsys, "check", "--random", "--count", count)
        assert code == 4
        assert out == ""
        assert err == f"parameter error: argument --count: expected an integer >= 1, got '{count}'\n"

    def test_random_count_defaults(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "RANDOM_COUNT", 12)
        code, out, _ = run_cli(capsys, "check", "--random")
        assert code == 0
        assert "instances: 12" in out

    def test_random_with_path_exits_4(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys, "check", "--random", "--count", "3", str(fixtures_dir / "nonexistent.json"),
        )
        assert code == 4
        assert out == ""
        assert err == "parameter error: argument path: not allowed with argument --random\n"

    def test_count_with_file_exits_4(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys, "check", str(fixtures_dir / "two_cov.json"), "--count", "5",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("parameter error: --count applies to --random only")


def _main_outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one `cli.main` call, --help's SystemExit included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = ["validate", "neigh", "approx", "regions", "mg", "check", "gen", "sweep"]


class TestCliParser:
    """`main` builds only the subcommand its first argument names."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["nope"],
        *([name, "--help"] for name in SUBCOMMANDS),
        ["approx"], ["mg", "x", "--op", "bad"],
    ], ids=" ".join)
    def test_same_bytes_as_the_whole_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        one = _main_outcome(capsys, argv)
        whole = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: whole())
        assert one == _main_outcome(capsys, argv)

    @pytest.mark.parametrize("argv,built", [
        *(([name, "--help"], 1) for name in SUBCOMMANDS),
        (["--help"], len(SUBCOMMANDS)),
        # a well-formed command line is read without argparse
        (["validate", "crisp.json"], 0),
        (["neigh", "price.json", "--format", "csv"], 0),
        (["approx", "price.json", "--op", "dq1", "--alpha", "0.75", "--beta", "0.25",
          "--k", "2", "--target", "X"], 0),
        (["mg", "two_cov.json", "--op", "mg-prob1", "--alphas", "0.75,0.7", "--beta", "0.25",
          "--target", "X"], 0),
        (["check", "--random", "--count", "2"], 0),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_subparsers_built_per_command(self, capsys, monkeypatch, fixtures_dir, argv, built):
        monkeypatch.chdir(fixtures_dir)
        calls = []
        add_parser = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(
            argparse._SubParsersAction, "add_parser",
            lambda self, name, **kw: calls.append(name) or add_parser(self, name, **kw),
        )
        _main_outcome(capsys, argv)
        assert len(calls) == built

    def test_whole_tree_without_a_command(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == SUBCOMMANDS


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["check", "two_cov.json"],
    ["gen", "--n", "50", "--gamma", "0.9"],
    ["--help"],
    ["approx", "--help"],
])
def test_closed_stdout_exits_quietly(fixtures_dir, argv, buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "fuzzycover", *argv], cwd=fixtures_dir, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the command writes
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["validate", "price.json"],
    ["approx", "price.json", "--op", "prob", "--alpha", "0.75", "--beta", "0.25", "--target", "X"],
    ["check", "price.json"],
    ["--help"],
    ["approx", "--help"],
], ids=" ".join)
def test_full_stdout_is_a_parameter_error(fixtures_dir, argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "fuzzycover", *argv], cwd=fixtures_dir,
                              env=env, stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == cli.EXIT_PARAMETER
    assert proc.stderr == f"parameter error: standard output: {os.strerror(errno.ENOSPC)}\n".encode()


def test_every_op_id_names_one_family():
    families = {
        *cli.SINGLE_OPS.values(),
        *(f"{op}-regions" for op in cli.REGION_OPS.values()),
        *(family for family, _ in cli.MG_OPS.values()),
    }
    assert families == set(operators.FUNCTIONS)


class TestDeterminism:
    def test_repeated_results_identical(self, capsys, fixtures_dir):
        args = [
            "approx", str(fixtures_dir / "price.json"),
            "--op", "dq1", "--alpha", "0.75", "--beta", "0.25", "--k", "2",
            "--target", "X",
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
