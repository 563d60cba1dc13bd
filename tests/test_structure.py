"""Where the rows are walked, read from the source with `ast`.

A table's rows are walked in one place, `single._meet_sums`, which keeps the
sums of each target vector in the table's store, one per distinct row; every
overlap, mass and P reads them from there.  The neighborhood module builds
its meets with `lanes.meet` directly and keeps no per-name row lookup.
Whether a member's degree reaches gamma is decided by one lane test, in
`FuzzyCovering.cuts`; validation and the neighborhoods read its cuts.
"""

import ast
import pathlib

import fuzzycover

PACKAGE_DIR = pathlib.Path(fuzzycover.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))


def _lanes_references(name: str) -> list[tuple[str, str | None]]:
    """(module, enclosing top-level definition) of each use of `lanes.<name>`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in _tree(path.stem).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == name
                        and isinstance(node.value, ast.Name) and node.value.id == "lanes"):
                    found.append((path.stem, owner))
                elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
                    found.append((path.stem, owner))
    return found


def _defined(body) -> set[str]:
    return {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_only_meet_sums_store_walks_the_rows():
    assert _lanes_references("meet_sums") == [("single", "_meet_sums")]


def test_meet_sums_store_is_not_spread_to_objects():
    [meet_sums] = [n for n in _tree("single").body
                   if isinstance(n, ast.FunctionDef) and n.name == "_meet_sums"]
    assert not any(isinstance(n, ast.Attribute) and n.attr == "index"
                   for n in ast.walk(meet_sums))


def test_neighborhood_keeps_no_meet_wrapper_or_row_lookup():
    tree = _tree("neighborhood")
    assert "_meet" not in _defined(tree.body)
    [table] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "NeighborhoodTable"]
    assert "row" not in _defined(table.body)
    assert {"rows", "distinct"} <= _defined(table.body)
    # per-object values are read through `index` where they are produced
    assert "sigma" not in _defined(table.body)


def _compares_gamma(tree) -> bool:
    """Whether some comparison in `tree` has a `gamma` or `.gamma` operand."""
    return any(
        isinstance(operand, ast.Name) and operand.id == "gamma"
        or isinstance(operand, ast.Attribute) and operand.attr == "gamma"
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
    )


def test_one_lane_test_decides_gamma():
    assert _lanes_references("at_least") == [("model", "FuzzyCovering")]
    [covering] = [n for n in _tree("model").body
                  if isinstance(n, ast.ClassDef) and n.name == "FuzzyCovering"]
    users = [f.name for f in covering.body if isinstance(f, ast.FunctionDef)
             and "at_least" in {getattr(n, "attr", None) for n in ast.walk(f)}]
    assert users == ["cuts"]
    [validate] = [n for n in _tree("model").body
                  if isinstance(n, ast.FunctionDef) and n.name == "validate_covering"]
    assert not _compares_gamma(validate)
    assert not _compares_gamma(_tree("neighborhood"))
    # the model still range-checks gamma itself, which the helper must see
    assert _compares_gamma(covering)


def test_per_object_signature_helpers_are_gone():
    assert not {"_signature", "_vectors"} & _defined(_tree("neighborhood").body)
    [fuzzy_set] = [n for n in _tree("model").body
                   if isinstance(n, ast.ClassDef) and n.name == "FuzzySet"]
    assert "is_empty" not in _defined(fuzzy_set.body)
