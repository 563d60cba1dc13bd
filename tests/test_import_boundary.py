"""Import boundaries of the package, read from the source with `ast`.

The package depends on the standard library only, and the brute-force
oracle stays independent of the code it checks: of the package's own
modules it may import only the shared data types.
"""

import ast
import os
import pathlib
import subprocess
import sys

import fuzzycover

PACKAGE_DIR = pathlib.Path(fuzzycover.__file__).parent
ORACLE_ALLOWED = {"exact", "model"}


def _imports(path: pathlib.Path) -> tuple[set[str], set[str]]:
    """(top-level absolute modules, package modules) imported by one file."""
    absolute, own = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                absolute.add(node.module.split(".")[0])
            elif node.module:
                own.add(node.module.split(".")[0])
            else:  # from . import a, b
                own.update(alias.name for alias in node.names)
    return absolute, own


def _sources():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    return paths


def test_package_imports_only_stdlib_and_itself():
    modules = {p.stem for p in _sources()}
    for path in _sources():
        absolute, own = _imports(path)
        outside = {m for m in absolute if m not in sys.stdlib_module_names and m != "fuzzycover"}
        assert not outside, f"{path.name} imports {sorted(outside)}"
        assert own <= modules, f"{path.name} imports unknown modules {sorted(own - modules)}"


def test_oracle_imports_only_data_types():
    _, own = _imports(PACKAGE_DIR / "oracle.py")
    assert own <= ORACLE_ALLOWED, f"oracle.py imports {sorted(own - ORACLE_ALLOWED)}"


def test_cli_import_leaves_out_check_and_gen_modules():
    # every command start compiles what `import fuzzycover.cli` pulls in
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    )}
    script = (
        "import sys, fuzzycover.cli\n"
        "print(*(m for m in ('checks', 'oracle', 'generate') if 'fuzzycover.' + m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_well_formed_commands_import_nothing_more():
    # argparse is built only for help and errors; building it imports `locale` (gettext)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    )}
    script = (
        "import sys, fuzzycover.cli\n"
        "before = set(sys.modules)\n"
        "codes = [fuzzycover.cli.main(['validate', 'crisp.json']), fuzzycover.cli.main(\n"
        "    ['approx', 'price.json', '--op', 'dq1', '--alpha', '0.75', '--beta', '0.25',\n"
        "     '--k', '2', '--target', 'X'])]\n"
        "print(codes, sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, cwd=PACKAGE_DIR.parents[1] / "fixtures")
    assert proc.stderr == "[0, 0] []\n"
