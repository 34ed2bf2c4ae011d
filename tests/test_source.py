"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latticecount"


def test_src_has_no_assert():
    """python -O strips assert statements, so no invariant of the package
    may rest on one: src/ raises an exception instead."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/: {found}"


def test_src_imports_only_the_standard_library():
    """The package has no runtime dependencies: every absolute import in
    src/ names a module of the standard library."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"imports outside the standard library in src/: {found}"


KERNEL_FUNCTIONS = ("floor_sum", "_floor_sums2", "full_strips", "quadrant_count",
                    "quadrant_blocks", "BlockTrace", "_check_generators",
                    "_popoviciu_residues", "denumerant")


def _package_imports(name):
    """file:line of every relative or latticecount import in src/<name>."""
    tree = ast.parse((SRC / name).read_text(), filename=name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "latticecount":
                found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Import):
            found += [f"{name}:{node.lineno}" for alias in node.names
                      if alias.name.split(".")[0] == "latticecount"]
    return found


def test_kernel_imports_nothing_from_the_package():
    """kernel.py is the bottom layer: no relative import and no latticecount
    import, and each kernel function is defined at module level in
    kernel.py alone (TwoGenSemigroup.denumerant is a method)."""
    found = _package_imports("kernel.py")
    assert not found, f"package imports in kernel.py: {found}"
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in KERNEL_FUNCTIONS):
                defined.setdefault(node.name, []).append(path.name)
    assert defined == {name: ["kernel.py"] for name in KERNEL_FUNCTIONS}, defined


def test_oracle_imports_nothing_from_the_package():
    """The brute-force oracle is the correctness anchor of the closed forms,
    so it borrows none of their code: no relative import and no
    latticecount import in oracle.py (its scaling to integers is its own,
    not triangles._integer_points)."""
    found = _package_imports("oracle.py")
    assert not found, f"package imports in oracle.py: {found}"


def _fresh(code):
    """The standard output of code run in a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every CLI call pays for the package's imports.  In a fresh
    interpreter, import latticecount.cli loads neither dataclasses nor
    inspect, which would add about 15 ms to it (inspect brings ast, dis
    and tokenize).  Nor does it load what only some requests run: the
    oracle, which the first --check imports, json, which the first
    --json imports, and fractions, which only pick and --check build.
    Modules the interpreter loads before the import do not count."""
    code = ("import sys; before = set(sys.modules); import latticecount.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json', 'latticecount.oracle', 'fractions'}"
            " & (set(sys.modules) - before)))")
    assert _fresh(code) == "[]\n"


def test_requests_but_pick_and_check_load_no_fractions(tmp_path):
    """Shapes hold integer points and the CLI parses rationals to integer
    pairs, so in a fresh interpreter one request of every subcommand but
    pick, each without --check, loads neither fractions nor the decimal
    and numbers modules it imports."""
    path = tmp_path / "shape.txt"
    path.write_text("0 0\n7/2 0\n7/2 1.5\n0 5/2\n")
    requests = [
        ["thr", "3", "7", "46", "--trace"],
        ["rect", "--", "-0.5", "-6/5", "3.25", "1"],
        ["rtri", "0", "0", "0", "46/7", "46/3", "0", "--exclude", "hyp", "--trace", "--json"],
        ["tri", "0", "0", "4", "1", "1", "3", "--trace"],
        ["poly", str(path), "--trace"],
        ["tetra", "6", "10", "15", "21", "--trace", "--json"],
        ["denumerant", "3", "7", "46"],
        ["denumerant3", "3", "5", "7", "10"],
        ["semigroup", "3", "7", "--gaps"],
    ]
    code = ("import io, sys; import latticecount.cli as cli; "
            f"print([cli.run(argv, io.StringIO(), io.StringIO()) for argv in {requests!r}]); "
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    assert _fresh(code) == f"{[0] * len(requests)}\n[]\n"


def test_oracle_loads_on_first_use():
    """latticecount.oracle is imported when it is first read, by attribute,
    by from-import or by a star import, and is one module each way."""
    code = ("import sys, latticecount; print('latticecount.oracle' in sys.modules); "
            "print(latticecount.oracle.brute_denumerant2(3, 7, 46)); "
            "from latticecount import oracle; from latticecount import *; "
            "print(oracle is latticecount.oracle is sys.modules['latticecount.oracle']); "
            "print(hasattr(latticecount, 'no_such_name'))")
    assert _fresh(code) == "False\n2\nTrue\nFalse\n"


def test_one_python_floor():
    """pyproject's requires-python names the oldest interpreter of the CI
    matrix, and the README's install section states the same floor."""
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    floor = re.fullmatch(r">=(3\.\d+)", pyproject["project"]["requires-python"])[1]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.findall(r'"(3\.\d+)"', re.search(r"python-version: \[(.*)\]", workflow)[1])
    assert min(matrix, key=lambda v: int(v.split(".")[1])) == floor, matrix
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"\((3\.\d+) or\s+later\)", readme) == [floor]


def test_src_has_no_version_branch():
    """The package runs one code path on every supported interpreter: no
    module in src/ tests sys.version_info or hasattr(sys, ...)."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if "version_info" in (getattr(node, "attr", None), getattr(node, "id", None)):
                found.append(f"{path.name}:{node.lineno}: version_info")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "hasattr" and node.args
                  and isinstance(node.args[0], ast.Name) and node.args[0].id == "sys"):
                found.append(f"{path.name}:{node.lineno}: hasattr(sys, ...)")
    assert not found, f"interpreter version branches in src/: {found}"
