"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

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


def test_oracle_holds_only_what_check_runs():
    """Every public function of oracle.py is named in cli.py, the one
    caller of the oracle: the test-only references live in
    tests/references.py."""
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public, "no public functions in oracle.py"
    cli = (SRC / "cli.py").read_text()
    unused = [name for name in public if not re.search(rf"\b{name}\b", cli)]
    assert not unused, f"oracle functions no CLI request runs: {unused}"


def _fresh(code):
    """The standard output of code run in a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


# the package modules that import latticecount.cli leaves unloaded, but for the oracle
LIBRARY = ("kernel", "triangles", "polygons", "semigroup", "tetra")


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every CLI call pays for the package's imports.  In a fresh
    interpreter, import latticecount.cli loads neither dataclasses nor
    inspect, which would add about 15 ms to it (inspect brings ast, dis
    and tokenize).  Nor does it load what only some requests run: the
    library modules, which each query imports when it runs, the oracle,
    which the first --check imports, json, which the first --json
    imports, and fractions, which only pick and --check build.  Modules
    the interpreter loads before the import do not count."""
    unwanted = {"dataclasses", "inspect", "json", "latticecount.oracle", "fractions",
                *("latticecount." + name for name in LIBRARY)}
    code = ("import sys; before = set(sys.modules); import latticecount.cli; "
            f"print(sorted({unwanted!r} & (set(sys.modules) - before)))")
    assert _fresh(code) == "[]\n"


@pytest.mark.parametrize("line, loaded", [
    ("thr 3 7 46", "kernel"),
    ("rect -- -0.5 -6/5 3.25 1", "kernel triangles"),
    ("rtri 0 0 0 46/7 46/3 0 --exclude hyp --trace", "kernel triangles"),
    ("tri 0 0 4 1 1 3", "kernel polygons triangles"),
    ("poly SHAPE --trace", "kernel polygons triangles"),
    ("pick SHAPE", "kernel polygons triangles"),
    ("tetra 6 10 15 21 --trace", "kernel tetra"),
    ("denumerant3 3 5 7 10", "kernel tetra"),
    ("denumerant 3 7 46", "kernel semigroup"),
    ("semigroup 3 7 --gaps", "kernel semigroup"),
    ("-h", ""),
    ("tri 1", ""),
])
def test_a_request_loads_only_its_own_modules(tmp_path, line, loaded):
    """In a fresh interpreter, one request of a subcommand loads, beside
    cli and rationals, only the library modules its count runs; the help
    and a usage error load none of them."""
    path = tmp_path / "shape.txt"
    path.write_text("0 0\n4 0\n4 3\n0 3\n")
    argv = line.replace("SHAPE", str(path)).split()
    code = ("import io, sys; import latticecount.cli as cli; "
            f"print(cli.run({argv!r}, io.StringIO(), io.StringIO())); "
            "print(sorted(m.split('.')[1] for m in sys.modules if m.startswith('latticecount.')))")
    exit_code = 1 if line == "tri 1" else 0
    assert _fresh(code) == f"{exit_code}\n{sorted(['cli', 'rationals', *loaded.split()])}\n"


def test_package_names_resolve_on_first_read():
    """import latticecount loads no submodule, and dir() lists __all__.  A
    submodule resolves after the bare import, every __all__ name is the
    object its defining module holds, read once and then kept as a package
    global, and a star import binds every __all__ name."""
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes[node.name] = path.stem
            elif isinstance(node, ast.Assign):
                homes.update((target.id, path.stem) for target in node.targets
                             if isinstance(target, ast.Name))
    code = ("import importlib, sys, latticecount as pkg; "
            "print(sorted(m for m in sys.modules if m.startswith('latticecount.'))); "
            "print(set(pkg.__all__) <= set(dir(pkg))); "
            "print(pkg.polygons is sys.modules['latticecount.polygons']); "
            f"homes = {homes!r}; "
            "names = [n for n in pkg.__all__ if n not in ('oracle', '__version__')]; "
            "print([n for n in names if getattr(pkg, n) is not "
            "getattr(importlib.import_module('latticecount.' + homes[n]), n)]); "
            "print([n for n in names if n not in vars(pkg)]); "
            "star = {}; exec('from latticecount import *', star); "
            "print(sorted(set(pkg.__all__) - set(star)))")
    assert _fresh(code) == "[]\nTrue\nTrue\n[]\n[]\n[]\n"


def test_requests_but_pick_and_check_load_no_fractions(tmp_path):
    """Shapes hold integer points and the CLI parses rationals to integer
    pairs, so in a fresh interpreter one request of every subcommand but
    pick, each without --check, loads neither fractions nor the decimal
    and numbers modules it imports.  The traces of a degenerate rtri, a
    point and a segment, and of a collinear tri name the reduction
    without building it."""
    path = tmp_path / "shape.txt"
    path.write_text("0 0\n7/2 0\n7/2 1.5\n0 5/2\n")
    requests = [
        ["thr", "3", "7", "46", "--trace"],
        ["rect", "--", "-0.5", "-6/5", "3.25", "1"],
        ["rtri", "0", "0", "0", "46/7", "46/3", "0", "--exclude", "hyp", "--trace", "--json"],
        ["rtri", "1/2", "1/3", "1/2", "1/3", "1/2", "1/3", "--exclude", "hyp", "--trace"],
        ["rtri", "1", "1", "1", "1", "4", "1", "--trace"],
        ["tri", "0", "0", "4", "1", "1", "3", "--trace"],
        ["tri", "1/2", "0", "5/2", "2", "3/2", "1", "--trace"],
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


def test_only_readers_import_fractions():
    """The CLI's parser and driver build no Fraction: neither rationals.py
    nor cli.py imports fractions, at module level or in a function.  A
    Fraction is built only where a value is read as one."""
    found = []
    for name in ("rationals.py", "cli.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno}" for module in modules
                      if module.split(".")[0] == "fractions"]
    assert not found, f"fractions imports: {found}"


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
