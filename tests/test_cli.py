import json
import os
import subprocess
import sys

import pytest

from latticecount import cli, oracle


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_thr_with_trace(capsys):
    code, out, _ = run_cli(capsys, "thr", "3", "7", "46", "--trace")
    assert code == 0
    assert "thr(3, 7, 46): 63" in out
    assert "blocks: 41, 20, 2" in out


def test_thr_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "thr", "3", "7", "46", "--trace", "--json")
    assert code == 0
    line = out.strip()
    obj = json.loads(line)
    assert obj["count"] == "63"
    assert obj["trace"]["blocks"] == ["41", "20", "2"]
    assert cli.dumps_canonical(obj) == line


def test_check_appends_oracle_fields(capsys):
    code, out, _ = run_cli(capsys, "tetra", "6", "10", "15", "21", "--check", "--json")
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["count"] == "9"
    assert obj["oracle"] == "9"
    assert obj["agreed"] is True


def test_check_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "brute_halfplane_quadrant", lambda *a, **k: 7)
    code, out, _ = run_cli(capsys, "thr", "3", "7", "46", "--check", "--json")
    assert code == 2
    obj = json.loads(out.strip())
    assert obj["count"] == "63"
    assert obj["oracle"] == "7"
    assert obj["agreed"] is False


def test_check_does_not_change_count(capsys):
    _, plain, _ = run_cli(capsys, "denumerant", "3", "7", "46", "--json")
    _, checked, _ = run_cli(capsys, "denumerant", "3", "7", "46", "--json", "--check")
    assert json.loads(plain)["count"] == json.loads(checked)["count"] == "2"


def test_malformed_rational_is_input_error(capsys):
    code, _, err = run_cli(capsys, "rect", "0", "0", "x/2", "1")
    assert code == 1
    assert "x/2" in err


def test_non_coprime_generators_rejected(capsys):
    code, _, err = run_cli(capsys, "thr", "2", "4", "10")
    assert code == 1
    assert "coprime" in err


def test_rect_accepts_all_rational_forms(capsys):
    code, out, _ = run_cli(capsys, "rect", "1/2", "-1.2", "3.5", "1", "--json")
    assert code == 0
    assert json.loads(out.strip())["count"] == "9"


def test_rtri_with_exclusions(capsys):
    base = ["rtri", "0", "0", "0", "46/7", "46/3", "0"]
    code, out, _ = run_cli(capsys, *base, "--json")
    assert code == 0 and json.loads(out.strip())["count"] == "63"
    code, out, _ = run_cli(capsys, *base, "--exclude", "hyp", "--json")
    assert code == 0 and json.loads(out.strip())["count"] == "61"
    code, out, _ = run_cli(capsys, *base, "--exclude", "hyp,legx,legy", "--json", "--check")
    obj = json.loads(out.strip())
    assert code == 0 and obj["count"] == "39" and obj["agreed"] is True
    code, _, err = run_cli(capsys, *base, "--exclude", "top")
    assert code == 1 and "top" in err


def test_rtri_trace_shows_reduction(capsys):
    code, out, _ = run_cli(capsys, "rtri", "0", "0", "0", "7/4", "7/2", "0",
                           "--trace", "--json")
    assert code == 0
    trace = json.loads(out.strip())["trace"]
    assert trace == {"reduction": "quadrant", "a": "1", "b": "2", "c": "3"}


def test_rtri_rejects_slanted_legs(capsys):
    code, _, err = run_cli(capsys, "rtri", "0", "0", "1", "2", "3", "4")
    assert code == 1
    assert "axes" in err


def test_tri_with_case_trace(capsys):
    code, out, _ = run_cli(capsys, "tri", "0", "0", "4", "1", "1", "3",
                           "--trace", "--check", "--json")
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["count"] == "8"
    assert obj["trace"] == {"case": "one_corner"}
    assert obj["agreed"] is True


def test_poly_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    text = "# square\n0 0\n3 0\n3 3\n0 3\n"
    path = tmp_path / "square.poly"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "poly", str(path), "--json", "--check", "--trace")
    obj = json.loads(out.strip())
    assert code == 0 and obj["count"] == "16" and obj["agreed"] is True
    assert obj["trace"]["triangles"] == 2

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "poly", "-", "--json")
    assert code == 0 and json.loads(out.strip())["count"] == "16"


def test_poly_missing_file(capsys):
    code, _, err = run_cli(capsys, "poly", "/no/such/file.poly")
    assert code == 1 and "file.poly" in err


def test_poly_non_simple_is_input_error(capsys, tmp_path):
    path = tmp_path / "bowtie.poly"
    path.write_text("0 0\n2 2\n2 0\n0 2\n")
    code, _, err = run_cli(capsys, "poly", str(path))
    assert code == 1
    assert "edges" in err and "intersect" in err


def test_tetra_trace(capsys):
    code, out, _ = run_cli(capsys, "tetra", "6", "10", "15", "21", "--trace", "--json")
    assert code == 0
    assert json.loads(out.strip())["trace"]["slices"] == ["7", "2"]


def test_denumerant3_check(capsys):
    code, out, _ = run_cli(capsys, "denumerant3", "3", "5", "7", "10", "--json", "--check")
    obj = json.loads(out.strip())
    assert code == 0 and obj["count"] == "2" and obj["agreed"] is True


def test_semigroup_queries(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "3", "7", "--json")
    obj = json.loads(out.strip())
    assert code == 0
    assert obj["trace"] == {"frobenius": "11", "genus": "6"}

    code, out, _ = run_cli(capsys, "semigroup", "3", "7", "--gaps", "--json", "--check")
    obj = json.loads(out.strip())
    assert obj["count"] == "6"
    assert obj["trace"]["gaps"] == ["1", "2", "4", "5", "8", "11"]
    assert obj["agreed"] is True

    code, out, _ = run_cli(capsys, "semigroup", "3", "7", "--apery", "3", "--json", "--check")
    obj = json.loads(out.strip())
    assert obj["trace"]["apery"] == ["0", "7", "14"]
    assert obj["agreed"] is True

    code, out, _ = run_cli(capsys, "semigroup", "3", "7", "--contains", "11", "--json", "--check")
    obj = json.loads(out.strip())
    assert obj["count"] == "0" and obj["agreed"] is True

    code, out, _ = run_cli(capsys, "semigroup", "3", "7", "--upto", "46", "--json", "--check")
    obj = json.loads(out.strip())
    assert obj["count"] == "41" and obj["agreed"] is True


def test_pick_audit_subcommand(capsys, tmp_path):
    path = tmp_path / "tri.poly"
    path.write_text("0 0\n4 1\n1 3\n")
    code, out, _ = run_cli(capsys, "pick", str(path), "--json", "--check")
    obj = json.loads(out.strip())
    assert code == 0
    assert obj["count"] == "8"
    assert obj["trace"] == {"area": "11/2", "interior": "5", "boundary": "3",
                            "holds": True}
    assert obj["agreed"] is True


def test_pick_rejects_rational_vertices(capsys, tmp_path):
    path = tmp_path / "bad.poly"
    path.write_text("0 0\n7/2 0\n0 7/2\n")
    code, _, err = run_cli(capsys, "pick", str(path))
    assert code == 1 and "integral" in err


def test_oracle_budget_flag(capsys):
    code, _, err = run_cli(capsys, "thr", "1", "2", "2000", "--check",
                           "--oracle-budget", "100")
    assert code == 1
    assert "budget" in err
    code, out, _ = run_cli(capsys, "thr", "1", "2", "2000", "--check",
                           "--oracle-budget", "10000000", "--json")
    assert code == 0 and json.loads(out.strip())["agreed"] is True


def test_unknown_subcommand_is_input_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate", "1")
    assert code == 1


# --- golden output ---------------------------------------------------------
# stdout of every subcommand in text and JSON mode, with --trace where the
# subcommand has a trace and with --check, recorded from the CLI before it
# was driven from one subcommand table.  {poly} and {pick} name the files
# POLY_TEXT and PICK_TEXT.

POLY_TEXT = "# an L with a rational corner\n0 0\n7/2 0\n7/2 1\n1 1\n1 5/2\n0 5/2\n"
PICK_TEXT = "0 0\n4 1\n1 3\n"

GOLDEN = [
    ('thr 3 7 46',
     'thr(3, 7, 46): 63\n'),
    ('thr 3 7 46 --json',
     '{"shape": "thr(3, 7, 46)", "count": "63"}\n'),
    ('thr 3 7 46 --check',
     'thr(3, 7, 46): 63\n  oracle: 63 (agreed)\n'),
    ('thr 3 7 46 --trace',
     'thr(3, 7, 46): 63\n  k: 2\n  blocks: 41, 20, 2\n  tail_terms: 2\n'),
    ('thr 3 7 46 --trace --json',
     '{"shape": "thr(3, 7, 46)", "count": "63", "trace": {"k": 2, "blocks": ["41", "20", "2"], "tail_terms": ["2"]}}\n'),
    ('thr 3 7 46 --trace --check --json',
     '{"shape": "thr(3, 7, 46)", "count": "63", "trace": {"k": 2, "blocks": ["41", "20", "2"], "tail_terms": ["2"]}, "oracle": "63", "agreed": true}\n'),
    ('rect 1/2 -1.2 3.5 1',
     'rect(1/2, -6/5, 7/2, 1): 9\n'),
    ('rect 1/2 -1.2 3.5 1 --json',
     '{"shape": "rect(1/2, -6/5, 7/2, 1)", "count": "9"}\n'),
    ('rect 1/2 -1.2 3.5 1 --check',
     'rect(1/2, -6/5, 7/2, 1): 9\n  oracle: 9 (agreed)\n'),
    ('rtri 0 0 0 46/7 46/3 0',
     'rtri(A=(0, 0), B=(0, 46/7), C=(46/3, 0)): 63\n'),
    ('rtri 0 0 0 46/7 46/3 0 --json',
     '{"shape": "rtri(A=(0, 0), B=(0, 46/7), C=(46/3, 0))", "count": "63"}\n'),
    ('rtri 0 0 0 46/7 46/3 0 --check',
     'rtri(A=(0, 0), B=(0, 46/7), C=(46/3, 0)): 63\n  oracle: 63 (agreed)\n'),
    ('rtri 0 0 0 46/7 46/3 0 --trace',
     'rtri(A=(0, 0), B=(0, 46/7), C=(46/3, 0)): 63\n  reduction: quadrant\n  a: 3\n  b: 7\n  c: 46\n'),
    ('rtri 0 0 0 46/7 46/3 0 --trace --json',
     '{"shape": "rtri(A=(0, 0), B=(0, 46/7), C=(46/3, 0))", "count": "63", "trace": {"reduction": "quadrant", "a": "3", "b": "7", "c": "46"}}\n'),
    ('rtri 0 0 0 46/7 46/3 0 --trace --check --json',
     '{"shape": "rtri(A=(0, 0), B=(0, 46/7), C=(46/3, 0))", "count": "63", "trace": {"reduction": "quadrant", "a": "3", "b": "7", "c": "46"}, "oracle": "63", "agreed": true}\n'),
    ('rtri 1/3 1/2 1/3 23/4 19/2 1/2 --exclude hyp,legy',
     'rtri(A=(1/3, 1/2), B=(1/3, 23/4), C=(19/2, 1/2)): 23\n'),
    ('rtri 1/3 1/2 1/3 23/4 19/2 1/2 --exclude hyp,legy --json',
     '{"shape": "rtri(A=(1/3, 1/2), B=(1/3, 23/4), C=(19/2, 1/2))", "count": "23"}\n'),
    ('rtri 1/3 1/2 1/3 23/4 19/2 1/2 --exclude hyp,legy --check',
     'rtri(A=(1/3, 1/2), B=(1/3, 23/4), C=(19/2, 1/2)): 23\n  oracle: 23 (agreed)\n'),
    ('rtri 1/3 1/2 1/3 23/4 19/2 1/2 --exclude hyp,legy --trace',
     'rtri(A=(1/3, 1/2), B=(1/3, 23/4), C=(19/2, 1/2)): 23\n  reduction: quadrant\n  a: 63\n  b: 110\n  c: 480\n  excluded: hypotenuse, leg_y\n'),
    ('rtri 1/3 1/2 1/3 23/4 19/2 1/2 --exclude hyp,legy --trace --json',
     '{"shape": "rtri(A=(1/3, 1/2), B=(1/3, 23/4), C=(19/2, 1/2))", "count": "23", "trace": {"reduction": "quadrant", "a": "63", "b": "110", "c": "480", "excluded": ["hypotenuse", "leg_y"]}}\n'),
    ('rtri 1/3 1/2 1/3 23/4 19/2 1/2 --exclude hyp,legy --trace --check --json',
     '{"shape": "rtri(A=(1/3, 1/2), B=(1/3, 23/4), C=(19/2, 1/2))", "count": "23", "trace": {"reduction": "quadrant", "a": "63", "b": "110", "c": "480", "excluded": ["hypotenuse", "leg_y"]}, "oracle": "23", "agreed": true}\n'),
    ('tri 0 0 4 1 1 3',
     'tri(0, 0, 4, 1, 1, 3): 8\n'),
    ('tri 0 0 4 1 1 3 --json',
     '{"shape": "tri(0, 0, 4, 1, 1, 3)", "count": "8"}\n'),
    ('tri 0 0 4 1 1 3 --check',
     'tri(0, 0, 4, 1, 1, 3): 8\n  oracle: 8 (agreed)\n'),
    ('tri 0 0 4 1 1 3 --trace',
     'tri(0, 0, 4, 1, 1, 3): 8\n  case: one_corner\n'),
    ('tri 0 0 4 1 1 3 --trace --json',
     '{"shape": "tri(0, 0, 4, 1, 1, 3)", "count": "8", "trace": {"case": "one_corner"}}\n'),
    ('tri 0 0 4 1 1 3 --trace --check --json',
     '{"shape": "tri(0, 0, 4, 1, 1, 3)", "count": "8", "trace": {"case": "one_corner"}, "oracle": "8", "agreed": true}\n'),
    ('poly {poly}',
     'poly(n=6): 10\n'),
    ('poly {poly} --json',
     '{"shape": "poly(n=6)", "count": "10"}\n'),
    ('poly {poly} --check',
     'poly(n=6): 10\n  oracle: 10 (agreed)\n'),
    ('poly {poly} --trace',
     'poly(n=6): 10\n  triangles: 4\n  triangle_counts: 4, 4, 4, 2\n'),
    ('poly {poly} --trace --json',
     '{"shape": "poly(n=6)", "count": "10", "trace": {"triangles": 4, "triangle_counts": ["4", "4", "4", "2"]}}\n'),
    ('poly {poly} --trace --check --json',
     '{"shape": "poly(n=6)", "count": "10", "trace": {"triangles": 4, "triangle_counts": ["4", "4", "4", "2"]}, "oracle": "10", "agreed": true}\n'),
    ('tetra 6 10 15 21',
     'tetra(6, 10, 15; 21): 9\n'),
    ('tetra 6 10 15 21 --json',
     '{"shape": "tetra(6, 10, 15; 21)", "count": "9"}\n'),
    ('tetra 6 10 15 21 --check',
     'tetra(6, 10, 15; 21): 9\n  oracle: 9 (agreed)\n'),
    ('tetra 6 10 15 21 --trace',
     'tetra(6, 10, 15; 21): 9\n  slices: 7, 2\n'),
    ('tetra 6 10 15 21 --trace --json',
     '{"shape": "tetra(6, 10, 15; 21)", "count": "9", "trace": {"slices": ["7", "2"]}}\n'),
    ('tetra 6 10 15 21 --trace --check --json',
     '{"shape": "tetra(6, 10, 15; 21)", "count": "9", "trace": {"slices": ["7", "2"]}, "oracle": "9", "agreed": true}\n'),
    ('denumerant 3 7 46',
     'denumerant(46; 3, 7): 2\n'),
    ('denumerant 3 7 46 --json',
     '{"shape": "denumerant(46; 3, 7)", "count": "2"}\n'),
    ('denumerant 3 7 46 --check',
     'denumerant(46; 3, 7): 2\n  oracle: 2 (agreed)\n'),
    ('denumerant3 3 5 7 10',
     'denumerant(10; 3, 5, 7): 2\n'),
    ('denumerant3 3 5 7 10 --json',
     '{"shape": "denumerant(10; 3, 5, 7)", "count": "2"}\n'),
    ('denumerant3 3 5 7 10 --check',
     'denumerant(10; 3, 5, 7): 2\n  oracle: 2 (agreed)\n'),
    ('semigroup 3 7',
     'semigroup(3, 7): 6\n  frobenius: 11\n  genus: 6\n'),
    ('semigroup 3 7 --json',
     '{"shape": "semigroup(3, 7)", "count": "6", "trace": {"frobenius": "11", "genus": "6"}}\n'),
    ('semigroup 3 7 --check',
     'semigroup(3, 7): 6\n  frobenius: 11\n  genus: 6\n  oracle: 6 (agreed)\n'),
    ('semigroup 3 7 --trace --json',
     '{"shape": "semigroup(3, 7)", "count": "6", "trace": {"frobenius": "11", "genus": "6"}}\n'),
    ('semigroup 3 7 --gaps',
     'semigroup(3, 7) gaps: 6\n  gaps: 1, 2, 4, 5, 8, 11\n'),
    ('semigroup 3 7 --gaps --json',
     '{"shape": "semigroup(3, 7) gaps", "count": "6", "trace": {"gaps": ["1", "2", "4", "5", "8", "11"]}}\n'),
    ('semigroup 3 7 --gaps --check',
     'semigroup(3, 7) gaps: 6\n  gaps: 1, 2, 4, 5, 8, 11\n  oracle: 6 (agreed)\n'),
    ('semigroup 3 7 --gaps --trace --json',
     '{"shape": "semigroup(3, 7) gaps", "count": "6", "trace": {"gaps": ["1", "2", "4", "5", "8", "11"]}}\n'),
    ('semigroup 3 7 --apery 3',
     'semigroup(3, 7) apery(3): 21\n  apery: 0, 7, 14\n'),
    ('semigroup 3 7 --apery 3 --json',
     '{"shape": "semigroup(3, 7) apery(3)", "count": "21", "trace": {"apery": ["0", "7", "14"]}}\n'),
    ('semigroup 3 7 --apery 3 --check',
     'semigroup(3, 7) apery(3): 21\n  apery: 0, 7, 14\n  oracle: 21 (agreed)\n'),
    ('semigroup 3 7 --contains 11',
     'semigroup(3, 7) contains(11): 0\n  contains: False\n'),
    ('semigroup 3 7 --contains 11 --json',
     '{"shape": "semigroup(3, 7) contains(11)", "count": "0", "trace": {"contains": false}}\n'),
    ('semigroup 3 7 --contains 11 --check',
     'semigroup(3, 7) contains(11): 0\n  contains: False\n  oracle: 0 (agreed)\n'),
    ('semigroup 3 7 --upto 46',
     'semigroup(3, 7) upto(46): 41\n'),
    ('semigroup 3 7 --upto 46 --json',
     '{"shape": "semigroup(3, 7) upto(46)", "count": "41"}\n'),
    ('semigroup 3 7 --upto 46 --check',
     'semigroup(3, 7) upto(46): 41\n  oracle: 41 (agreed)\n'),
    ('pick {pick}',
     'pick(n=3): 8\n  area: 11/2\n  interior: 5\n  boundary: 3\n  holds: True\n'),
    ('pick {pick} --json',
     '{"shape": "pick(n=3)", "count": "8", "trace": {"area": "11/2", "interior": "5", "boundary": "3", "holds": true}}\n'),
    ('pick {pick} --check',
     'pick(n=3): 8\n  area: 11/2\n  interior: 5\n  boundary: 3\n  holds: True\n  oracle: 8 (agreed)\n'),
    ('pick {pick} --trace --json',
     '{"shape": "pick(n=3)", "count": "8", "trace": {"area": "11/2", "interior": "5", "boundary": "3", "holds": true}}\n'),
]

# input errors that no test above covers: exit 1, nothing on stdout
INPUT_ERRORS = [
    "semigroup 3 7 --gaps --apery 3",
    "semigroup 3 7 --upto x",
    "rect 1 0 0 1",
    "tetra 0 1 1 5",
    "thr 1 2",
    "",
]


def _argv(line, tmp_path):
    paths = {}
    for name, text in (("poly", POLY_TEXT), ("pick", PICK_TEXT)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    return [token.format(**paths) for token in line.split()]


@pytest.mark.parametrize("line, expected", GOLDEN, ids=[line for line, _ in GOLDEN])
def test_golden_output(capsys, tmp_path, line, expected):
    code, out, _ = run_cli(capsys, *_argv(line, tmp_path))
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("line", INPUT_ERRORS)
def test_golden_input_errors(capsys, tmp_path, line):
    code, out, err = run_cli(capsys, *_argv(line, tmp_path))
    assert code == 1
    assert out == ""
    assert err


# --- negative rationals ----------------------------------------------------


def test_readme_rect_with_negative_fraction(capsys):
    code, out, _ = run_cli(capsys, "rect", "1/2", "-6/5", "7/2", "1")
    assert code == 0
    assert out == "rect(1/2, -6/5, 7/2, 1): 9\n"


def test_tri_with_negative_fractions(capsys):
    code, out, _ = run_cli(capsys, "tri", "-1/2", "0", "4", "-1/3", "1", "3", "--check")
    assert code == 0
    assert out == "tri(-1/2, 0, 4, -1/3, 1, 3): 9\n  oracle: 9 (agreed)\n"


def test_rtri_with_negative_fractions(capsys):
    code, out, _ = run_cli(capsys, "rtri", "-1/2", "-3/2", "-1/2", "5", "7/3", "-3/2",
                           "--check")
    assert code == 0
    assert out == ("rtri(A=(-1/2, -3/2), B=(-1/2, 5), C=(7/3, -3/2)): 9\n"
                   "  oracle: 9 (agreed)\n")


@pytest.mark.parametrize("argv", [["-h"], ["rect", "--help"]])
def test_help_still_works(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: latticecount")


# --- no runtime dependencies -----------------------------------------------


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, latticecount.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
