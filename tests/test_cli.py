import errno
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    CASE_GENERATORS,
    apply_symmetry,
    no_digit_limit,
    rand_rational,
    rand_tri_degenerate,
)
from latticecount import cli, kernel, oracle, polygons, tetra, triangles
from latticecount.triangles import quadrant_count, rect_count


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


@pytest.mark.parametrize("json_mode", [True, False])
def test_check_disagreement_exits_2(capsys, monkeypatch, json_mode):
    monkeypatch.setattr(oracle, "brute_halfplane_quadrant", lambda *a, **k: 7)
    code, out, _ = run_cli(capsys, "thr", "3", "7", "46", "--check",
                           *(["--json"] if json_mode else []))
    assert code == 2
    if json_mode:
        obj = json.loads(out.strip())
        assert obj["count"] == "63"
        assert obj["oracle"] == "7"
        assert obj["agreed"] is False
    else:
        assert out == "thr(3, 7, 46): 63\n  oracle: 7 (DISAGREED)\n"


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


def test_rtri_trace_names_the_reduction_the_count_ran(capsys):
    """Under every subset of exclusions, the traced (a, b, c) is the
    quadrant problem whose count the request reports."""
    rng = random.Random(26)
    shapes = [("0", "0", "0", "46/7", "46/3", "0"), ("1/3", "1/2", "1/3", "23/4", "19/2", "1/2")]
    for _ in range(40):
        ax, ay, bx, by = (str(rand_rational(rng, -9, 9, 12)) for _ in range(4))
        if ax != bx and ay != by:
            shapes.append((ax, ay, ax, by, bx, ay))
    for coords in shapes:
        for k in range(4):
            for parts in itertools.combinations(("hyp", "legx", "legy"), k):
                flags = ["--exclude", ",".join(parts)] if parts else []
                code, out, _ = run_cli(capsys, "rtri", "--trace", "--json", *flags, "--", *coords)
                report = json.loads(out)
                a, b, c = (int(report["trace"][key]) for key in "abc")
                assert code == 0 and quadrant_count(a, b, c) == int(report["count"]), (coords, parts)


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
    assert obj["trace"] == {"column_sum": "7", "boundary_correction": "1"}
    assert obj["agreed"] is True


def test_poly_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    text = "# square\n0 0\n3 0\n3 3\n0 3\n"
    path = tmp_path / "square.poly"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "poly", str(path), "--json", "--check", "--trace")
    obj = json.loads(out.strip())
    assert code == 0 and obj["count"] == "16" and obj["agreed"] is True
    assert obj["trace"] == {"column_sum": "12", "boundary_correction": "4"}

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "poly", "-", "--json")
    assert code == 0 and json.loads(out.strip())["count"] == "16"


def test_polygon_text_may_start_with_a_byte_order_mark(capsys, tmp_path, monkeypatch):
    """A file saved as UTF-8 with a byte-order mark reads as the same polygon,
    from a file and from stdin; only one leading mark is ignored."""
    text = "0 0\n4 1\n1 3\n"
    path = tmp_path / "bom.poly"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run_cli(capsys, "poly", str(path)) == (0, "poly(n=3): 8\n", "")
    assert run_cli(capsys, "pick", str(path), "--json") == (0, (
        '{"shape": "pick(n=3)", "count": "8", "trace": {"area": "11/2", "interior": "5", '
        '"boundary": "3", "holds": true}}\n'), "")

    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
    assert run_cli(capsys, "poly", "-") == (0, "poly(n=3): 8\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff\ufeff" + text))
    assert run_cli(capsys, "poly", "-") == (
        1, "", "error: line 1: malformed rational '\\ufeff0'\n")


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


def test_thr_trace_of_negative_bound(capsys):
    code, out, err = run_cli(capsys, "thr", "3", "7", "-5", "--trace")
    assert (code, err) == (0, "")
    assert out == "thr(3, 7, -5): 0\n  k: 0\n  blocks:\n  tail_terms:\n"


def test_thr_trace_of_negative_bound_json(capsys):
    code, out, err = run_cli(capsys, "thr", "3", "7", "-5", "--trace", "--json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["trace"] == {"k": 0, "blocks": [], "tail_terms": []}
    assert sum(int(n) for n in obj["trace"]["blocks"]) == int(obj["count"]) == 0


def test_thr_trace_of_negative_bound_is_sized_as_empty(capsys, monkeypatch):
    """A negative bound lists no entry, however large a and b are, so its
    trace fits any limit, even a limit of none."""
    code, out, err = run_cli(capsys, "thr", "1000003", "1000033", "-1", "--trace")
    assert (code, err) == (0, "")
    assert out == "thr(1000003, 1000033, -1): 0\n  k: 0\n  blocks:\n  tail_terms:\n"
    code, out, err = run_cli(capsys, "thr", "1000003", "1000033", "-1", "--trace", "--json")
    assert (code, err) == (0, "")
    assert out == ('{"shape": "thr(1000003, 1000033, -1)", "count": "0", '
                   '"trace": {"k": 0, "blocks": [], "tail_terms": []}}\n')
    monkeypatch.setattr(cli, "TRACE_LIMIT", 0)
    for argv in (("3", "7", "-1"), ("1000003", "1000033", "-1"), ("3", "7", "-46")):
        code, out, err = run_cli(capsys, "thr", *argv, "--trace")
        assert (code, err) == (0, ""), argv
        assert out == f"thr({', '.join(argv)}): 0\n  k: 0\n  blocks:\n  tail_terms:\n"
    code, out, err = run_cli(capsys, "thr", "3", "7", "0", "--trace")
    assert (code, out) == (1, "")
    assert err == "error: --trace would list 2 entries, over the limit of 0\n"


@pytest.mark.parametrize("argv", [
    ("tetra", "1", "1", "1", "1000000000000"),
    ("thr", "3", "7", "1000000000000000"),
])
def test_trace_over_the_limit_exits_1(capsys, monkeypatch, argv):
    slices = _count_calls(monkeypatch, (tetra,), "tetra_slice_counts")
    blocks = _count_calls(monkeypatch, (kernel,), "quadrant_blocks")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--trace")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert slices == blocks == []
    assert err.startswith("error: --trace would list ") and err.count("\n") == 1


def test_trace_limit_counts_every_entry(capsys, monkeypatch):
    # thr 3 7 46 lists three blocks and one tail term, tetra 6 10 15 21 two slices
    monkeypatch.setattr(cli, "TRACE_LIMIT", 4)
    assert run_cli(capsys, "thr", "3", "7", "46", "--trace")[0] == 0
    monkeypatch.setattr(cli, "TRACE_LIMIT", 3)
    assert run_cli(capsys, "thr", "3", "7", "46", "--trace")[0] == 1
    assert run_cli(capsys, "thr", "3", "7", "46")[0] == 0
    monkeypatch.setattr(cli, "TRACE_LIMIT", 2)
    assert run_cli(capsys, "tetra", "6", "10", "15", "21", "--trace")[0] == 0
    monkeypatch.setattr(cli, "TRACE_LIMIT", 1)
    assert run_cli(capsys, "tetra", "6", "10", "15", "21", "--trace")[0] == 1
    assert run_cli(capsys, "tetra", "6", "10", "15", "21")[0] == 0


@pytest.mark.parametrize("argv", [
    ("semigroup", "100003", "100019", "--gaps"),
    ("semigroup", "2", "1000000007", "--apery", "1000000007"),
])
def test_semigroup_list_over_the_limit_exits_1(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    entries = 5001000018 if "--gaps" in argv else 1000000007
    assert err == (f"error: {argv[3]} would list {entries} entries, "
                   "over the limit of 1000000\n")


def test_semigroup_list_limit_counts_every_entry(capsys, monkeypatch):
    # <3, 7> has 6 gaps, and its Apery set w.r.t. 7 has 7 elements
    code, out, _ = run_cli(capsys, "semigroup", "1001", "1003", "--gaps", "--json")
    assert code == 0 and json.loads(out)["count"] == "501000"
    monkeypatch.setattr(cli, "TRACE_LIMIT", 6)
    assert run_cli(capsys, "semigroup", "3", "7", "--gaps")[0] == 0
    assert run_cli(capsys, "semigroup", "3", "7", "--apery", "7")[0] == 1
    monkeypatch.setattr(cli, "TRACE_LIMIT", 5)
    assert run_cli(capsys, "semigroup", "3", "7", "--gaps")[0] == 1
    assert run_cli(capsys, "semigroup", "3", "7")[0] == 0
    assert run_cli(capsys, "semigroup", "2", "1000000007", "--apery", "5") == (
        1, "", "error: 5 is not a generator of <2, 1000000007>\n")


def _count_calls(monkeypatch, modules, name):
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original):
            calls.append(name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("trace", [False, True])
def test_poly_trace_runs_the_edge_sum_once(capsys, monkeypatch, tmp_path, trace):
    path = tmp_path / "pent.txt"
    path.write_text("0 0\n4 0\n5 3\n2 5\n-1 3\n")
    passes = _count_calls(monkeypatch, (polygons,), "edge_sum")
    triangles = _count_calls(monkeypatch, (polygons,), "triangle_count")
    code, out, _ = run_cli(capsys, "poly", str(path), *(["--trace"] if trace else []))
    assert code == 0 and out.startswith("poly(n=5): 26\n")
    assert (len(passes), len(triangles)) == (1, 0)


@pytest.mark.parametrize("argv, count, passes", [
    (["tri", "0", "0", "4", "1", "1", "3"], 8, 1),
    (["tri", "0", "0", "4", "1", "1", "3", "--trace"], 8, 1),
    (["tri", "--trace", "--", "-7/2", "0.25", "5", "-1", "1", "10/3"], 17, 1),
    (["tri", "0", "0", "3", "2", "6", "4"], 3, 0),
    (["tri", "0", "0", "3", "2", "6", "4", "--trace"], 3, 0),
])
def test_tri_reads_its_count_and_trace_off_one_edge_sum(capsys, monkeypatch, argv, count, passes):
    """A tri request, traced or not, makes one edge-sum pass, none for a
    collinear triangle, and never classifies the triangle."""
    sums = _count_calls(monkeypatch, (polygons,), "edge_sum")
    cases = _count_calls(monkeypatch, (polygons,), "triangle_case")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.split("\n")[0].endswith(f": {count}")
    assert (len(sums), len(cases)) == (passes, 0)


def test_tri_trace_terms_sum_to_the_count():
    """For random triangles of every bounding-box case, under random
    lattice symmetries, the traced column_sum and boundary_correction sum
    to the count, which is triangle_count; a collinear triangle is traced
    as the segment it is counted as."""
    rng = random.Random(3131)
    shapes = [apply_symmetry(rng, gen(rng)) for gen in CASE_GENERATORS.values()
              for _ in range(25)]
    shapes += [rand_tri_degenerate(rng) for _ in range(25)]
    for tri in shapes:
        coords = [str(c) for v in tri.vertices for c in v]
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["tri", "--trace", "--json", "--", *coords], out, err) == 0, err.getvalue()
        report = json.loads(out.getvalue())
        count = int(report["count"])
        assert count == polygons.triangle_count(tri), coords
        if polygons._cross(*tri.points) == 0:
            assert report["trace"] == {"reduction": "segment"}, coords
        else:
            terms = report["trace"]
            assert list(terms) == ["column_sum", "boundary_correction"], coords
            assert int(terms["column_sum"]) + int(terms["boundary_correction"]) == count, coords


def _spy_fractions(monkeypatch):
    """The argument tuples of every Fraction built from here on."""
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kwargs: made.append(args) or new(cls, *args, **kwargs)))
    return made


@pytest.mark.parametrize("flags", [(), ("--json",), ("--trace",), ("--trace", "--json")])
def test_poly_request_scales_once_and_builds_no_fraction(capsys, monkeypatch, tmp_path, flags):
    """A poly request parses its tokens to integer pairs, scales them to
    integer points once and counts on those: without --check no Fraction
    is built.  With --check the oracle reads the Fraction vertices."""
    path = tmp_path / "hex.txt"
    path.write_text("0 0\n7/2 -1/3\n5 2.25\n2 5\n-1/2 3\n-1 1.5\n")
    made = _spy_fractions(monkeypatch)
    scalings = _count_calls(monkeypatch, (triangles,), "_integer_points")
    code, out, _ = run_cli(capsys, "poly", str(path), *flags)
    json_mode = "--json" in flags
    assert code == 0 and ('"count": "23"' if json_mode else "poly(n=6): 23\n") in out
    assert (made, len(scalings)) == ([], 1)
    code, out, _ = run_cli(capsys, "poly", str(path), "--check", *flags)
    assert code == 0 and ('"agreed": true' if json_mode else "oracle: 23 (agreed)") in out
    assert len(scalings) == 2


@pytest.mark.parametrize("argv, count", [
    (["tri", "0", "0", "4", "1", "1", "3"], 8),
    (["tri", "--trace", "--json", "--", "-7/2", "0.25", "5", "-1", "1", "10/3"], 17),
    (["tri", "--trace", "0", "0", "1", "1", "2", "2"], 3),
    (["rect", "--", "-0.5", "-6/5", "3.25", "1"], 12),
    (["rect", "--json", "1/2", "-6/5", "7/2", "1"], 9),
    (["rtri", "--trace", "0", "0", "0", "46/7", "46/3", "0"], 63),
    (["rtri", "--trace", "--json", "0", "0", "0", "46/7", "46/3", "0", "--exclude", "hyp"], 61),
    (["rtri", "0", "0", "0", "46/7", "46/3", "0", "--exclude", "hyp,legx"], 45),
    (["rtri", "1", "1", "1", "1", "4", "1", "--exclude", "legy"], 3),
])
def test_shape_request_scales_once_and_builds_no_fraction(capsys, monkeypatch, argv, count):
    """A tri, rect or rtri request parses its tokens to integer pairs and
    scales its shape to integer points once, at construction: without
    --check no Fraction is built, and the count reads the stored points.
    With --check the oracle reads the Fraction vertices."""
    made = _spy_fractions(monkeypatch)
    scalings = _count_calls(monkeypatch, (triangles,), "_integer_points")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and (f'"count": "{count}"' if "--json" in argv else f": {count}\n") in out
    assert (made, len(scalings)) == ([], 1)
    code, out, _ = run_cli(capsys, argv[0], "--check", *argv[1:])
    assert code == 0 and made


def test_tetra_trace_is_one_slice_pass(capsys, monkeypatch):
    passes = _count_calls(monkeypatch, (tetra,), "tetra_slice_counts")
    counts = _count_calls(monkeypatch, (tetra,), "tetra_count")
    code, out, _ = run_cli(capsys, "tetra", "5", "7", "12", "100", "--trace")
    assert code == 0 and out.startswith("tetra(5, 7, 12; 100): ")
    assert (len(passes), len(counts)) == (1, 0)


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


def test_error_messages_write_points_as_rationals(capsys, tmp_path):
    assert run_cli(capsys, "rect", "1", "1", "0", "0") == (
        1, "", "error: reversed rectangle bounds (1, 1) .. (0, 0)\n")
    path = tmp_path / "half.poly"
    path.write_text("0 0\n4 1/2\n1 3\n")
    assert run_cli(capsys, "pick", str(path)) == (
        1, "", "error: pick_audit requires integral vertices, got (4, 1/2)\n")


@pytest.mark.parametrize("argv, err", [
    (["thr", "0", "1", "5"], "coefficients must be positive integers, got (0, 1)"),
    (["thr", "2", "4", "100000000000000000"], "coefficients must be coprime, got (2, 4)"),
    (["tetra", "0", "1", "1", "5"], "generators must be >= 1, got (0, 1, 1)"),
])
def test_input_error_wins_over_the_trace(capsys, argv, err):
    # the count is made before the trace is sized or built, so a bad input
    # is named, not a trace limit or an arithmetic error of the trace
    assert run_cli(capsys, *argv, "--trace") == (1, "", f"error: {err}\n")


def test_oracle_budget_flag(capsys):
    code, _, err = run_cli(capsys, "thr", "1", "2", "2000", "--check",
                           "--oracle-budget", "100")
    assert code == 1
    assert "budget" in err
    code, out, _ = run_cli(capsys, "thr", "1", "2", "2000", "--check",
                           "--oracle-budget", "10000000", "--json")
    assert code == 0 and json.loads(out.strip())["agreed"] is True


@pytest.mark.parametrize("argv", [
    ["thr", "1", "1", "10", "--check", "--oracle-budget", "-5"],
    ["tetra", "6", "10", "15", "21", "--oracle-budget", "-5", "--json"],
])
def test_negative_oracle_budget_is_an_input_error(capsys, argv):
    assert run_cli(capsys, *argv) == (
        1, "", "error: --oracle-budget must be at least 0, got -5\n")


def test_default_oracle_budget(capsys, monkeypatch):
    """Without --oracle-budget, --check gives the oracle its default budget
    of 10**7 cells."""
    budgets = []
    real = oracle.brute_halfplane_quadrant

    def spy(a, b, c, budget):
        budgets.append(budget)
        return real(a, b, c, budget=budget)

    monkeypatch.setattr(oracle, "brute_halfplane_quadrant", spy)
    assert run_cli(capsys, "thr", "3", "7", "46", "--check")[0] == 0
    assert budgets == [oracle.DEFAULT_CELL_BUDGET] == [10**7]


def test_deferred_imports_load_with_the_first_request_that_runs_them():
    """In a fresh process a plain request loads neither the oracle nor json;
    --check loads the oracle and --json loads json, and one request with
    both prints the same bytes as in a warm process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import io, sys; from latticecount import cli\n"
             "for line in ('tri 0 0 4 1 1 3', 'thr 3 7 46 --check', 'thr 3 7 46 --json'):\n"
             "    cli.run(line.split(), io.StringIO())\n"
             "    print(sorted({'json', 'latticecount.oracle'} & set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == [
        "[]", "['latticecount.oracle']", "['json', 'latticecount.oracle']"]
    result = subprocess.run([sys.executable, "-m", "latticecount.cli",
                             "thr", "3", "7", "46", "--json", "--check"],
                            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, (
        '{"shape": "thr(3, 7, 46)", "count": "63", "oracle": "63", "agreed": true}\n'), "")


@pytest.mark.parametrize("argv", [
    ["denumerant", "3", "7", "46"],
    ["denumerant3", "3", "5", "7", "10"],
    ["semigroup", "3", "7"],
    ["semigroup", "3", "7", "--gaps"],
    ["semigroup", "3", "7", "--apery", "3"],
])
def test_oracle_budget_bounds_every_oracle(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--check", "--oracle-budget", "10")
    assert code == 1
    assert out == ""
    assert "exceeding the budget 10" in err


@pytest.mark.parametrize("argv, code", [
    (["thr", "3"], 1),
    (["frobnicate"], 1),
    (["-h"], 0),
    (["rect", "--help"], 0),
])
def test_run_writes_argparse_output_to_its_streams(capsys, argv, code):
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(argv, out, err) == code
    written, silent = (out, err) if code == 0 else (err, out)
    assert written.getvalue().startswith("usage: latticecount")
    assert silent.getvalue() == ""
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


def test_run_keeps_no_state_between_calls(monkeypatch):
    """run holds nothing from one call to the next: in one process, help,
    a usage error, an unknown subcommand, a request and help again each
    return the exit code and write the bytes that call writes in a fresh
    interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["-h"], ["tri", "1"], ["frobnicate"], ["tri", "0", "0", "4", "1", "1", "3"],
                 ["-h"]):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, out, err)
        fresh = subprocess.run([sys.executable, "-m", "latticecount.cli", *argv], env=env,
                               capture_output=True)
        assert (code, out.getvalue().encode(), err.getvalue().encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv


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
    # the trace names the bound of the half-open count: 39 = quadrant_count(3, 7, 35)
    ('rtri 0 0 0 46/7 46/3 0 --exclude hyp,legx,legy --trace',
     'rtri(A=(0, 0), B=(0, 46/7), C=(46/3, 0)): 39\n  reduction: quadrant\n  a: 3\n  b: 7\n  c: 35\n  excluded: hypotenuse, leg_x, leg_y\n'),
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
    # degenerate right triangles: a point, and segments in both orientations
    ('rtri 1/2 1/2 1/2 1/2 1/2 1/2 --trace',
     'rtri(A=(1/2, 1/2), B=(1/2, 1/2), C=(1/2, 1/2)): 0\n  reduction: point\n'),
    ('rtri 2 3 2 3 2 3 --trace --json',
     '{"shape": "rtri(A=(2, 3), B=(2, 3), C=(2, 3))", "count": "1", "trace": {"reduction": "point"}}\n'),
    ('rtri 0 0 0 3 0 0 --trace --exclude legx',
     'rtri(A=(0, 0), B=(0, 3), C=(0, 0)): 3\n  reduction: segment\n  excluded: leg_x\n'),
    ('rtri 0 0 0 0 -5/2 0 --trace --json --exclude legy',
     '{"shape": "rtri(A=(0, 0), B=(0, 0), C=(-5/2, 0))", "count": "2", "trace": {"reduction": "segment", "excluded": ["leg_y"]}}\n'),
    ('rtri 1 1 1 1 4 1 --exclude legy --check',
     'rtri(A=(1, 1), B=(1, 1), C=(4, 1)): 3\n  oracle: 3 (agreed)\n'),
    ('rtri 0 0 0 -7/2 0 0 --trace --exclude hyp --check',
     'rtri(A=(0, 0), B=(0, -7/2), C=(0, 0)): 0\n  reduction: segment\n  excluded: hypotenuse\n  oracle: 0 (agreed)\n'),
    ('tri 0 0 4 1 1 3',
     'tri(0, 0, 4, 1, 1, 3): 8\n'),
    ('tri 0 0 4 1 1 3 --json',
     '{"shape": "tri(0, 0, 4, 1, 1, 3)", "count": "8"}\n'),
    ('tri 0 0 4 1 1 3 --check',
     'tri(0, 0, 4, 1, 1, 3): 8\n  oracle: 8 (agreed)\n'),
    ('tri 0 0 4 1 1 3 --trace',
     'tri(0, 0, 4, 1, 1, 3): 8\n  column_sum: 7\n  boundary_correction: 1\n'),
    ('tri 0 0 4 1 1 3 --trace --json',
     '{"shape": "tri(0, 0, 4, 1, 1, 3)", "count": "8", "trace": {"column_sum": "7", "boundary_correction": "1"}}\n'),
    ('tri 0 0 4 1 1 3 --trace --check --json',
     '{"shape": "tri(0, 0, 4, 1, 1, 3)", "count": "8", "trace": {"column_sum": "7", "boundary_correction": "1"}, "oracle": "8", "agreed": true}\n'),
    # collinear triangles: the count of the segment hull
    ('tri 0 0 3 2 6 4 --trace --check',
     'tri(0, 0, 3, 2, 6, 4): 3\n  reduction: segment\n  oracle: 3 (agreed)\n'),
    ('tri 6 4 -3 -2 0 0 --json',
     '{"shape": "tri(6, 4, -3, -2, 0, 0)", "count": "4"}\n'),
    ('tri 1/2 0 5/2 2 3/2 1 --trace --check',
     'tri(1/2, 0, 5/2, 2, 3/2, 1): 0\n  reduction: segment\n  oracle: 0 (agreed)\n'),
    ('tri -9/2 -3 3/2 1 15/2 5 --check',
     'tri(-9/2, -3, 3/2, 1, 15/2, 5): 4\n  oracle: 4 (agreed)\n'),
    ('poly {poly}',
     'poly(n=6): 10\n'),
    ('poly {poly} --json',
     '{"shape": "poly(n=6)", "count": "10"}\n'),
    ('poly {poly} --check',
     'poly(n=6): 10\n  oracle: 10 (agreed)\n'),
    ('poly {poly} --trace',
     'poly(n=6): 10\n  column_sum: 9\n  boundary_correction: 1\n'),
    ('poly {poly} --trace --json',
     '{"shape": "poly(n=6)", "count": "10", "trace": {"column_sum": "9", "boundary_correction": "1"}}\n'),
    ('poly {poly} --trace --check --json',
     '{"shape": "poly(n=6)", "count": "10", "trace": {"column_sum": "9", "boundary_correction": "1"}, "oracle": "10", "agreed": true}\n'),
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
    # empty int lists: nothing after the colon in text, [] in JSON
    ('thr 3 7 -1 --trace',
     'thr(3, 7, -1): 0\n  k: 0\n  blocks:\n  tail_terms:\n'),
    ('thr 3 7 -1 --trace --json',
     '{"shape": "thr(3, 7, -1)", "count": "0", "trace": {"k": 0, "blocks": [], "tail_terms": []}}\n'),
    ('tetra 6 10 15 -1 --trace',
     'tetra(6, 10, 15; -1): 0\n  slices:\n'),
    ('tetra 6 10 15 -1 --trace --json',
     '{"shape": "tetra(6, 10, 15; -1)", "count": "0", "trace": {"slices": []}}\n'),
    ('semigroup 1 5 --gaps',
     'semigroup(1, 5) gaps: 0\n  gaps:\n'),
    ('semigroup 1 5 --gaps --json',
     '{"shape": "semigroup(1, 5) gaps", "count": "0", "trace": {"gaps": []}}\n'),
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
    "thr 1 1 10 --check --oracle-budget -5",
    "",
    "tri -1e5 0 1 1 2 0",
    "rect -1. 0 1 1",
    "thr 3 7 -1e3",
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


def test_golden_geometry_without_asserts(tmp_path):
    """python -O strips assert statements: the geometry, the quadrant
    kernel and the slice loop must not rely on them, so the golden tri,
    rtri, poly, pick, thr, tetra and denumerant3 cases print the same."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for line, expected in GOLDEN:
        if line.split()[0] not in ("tri", "rtri", "poly", "pick", "thr", "tetra", "denumerant3"):
            continue
        result = subprocess.run([sys.executable, "-O", "-m", "latticecount.cli",
                                 *_argv(line, tmp_path)],
                                env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, expected), line


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


@pytest.mark.parametrize("line, message", [
    ("tri -1e5 0 1 1 2 0", "malformed rational '-1e5'"),
    ("rect -1. 0 1 1", "malformed rational '-1.'"),
    ("thr 3 7 -1e3", "malformed integer '-1e3'"),
    ("rect 1e5 0 1 1", "malformed rational '1e5'"),
])
def test_malformed_negative_number_is_named(capsys, line, message):
    """A token that starts with "-" and a digit is a positional, so its
    parser names it when it is malformed, as it does the unsigned token."""
    assert run_cli(capsys, *line.split()) == (1, "", f"error: {message}\n")


def test_dash_and_a_letter_is_still_an_option(capsys):
    code, out, err = run_cli(capsys, "rect", "-x", "0", "1", "1")
    assert (code, out) == (1, "")
    assert err.endswith("error: the following arguments are required: y1\n")


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


# --- counts of any size ------------------------------------------------------


def _unlimited_str(value):
    """str(value) past the interpreter's int -> str digit limit."""
    with no_digit_limit():
        return str(value)


def _huge(digits):
    return (10**digits - 1, "9" * digits)


@pytest.mark.parametrize("json_mode", [True, False])
def test_thr_count_past_the_digit_limit(capsys, json_mode):
    c, text = _huge(2200)
    code, out, err = run_cli(capsys, "thr", "3", "7", text, *(["--json"] if json_mode else []))
    assert (code, err) == (0, "")
    expected = _unlimited_str(quadrant_count(3, 7, c))
    assert len(expected) > 4300
    if json_mode:
        assert json.loads(out)["count"] == expected
    else:
        assert out.endswith(f": {expected}\n")


def test_rect_input_past_the_digit_limit(capsys):
    x1, text = _huge(5000)
    code, out, err = run_cli(capsys, "rect", "0", "0", text, "1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == _unlimited_str(rect_count((0, 0), (x1, 1)))


@pytest.mark.parametrize("argv", [["thr", "3", "7", "9" * 2200], ["thr", "3", "7", "x"]])
def test_run_restores_the_callers_digit_limit(capsys, argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


# --- the writers ---------------------------------------------------------------
# A query marks each list of ints in its trace as a cli._Ints, and both
# writers print one in one printf pass.  The reference is the rendering of
# the list of strs that the queries used to build.


def _old_json(obj):
    return json.dumps(obj, separators=(", ", ": "))


def _old_text(report, key, values):
    return f"{report.shape}: {report.count}\n" + f"  {key}: {', '.join(map(str, values))}".rstrip()


# more than 4,300 digits: past the interpreter's default int -> str limit
_HUGE_INT = st.builds(lambda digits, sign: sign * (10**digits - 7),
                      st.integers(4301, 5000), st.sampled_from([1, -1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(), st.sampled_from([0, -1, 1]), _HUGE_INT), max_size=12))
def test_writers_render_int_lists_as_their_strs(values):
    report = cli.CountReport("shape", 7, {"slices": cli._Ints(values)})
    with no_digit_limit():
        strs = [str(v) for v in values]
        assert cli.dumps_canonical(report.to_dict()) == _old_json(
            {"shape": "shape", "count": "7", "trace": {"slices": strs}})
        assert cli.render_text(report) == _old_text(report, "slices", values)


def _reports(monkeypatch, capsys, argv):
    """Run one request; its exit code, stdout and the reports it built."""
    reports, real = [], cli.CountReport
    monkeypatch.setattr(cli, "CountReport", lambda *fields: reports.append(real(*fields))
                        or reports[-1])
    code, out, err = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "CountReport", real)
    assert err == "", err
    return code, out, reports


def _str_rendering(report, json_mode):
    """The report as the queries wrote it when their int lists held the
    str of each entry."""
    trace = {key: [str(v) for v in value] if type(value) is cli._Ints else value
             for key, value in report.trace.items()}
    if json_mode:
        return _old_json({"shape": report.shape, "count": str(report.count), "trace": trace})
    return "\n".join([f"{report.shape}: {report.count}"]
                     + [f"  {key}: {', '.join(value) if type(value) is list else value}".rstrip()
                        for key, value in trace.items()])


_INT_LIST_TRACES = [
    ("thr", "3", "7", "46"), ("thr", "3", "7", "-1"), ("thr", "1", "1", "0"),
    ("thr", "5", "2", "1234"), ("thr", "1000003", "1000033", "2000077000363"),
    ("tetra", "6", "10", "15", "21"), ("tetra", "6", "10", "15", "-1"),
    ("tetra", "4", "6", "7", "150"), ("tetra", "9", "11", "17", "6467"),
    ("tetra", "1", "1", "1", "0"),
    ("semigroup", "3", "7", "--gaps"), ("semigroup", "1", "5", "--gaps"),
    ("semigroup", "2", "3", "--gaps"), ("semigroup", "17", "31", "--gaps"),
    ("semigroup", "3", "7", "--apery", "3"), ("semigroup", "3", "7", "--apery", "7"),
    ("semigroup", "1", "5", "--apery", "1"), ("semigroup", "17", "31", "--apery", "31"),
]


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("argv", _INT_LIST_TRACES, ids=" ".join)
def test_int_list_traces_print_as_their_strs(monkeypatch, capsys, argv, json_mode):
    """thr's blocks and tail terms, tetra's slices and semigroup's gaps and
    Apery set, empty lists included, print byte for byte as the str of
    each entry, in text and in JSON."""
    flags = ["--trace"] + ["--json"] * json_mode
    code, out, (report,) = _reports(monkeypatch, capsys, [*argv, *flags])
    assert code == 0
    lists = [value for value in report.trace.values() if type(value) is cli._Ints]
    assert lists and all(type(v) is int for value in lists for v in value)
    with no_digit_limit():
        assert out == _str_rendering(report, json_mode) + "\n"


def test_no_trace_holds_a_plain_list_of_ints(monkeypatch, capsys, tmp_path):
    """Every query's trace holds its int lists as cli._Ints, so the writers
    choose a format by type alone: any other list or tuple holds names."""
    path = tmp_path / "pent.txt"
    path.write_text("0 0\n4 0\n5 3\n2 5\n-1 3\n")
    requests = [
        *_INT_LIST_TRACES,
        ("rect", "1/2", "-6/5", "7/2", "1"),
        ("rtri", "0", "0", "0", "46/7", "46/3", "0", "--exclude", "hyp,legx"),
        ("rtri", "1", "1", "1", "1", "4", "1", "--exclude", "legy"),
        ("tri", "0", "0", "4", "1", "1", "3"),
        ("poly", str(path)), ("pick", str(path)),
        ("denumerant", "3", "7", "46"), ("denumerant3", "6", "10", "15", "60"),
        ("semigroup", "3", "7"), ("semigroup", "3", "7", "--contains", "11"),
        ("semigroup", "3", "7", "--upto", "46"),
    ]
    assert {argv[0] for argv in requests} == {row.name for row in cli.SUBCOMMANDS}
    traces = 0
    for argv in requests:
        code, _, (report,) = _reports(monkeypatch, capsys, [*argv, "--trace"])
        assert code == 0, argv
        for value in (report.trace or {}).values():
            traces += 1
            if type(value) is cli._Ints:
                assert all(type(v) is int for v in value), argv
            elif isinstance(value, (list, tuple)):
                assert all(type(v) is str for v in value), argv
    assert traces > len(requests)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(), st.one_of(st.lists(st.text()), st.text(), st.booleans(),
                                            st.integers(), st.none(), st.lists(st.integers())),
                      max_size=4))
def test_dumps_canonical_writes_names_as_json_dumps_does(obj):
    """Lists of str, and every other value that is not a cli._Ints, take
    json.dumps's path: non-ASCII text, empty lists, plain lists of ints and
    scalars included."""
    assert cli.dumps_canonical(obj) == _old_json(obj)
    assert cli.dumps_canonical({"trace": obj}) == _old_json({"trace": obj})


def test_render_text_joins_names():
    report = cli.CountReport("rtri(...)", 5, {"reduction": "quadrant",
                                              "excluded": ["hypotenuse", "leg_x"],
                                              "blocks": []})
    assert cli.render_text(report) == ("rtri(...): 5\n  reduction: quadrant\n"
                                       "  excluded: hypotenuse, leg_x\n  blocks:")


@pytest.mark.parametrize("line, expected",
                         [case for case in GOLDEN if "--json" in case[0]],
                         ids=[line for line, _ in GOLDEN if "--json" in line])
def test_golden_json_round_trips(line, expected):
    """json.loads + dumps_canonical reproduces every JSON report byte for
    byte: its lists hold str by then."""
    assert cli.dumps_canonical(json.loads(expected)) + "\n" == expected


def test_slice_list_at_the_trace_limit(capsys):
    """10^6 slices, the most --trace lists: both writers give the bytes of
    the per-entry str rendering."""
    argv = ["tetra", "5", "7", "12", "11999999", "--trace"]
    slices = tetra.tetra_slice_counts(5, 7, 12, 11999999)
    assert len(slices) == cli.TRACE_LIMIT
    report = cli.CountReport("tetra(5, 7, 12; 11999999)", sum(slices))
    assert run_cli(capsys, *argv) == (0, _old_text(report, "slices", slices) + "\n", "")
    strs = [str(v) for v in slices]
    expected = _old_json({"shape": report.shape, "count": str(report.count),
                          "trace": {"slices": strs}})
    assert run_cli(capsys, *argv, "--json") == (0, expected + "\n", "")


def test_gap_list_near_10_5_entries(capsys):
    gaps = oracle.brute_gaps(447, 449)
    assert len(gaps) == 99904
    report = cli.CountReport("semigroup(447, 449) gaps", len(gaps))
    assert run_cli(capsys, "semigroup", "447", "449", "--gaps") == (
        0, _old_text(report, "gaps", gaps) + "\n", "")
    expected = _old_json({"shape": report.shape, "count": str(report.count),
                          "trace": {"gaps": [str(v) for v in gaps]}})
    assert run_cli(capsys, "semigroup", "447", "449", "--gaps", "--json") == (
        0, expected + "\n", "")


# --- a report that cannot be written ------------------------------------------


def _cli_process(*argv, stdout, unbuffered, stderr=subprocess.PIPE):
    """The CLI in a child process; with a buffered stdout the failed write
    stays in the buffer until the interpreter flushes it at exit."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "latticecount.cli", *argv], env=env,
                            stdout=stdout, stderr=stderr, text=True)


def _assert_write_failure(code, err, what="the report"):
    assert code == 1
    assert err.startswith(f"error: cannot write {what}: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_1(unbuffered):
    """The reader closes the pipe after 100 bytes of a 4 MB trace, as
    `latticecount thr 3 7 10000000 --trace | head -c 100` does."""
    proc = _cli_process("thr", "3", "7", "10000000", "--trace", stdout=subprocess.PIPE,
                        unbuffered=unbuffered)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    _assert_write_failure(proc.wait(timeout=60), err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_device_exits_1(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _cli_process("thr", "3", "7", "46", stdout=full, unbuffered=unbuffered)
        err = proc.stderr.read()
        _assert_write_failure(proc.wait(timeout=60), err)


class _FullStream(io.StringIO):
    """A stream whose every non-empty write fails, as on a full disk."""

    def write(self, text):
        if text:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return 0


@pytest.mark.parametrize("argv, what", [(["-h"], "the help"),
                                        (["thr", "3", "7", "46"], "the report")])
def test_run_reports_output_it_cannot_write(argv, what):
    err = io.StringIO()
    assert cli.run(argv, _FullStream(), err) == 1
    assert err.getvalue().startswith(f"error: cannot write {what}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["-h"], ["tetra", "--help"]])
def test_help_to_full_device_exits_1(argv, unbuffered):
    """argparse ignores a failed write of its help; the CLI does not."""
    with open("/dev/full", "w") as full:
        proc = _cli_process(*argv, stdout=full, unbuffered=unbuffered)
        err = proc.stderr.read()
        _assert_write_failure(proc.wait(timeout=60), err, "the help")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["thr", "3"], ["thr", "3", "7", "x"]])
def test_errors_to_full_device_exit_1(argv, unbuffered):
    """A usage or input error that cannot be written still exits 1; the
    interpreter's own flush at exit would make that 120."""
    with open("/dev/full", "w") as full:
        proc = _cli_process(*argv, stdout=subprocess.PIPE, stderr=full, unbuffered=unbuffered)
        assert proc.stdout.read() == ""
        assert proc.wait(timeout=60) == 1
