"""Command-line interface.

One subcommand per counted shape or semigroup query, exact rational
input everywhere the geometry allows it, optional decomposition traces
(--trace) and optional brute-force cross-checking (--check).  Every
subcommand is one row of the SUBCOMMANDS table; build_parser and run
read that table and hold no per-subcommand code.

Exit codes: 0 success, 1 input error, 2 the brute-force check disagreed
with the reported count.
"""

import argparse
import json
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from . import oracle
from .polygons import (
    Triangle,
    pick_audit,
    polygon_count,
    polygon_from_text,
    triangle_case,
    triangle_count,
    triangulate,
)
from .rationals import format_rational, parse_int, parse_rational
from .semigroup import TwoGenSemigroup
from .tetra import denumerant3, tetra_count, tetra_slice_counts
from .triangles import (
    HYPOTENUSE,
    LEG_X,
    LEG_Y,
    StableRightTriangle,
    quadrant_blocks,
    quadrant_count,
    rect_count,
    stable_right_count,
    stable_right_reduction,
)

_EXCLUDE_PARTS = {"hyp": HYPOTENUSE, "legx": LEG_X, "legy": LEG_Y}

# argparse reads only -N and -N.N as negative numbers, so "-6/5" would be
# taken for an option; every signed rational form is a positional here.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+|\d*\.\d+|\d+/\d+)$")


@dataclass
class CountReport:
    shape: str
    count: int
    trace: dict | None = None
    oracle: int | None = None
    agreed: bool | None = None

    def to_dict(self):
        out = {"shape": self.shape, "count": str(self.count)}
        if self.trace is not None:
            out["trace"] = self.trace
        if self.oracle is not None:
            out["oracle"] = str(self.oracle)
        if self.agreed is not None:
            out["agreed"] = self.agreed
        return out


def dumps_canonical(obj):
    """The one JSON writer: fixed key order (insertion), fixed separators."""
    return json.dumps(obj, separators=(", ", ": "))


def render_text(report):
    lines = [f"{report.shape}: {report.count}"]
    if report.trace:
        for key, value in report.trace.items():
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            lines.append(f"  {key}: {value}")
    if report.oracle is not None:
        verdict = "agreed" if report.agreed else "DISAGREED"
        lines.append(f"  oracle: {report.oracle} ({verdict})")
    return "\n".join(lines)


# --- helpers the table rows call -------------------------------------------


def _strs(values):
    return [str(v) for v in values]


def _read_polygon(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return polygon_from_text(text)


def _parse_exclude(values):
    parts = set()
    for value in values or ():
        for token in value.split(","):
            token = token.strip()
            if token not in _EXCLUDE_PARTS:
                raise ValueError(f"unknown boundary part {token!r} (use hyp, legx, legy)")
            parts.add(_EXCLUDE_PARTS[token])
    return parts


def _thr_trace(a, b, c):
    blocks = quadrant_blocks(a, b, c)
    return {"k": blocks.k, "blocks": _strs(blocks.block_counts),
            "tail_terms": _strs(blocks.tail_terms)}


def _rtri_trace(tri, parts):
    kind, data = stable_right_reduction(tri)
    trace = {"reduction": kind}
    if kind == "quadrant":
        trace.update(zip("abc", _strs(data)))
    if parts:
        trace["excluded"] = sorted(parts)
    return trace


def _poly_trace(poly):
    tris = triangulate(poly)
    return {"triangles": len(tris), "triangle_counts": _strs(triangle_count(t) for t in tris)}


def _pick_trace(poly, audit):
    return {"area": format_rational(audit.area), "interior": str(audit.interior),
            "boundary": str(audit.boundary), "holds": audit.holds}


def _semigroup_options(sp):
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--gaps", action="store_true", help="list the gaps")
    group.add_argument("--apery", metavar="S", help="Apery set w.r.t. generator S")
    group.add_argument("--contains", metavar="N", help="membership of N")
    group.add_argument("--upto", metavar="C", help="count elements in [0, C]")


_Query = namedtuple("_Query", ["shape", "count", "trace", "oracle"])


def _semigroup_query(args, a, b):
    """The one semigroup query the mode flags select; its oracle takes the
    cell budget."""
    sg = TwoGenSemigroup(a, b)
    shape = f"semigroup({a}, {b})"
    if args.gaps:
        gaps = sg.gaps()
        return _Query(shape + " gaps", len(gaps), {"gaps": _strs(gaps)},
                      lambda budget: len(oracle.brute_gaps(a, b)))
    if args.apery is not None:
        s = parse_int(args.apery)
        ap = sg.apery(s)
        # the count is the set's sum: a checksum that detects any wrong element
        return _Query(shape + f" apery({s})", sum(ap), {"apery": _strs(ap)},
                      lambda budget: sum(oracle.brute_apery(a, b, s)))
    if args.contains is not None:
        n = parse_int(args.contains)
        member = sg.contains(n)
        return _Query(shape + f" contains({n})", int(member), {"contains": member},
                      lambda budget: int(oracle.brute_contains(a, b, n, budget=budget)))
    if args.upto is not None:
        c = parse_int(args.upto)
        return _Query(shape + f" upto({c})", sg.count_upto(c), None,
                      lambda budget: oracle.brute_count_upto(a, b, c, budget=budget))
    return _Query(shape, sg.genus, {"frobenius": str(sg.frobenius), "genus": str(sg.genus)},
                  lambda budget: len(oracle.brute_gaps(a, b)))


# --- the subcommand table --------------------------------------------------


@dataclass(frozen=True)
class Subcommand:
    """One CLI subcommand.

    `parse` names the function of this module that reads each positional
    in `args`.  `make` turns the namespace and the parsed positionals into
    the subject tuple; `count`, `shape`, `trace` and `oracle` are called
    with the subject unpacked (`oracle` also with the keyword `budget`).
    The callables look library and oracle functions up when they run, not
    at import, so patching a module global reaches them.  `trace` is shown
    under --trace, or always when `always_trace` is set.
    """

    name: str
    help: str
    args: tuple
    parse: str
    count: Callable
    shape: Callable
    oracle: Callable
    make: Callable = lambda args, *values: values
    trace: Callable | None = None
    always_trace: bool = False
    options: Callable | None = None


SUBCOMMANDS = (
    Subcommand(
        "thr", "count a*x + b*y <= c over x, y >= 0 (a, b coprime)",
        ("a", "b", "c"), "parse_int",
        count=lambda a, b, c: quadrant_count(a, b, c),
        shape=lambda a, b, c: f"thr({a}, {b}, {c})",
        trace=_thr_trace,
        oracle=lambda a, b, c, budget: oracle.brute_halfplane_quadrant(a, b, c, budget=budget),
    ),
    Subcommand(
        "rect", "count a stable rectangle",
        ("x0", "y0", "x1", "y1"), "parse_rational",
        count=lambda x0, y0, x1, y1: rect_count((x0, y0), (x1, y1)),
        shape=lambda *xy: "rect({}, {}, {}, {})".format(*xy),
        oracle=lambda x0, y0, x1, y1, budget: oracle.brute_rect((x0, y0), (x1, y1),
                                                                budget=budget),
    ),
    Subcommand(
        "rtri", "count a stable right triangle (A right angle, B above/below A, C beside A)",
        ("ax", "ay", "bx", "by", "cx", "cy"), "parse_rational",
        make=lambda args, ax, ay, bx, by, cx, cy: (
            StableRightTriangle(corner=(ax, ay), y_vertex=(bx, by), x_vertex=(cx, cy)),
            _parse_exclude(args.exclude),
        ),
        count=lambda tri, parts: stable_right_count(tri, exclude=parts),
        shape=lambda tri, parts: "rtri(A=({}, {}), B=({}, {}), C=({}, {}))".format(
            *tri.corner, *tri.y_vertex, *tri.x_vertex),
        trace=_rtri_trace,
        oracle=lambda tri, parts, budget: oracle.brute_triangle(
            Triangle(*tri.vertices), exclude_segments=tri.boundary_segments(parts),
            budget=budget),
        options=lambda sp: sp.add_argument(
            "--exclude", action="append", metavar="PART",
            help="boundary parts to exclude: hyp, legx, legy (repeatable, comma-separated)"),
    ),
    Subcommand(
        "tri", "count a general triangle",
        ("x1", "y1", "x2", "y2", "x3", "y3"), "parse_rational",
        make=lambda args, x1, y1, x2, y2, x3, y3: (Triangle((x1, y1), (x2, y2), (x3, y3)),),
        count=lambda tri: triangle_count(tri),
        shape=lambda tri: "tri({}, {}, {}, {}, {}, {})".format(*tri.v1, *tri.v2, *tri.v3),
        trace=lambda tri: {"case": triangle_case(tri)},
        oracle=lambda tri, budget: oracle.brute_triangle(tri, budget=budget),
    ),
    Subcommand(
        "poly", "count a simple polygon read from FILE or - (stdin)",
        ("file",), "_read_polygon",
        count=lambda poly: polygon_count(poly),
        shape=lambda poly: f"poly(n={len(poly.vertices)})",
        trace=_poly_trace,
        oracle=lambda poly, budget: oracle.brute_polygon(poly, budget=budget),
    ),
    Subcommand(
        "tetra", "count a1*x1 + a2*x2 + a3*x3 <= b over xi >= 0",
        ("a1", "a2", "a3", "b"), "parse_int",
        count=lambda a1, a2, a3, b: tetra_count(a1, a2, a3, b),
        shape=lambda a1, a2, a3, b: f"tetra({a1}, {a2}, {a3}; {b})",
        trace=lambda a1, a2, a3, b: {"slices": _strs(tetra_slice_counts(a1, a2, a3, b))},
        oracle=lambda a1, a2, a3, b, budget: oracle.brute_tetra(a1, a2, a3, b, budget=budget),
    ),
    Subcommand(
        "denumerant", "representations of c as x*a + y*b (a, b coprime)",
        ("a", "b", "c"), "parse_int",
        count=lambda a, b, c: TwoGenSemigroup(a, b).denumerant(c),
        shape=lambda a, b, c: f"denumerant({c}; {a}, {b})",
        oracle=lambda a, b, c, budget: oracle.brute_denumerant2(a, b, c),
    ),
    Subcommand(
        "denumerant3", "representations of n over three generators",
        ("a1", "a2", "a3", "n"), "parse_int",
        count=lambda a1, a2, a3, n: denumerant3(a1, a2, a3, n),
        shape=lambda a1, a2, a3, n: f"denumerant({n}; {a1}, {a2}, {a3})",
        oracle=lambda a1, a2, a3, n, budget: oracle.brute_denumerant3(a1, a2, a3, n),
    ),
    Subcommand(
        "semigroup", "invariants of the numerical semigroup <a, b>",
        ("a", "b"), "parse_int",
        make=lambda args, a, b: (_semigroup_query(args, a, b),),
        count=lambda query: query.count,
        shape=lambda query: query.shape,
        trace=lambda query: query.trace,
        always_trace=True,
        oracle=lambda query, budget: query.oracle(budget),
        options=_semigroup_options,
    ),
    Subcommand(
        "pick", "Pick's-theorem audit of an integral-vertex polygon",
        ("file",), "_read_polygon",
        make=lambda args, poly: (poly, pick_audit(poly)),
        count=lambda poly, audit: audit.interior + audit.boundary,
        shape=lambda poly, audit: f"pick(n={len(poly.vertices)})",
        trace=_pick_trace,
        always_trace=True,
        oracle=lambda poly, audit, budget: oracle.brute_polygon(poly, budget=budget),
    ),
)


# --- driver ----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latticecount",
        description="Exact lattice-point counts for rational triangles, "
        "polygons and stable right tetrahedra.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--trace", action="store_true",
                        help="include the decomposition trace")
    common.add_argument("--check", action="store_true",
                        help="cross-check against the brute-force oracle")
    common.add_argument("--oracle-budget", type=int, default=oracle.DEFAULT_CELL_BUDGET,
                        metavar="N", help="cell budget for the brute-force oracle")
    sub = parser.add_subparsers(dest="command", required=True)
    for row in SUBCOMMANDS:
        sp = sub.add_parser(row.name, parents=[common], help=row.help)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        for name in row.args:
            sp.add_argument(name)
        if row.options:
            row.options(sp)
        sp.set_defaults(row=row)
    return parser


def run(argv, out=None, err=None):
    """Run the CLI; returns the exit code (0 ok, 1 input error, 2 oracle
    disagreement)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    row = args.row
    try:
        parse = globals()[row.parse]
        subject = row.make(args, *(parse(getattr(args, name)) for name in row.args))
        report = CountReport(row.shape(*subject), row.count(*subject))
        if row.trace and (args.trace or row.always_trace):
            report.trace = row.trace(*subject)
        if args.check:
            report.oracle = row.oracle(*subject, budget=args.oracle_budget)
            report.agreed = report.count == report.oracle
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    if args.json:
        print(dumps_canonical(report.to_dict()), file=out)
    else:
        print(render_text(report), file=out)
    return 2 if report.agreed is False else 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
