"""Command-line interface.

One subcommand per counted shape or semigroup query, exact rational
input everywhere the geometry allows it, optional decomposition traces
(--trace, refused past TRACE_LIMIT entries) and optional brute-force
cross-checking (--check).  Every subcommand is one query function,
listed in one row of the SUBCOMMANDS table; build_parser and run read
that table and hold no per-subcommand code.

A one-shot call costs mostly the interpreter's start and this module's
import, so the import loads only what every request runs: this module and
latticecount.rationals.  Each query imports its library modules when it
runs, the first --check imports latticecount.oracle, and the first --json
imports json.

Exit codes: 0 success, 1 input error, 2 the brute-force check disagreed
with the reported count.
"""

import argparse
import io
import os
import re
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout, suppress

from .rationals import parse_int, parse_ratio

# the most entries a --trace may list: thr's blocks and tail terms, tetra's slices
TRACE_LIMIT = 10**6

# argparse reads only -N and -N.N as negative numbers, so "-6/5" would be
# taken for an option.  Here every token that starts with "-" and a digit,
# or "-." and a digit, is a positional, so that its parser names a
# malformed one ("-1e5") instead of argparse reporting a missing argument.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class CountReport(namedtuple("CountReport", ["shape", "count", "trace", "oracle"],
                             defaults=(None, None))):
    __slots__ = ()
    agreed = property(lambda self: None if self.oracle is None else self.count == self.oracle)

    def to_dict(self):
        out = {"shape": self.shape, "count": str(self.count)}
        if self.trace is not None:
            out["trace"] = self.trace
        if self.oracle is not None:  # oracle before agreed, the canonical key order
            out["oracle"], out["agreed"] = str(self.oracle), self.agreed
        return out


class _Ints(tuple):
    """A trace's list of ints; both writers print its entries as decimal strings."""

    __slots__ = ()


def dumps_canonical(obj):
    """The one JSON writer: fixed key order (insertion), fixed separators.

    Counts are written as strings, so values of any size survive any JSON
    reader: an _Ints (thr's blocks and tail_terms, tetra's slices, semigroup's
    gaps and apery) as a list of decimal strings.  A dict is written key by
    key under that rule; any other value, a list of str among them, as
    json.dumps writes it, so the output of json.loads round-trips unchanged."""
    import json  # loaded by the first --json request, not by import latticecount.cli
    parts = []
    _dumps(obj, parts.append, json)
    return "".join(parts)


# recursion goes through _dumps, not the module-level name, so that a wrapper of
# dumps_canonical (bench/tracer.py times it) sees one call; its fragments are joined once
def _dumps(obj, write, json):
    if type(obj) is dict:
        write("{")
        for i, (key, value) in enumerate(obj.items()):
            write(f"{', ' if i else ''}{json.encoder.encode_basestring_ascii(key)}: ")
            _dumps(value, write, json)
        write("}")
    elif type(obj) is _Ints:
        write(_ints_text(obj, '", "', '["', '"]') or "[]")
    else:
        write(json.dumps(obj))


def _ints_text(values, sep=", ", head="", tail=""):
    """The ints written in one printf pass, "" for none: %d puts each int's
    digits straight into the output, with no str built per entry."""
    return (head + "%d" + (sep + "%d") * (len(values) - 1) + tail) % values if values else ""


def render_text(report):
    """The report as text, a line per trace entry: an _Ints prints as its
    decimal strings, a list of names (rtri's excluded) as its names, joined by ", "."""
    lines = [f"{report.shape}: {report.count}"]
    if report.trace:
        for key, value in report.trace.items():
            if type(value) is _Ints:
                value = _ints_text(value)
            elif type(value) in (list, tuple):
                value = ", ".join(value)
            lines.append(f"  {key}: {value}".rstrip())
    if report.oracle is not None:
        verdict = "agreed" if report.agreed else "DISAGREED"
        lines.append(f"  oracle: {report.oracle} ({verdict})")
    return "\n".join(lines)


# --- helpers the query functions call --------------------------------------


def _read_polygon(path):
    from .polygons import polygon_from_text
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return polygon_from_text(text)


def _parse_exclude(values):
    from .triangles import HYPOTENUSE, LEG_X, LEG_Y
    named = {"hyp": HYPOTENUSE, "legx": LEG_X, "legy": LEG_Y}
    parts = set()
    for value in values or ():
        for token in value.split(","):
            token = token.strip()
            if token not in named:
                raise ValueError(f"unknown boundary part {token!r} (use hyp, legx, legy)")
            parts.add(named[token])
    return parts


def _check_trace_size(entries, flag="--trace"):
    """Refuse, before building it, a list of more than TRACE_LIMIT entries;
    the message names the flag that asks for the list."""
    if entries > TRACE_LIMIT:
        raise ValueError(f"{flag} would list {entries} entries, over the limit of {TRACE_LIMIT}")


# --- one query function per subcommand -------------------------------------

# a query makes its count before its trace, so a bad input is reported as
# such, not as a trace over the limit or a failure of the trace's arithmetic
_Query = namedtuple("_Query", ["shape", "count", "trace", "oracle"])


def _thr_query(args, a, b, c):
    from .kernel import quadrant_blocks, quadrant_count
    count, trace = quadrant_count(a, b, c), None
    if args.trace:
        k, r = divmod(max(c, 0), a * b)
        _check_trace_size(k + 2 + r // max(a, b))  # k + 1 blocks, r // max(a, b) + 1 tail terms
        k, blocks, tail = quadrant_blocks(a, b, c)
        trace = {"k": k, "blocks": _Ints(blocks), "tail_terms": _Ints(tail)}
    return _Query(f"thr({a}, {b}, {c})", count, trace,
                  lambda oracle, budget: oracle.brute_halfplane_quadrant(a, b, c, budget=budget))


def _rect_query(args, x0, y0, x1, y1):
    from .triangles import Segment, rect_count
    return _Query(f"rect({x0}, {y0}, {x1}, {y1})", rect_count((x0, y0), (x1, y1)), None,
                  lambda oracle, budget: oracle.brute_rect(
                      *Segment((x0, y0), (x1, y1)).vertices, budget=budget))


def _rtri_query(args, ax, ay, bx, by, cx, cy):
    from .kernel import quadrant_count
    from .triangles import StableRightTriangle, _corner_lift
    tri = StableRightTriangle(corner=(ax, ay), y_vertex=(bx, by), x_vertex=(cx, cy))
    parts = _parse_exclude(args.exclude)
    # one corner lift gives the count, as stable_right_count makes it, and
    # the reduction the trace names
    a, b, c, m = _corner_lift(*tri, parts)
    count = c if a == 0 or b == 0 else quadrant_count(a, b, c // m)
    trace = None
    if args.trace:
        if a == 0 or b == 0:  # a point or a segment, counted by c
            trace = {"reduction": "point" if a == b == 0 else "segment"}
        else:
            trace = {"reduction": "quadrant", "a": str(a), "b": str(b), "c": str(c // m)}
        if parts:
            trace["excluded"] = sorted(parts)
    return _Query(f"rtri(A=({ax}, {ay}), B=({bx}, {by}), C=({cx}, {cy}))", count, trace,
                  lambda oracle, budget: oracle.brute_triangle(
                      tri, exclude_segments=tri.boundary_segments(parts), budget=budget))


def _tri_query(args, x1, y1, x2, y2, x3, y3):
    from .polygons import Triangle, _cross, edge_sum, triangle_count
    tri = Triangle((x1, y1), (x2, y2), (x3, y3))
    # one edge-sum pass over the points counterclockwise gives the count, as
    # triangle_count makes it, and the trace; a collinear triangle is its segment hull
    L, v = tri
    turn = _cross(*v)
    if turn == 0:
        count, trace = triangle_count(tri), {"reduction": "segment"}
    else:
        terms = edge_sum((L, v if turn > 0 else v[::-1]))
        count, trace = sum(terms), dict(zip(terms._fields, map(str, terms)))
    return _Query(f"tri({x1}, {y1}, {x2}, {y2}, {x3}, {y3})", count, trace if args.trace else None,
                  lambda oracle, budget: oracle.brute_triangle(tri, budget=budget))


def _poly_query(args, poly):
    from .polygons import edge_sum
    terms = edge_sum(poly)  # one edge-sum pass gives the count and its named terms
    trace = dict(zip(terms._fields, map(str, terms))) if args.trace else None
    return _Query(f"poly(n={len(poly.points)})", sum(terms), trace,
                  lambda oracle, budget: oracle.brute_polygon(poly, budget=budget))


def _tetra_query(args, a1, a2, a3, b):
    from .tetra import tetra_count, tetra_slice_counts
    if args.trace:  # one slice pass gives the count and the slices
        if min(a1, a2, a3) >= 1:  # else tetra_slice_counts rejects the generators
            _check_trace_size(b // max(a1, a2, a3) + 1)
        slices = tetra_slice_counts(a1, a2, a3, b)
        count, trace = sum(slices), {"slices": _Ints(slices)}
    else:
        count, trace = tetra_count(a1, a2, a3, b), None
    return _Query(f"tetra({a1}, {a2}, {a3}; {b})", count, trace,
                  lambda oracle, budget: oracle.brute_tetra(a1, a2, a3, b, budget=budget))


def _denumerant_query(args, a, b, c):
    from .semigroup import TwoGenSemigroup
    return _Query(f"denumerant({c}; {a}, {b})", TwoGenSemigroup(a, b).denumerant(c), None,
                  lambda oracle, budget: oracle.brute_denumerant2(a, b, c, budget=budget))


def _denumerant3_query(args, a1, a2, a3, n):
    from .tetra import denumerant3
    return _Query(f"denumerant({n}; {a1}, {a2}, {a3})", denumerant3(a1, a2, a3, n), None,
                  lambda oracle, budget: oracle.brute_denumerant3(a1, a2, a3, n, budget=budget))


def _semigroup_options(sp):
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--gaps", action="store_true", help="list the gaps")
    group.add_argument("--apery", metavar="S", help="Apery set w.r.t. generator S")
    group.add_argument("--contains", metavar="N", help="membership of N")
    group.add_argument("--upto", metavar="C", help="count elements in [0, C]")


def _semigroup_query(args, a, b):
    """The one semigroup query the mode flags select; its list or
    invariants are always shown."""
    from .semigroup import TwoGenSemigroup
    sg = TwoGenSemigroup(a, b)
    shape = f"semigroup({a}, {b})"
    if args.gaps:
        _check_trace_size(sg.genus, "--gaps")
        gaps = sg.gaps()
        return _Query(shape + " gaps", len(gaps), {"gaps": _Ints(gaps)},
                      lambda oracle, budget: len(oracle.brute_gaps(a, b, budget=budget)))
    if args.apery is not None:
        s = parse_int(args.apery)
        if s in (a, b):  # else apery names the non-generator
            _check_trace_size(s, "--apery")
        ap = sg.apery(s)
        # the count is the set's sum: a checksum that detects any wrong element
        return _Query(shape + f" apery({s})", sum(ap), {"apery": _Ints(ap)},
                      lambda oracle, budget: sum(oracle.brute_apery(a, b, s, budget=budget)))
    if args.contains is not None:
        n = parse_int(args.contains)
        member = sg.contains(n)
        return _Query(shape + f" contains({n})", int(member), {"contains": member},
                      lambda oracle, budget: int(oracle.brute_contains(a, b, n, budget=budget)))
    if args.upto is not None:
        c = parse_int(args.upto)
        return _Query(shape + f" upto({c})", sg.count_upto(c), None,
                      lambda oracle, budget: oracle.brute_count_upto(a, b, c, budget=budget))
    return _Query(shape, sg.genus, {"frobenius": str(sg.frobenius), "genus": str(sg.genus)},
                  lambda oracle, budget: len(oracle.brute_gaps(a, b, budget=budget)))


def _pick_query(args, poly):
    from .polygons import pick_audit
    from .rationals import format_rational
    audit = pick_audit(poly)
    trace = {"area": format_rational(audit.area), "interior": str(audit.interior),
             "boundary": str(audit.boundary), "holds": audit.holds}
    return _Query(f"pick(n={len(poly.points)})", audit.interior + audit.boundary, trace,
                  lambda oracle, budget: oracle.brute_polygon(poly, budget=budget))


# --- the subcommand table --------------------------------------------------


class Subcommand(namedtuple("Subcommand", ["name", "help", "args", "parse", "query", "options"],
                            defaults=(None,))):
    """One CLI subcommand.

    `parse` names the function of this module that reads each positional
    in `args`.  `query` is called with the namespace and the parsed
    positionals; it returns the shape, the count, the trace (None unless
    shown) and the oracle, a function of the oracle module and the cell
    budget.  A query imports its library functions when it runs, each
    from the module that defines it, and the oracle's are read from the
    module it is given, so patching a global of that module reaches them.
    `options` adds the subcommand's own flags to its parser.
    """

    __slots__ = ()


SUBCOMMANDS = (
    Subcommand("thr", "count a*x + b*y <= c over x, y >= 0 (a, b coprime)",
               ("a", "b", "c"), "parse_int", _thr_query),
    Subcommand("rect", "count a stable rectangle",
               ("x0", "y0", "x1", "y1"), "parse_ratio", _rect_query),
    Subcommand("rtri",
               "count a stable right triangle (A right angle, B above/below A, C beside A)",
               ("ax", "ay", "bx", "by", "cx", "cy"), "parse_ratio", _rtri_query,
               options=lambda sp: sp.add_argument(
                   "--exclude", action="append", metavar="PART",
                   help="boundary parts to exclude: hyp, legx, legy "
                   "(repeatable, comma-separated)")),
    Subcommand("tri", "count a general triangle",
               ("x1", "y1", "x2", "y2", "x3", "y3"), "parse_ratio", _tri_query),
    Subcommand("poly", "count a simple polygon read from FILE or - (stdin)",
               ("file",), "_read_polygon", _poly_query),
    Subcommand("tetra", "count a1*x1 + a2*x2 + a3*x3 <= b over xi >= 0",
               ("a1", "a2", "a3", "b"), "parse_int", _tetra_query),
    Subcommand("denumerant", "representations of c as x*a + y*b (a, b coprime)",
               ("a", "b", "c"), "parse_int", _denumerant_query),
    Subcommand("denumerant3", "representations of n over three generators",
               ("a1", "a2", "a3", "n"), "parse_int", _denumerant3_query),
    Subcommand("semigroup", "invariants of the numerical semigroup <a, b>",
               ("a", "b"), "parse_int", _semigroup_query, options=_semigroup_options),
    Subcommand("pick", "Pick's-theorem audit of an integral-vertex polygon",
               ("file",), "_read_polygon", _pick_query),
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
    common.add_argument("--oracle-budget", type=int, metavar="N",
                        help="cell budget for the brute-force oracle")
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
    disagreement).  Everything, argparse's help and usage errors included,
    is written to out and err (default: the process streams).  Inputs and
    counts of any length convert: the interpreter's int <-> str digit
    limit is lifted for the call, and the caller's limit restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv, out, err)
    finally:
        sys.set_int_max_str_digits(saved)


def _write(text, stream, err, what, end=""):
    """Write text and end to stream and flush it; True on success.  A
    closed pipe or a full disk is reported on err as one line.  An
    unbuffered stream ignores a write that a closed pipe cuts short, and
    fails the write after it, so a report ends with its own write of end."""
    try:
        print(text, file=stream, end=end)
        stream.flush()
    except OSError as exc:
        with suppress(OSError):  # err may be the stream that failed
            print(f"error: cannot write {what}: {exc}", file=err)
        return False
    return True


def _run(argv, out, err):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    # argparse ignores a failed write of its own, so its help and usage
    # messages are collected here and written like the report
    help_out, help_err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(help_out), redirect_stderr(help_err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        written = (_write(help_out.getvalue(), out, err, "the help")
                   and _write(help_err.getvalue(), err, err, "the usage message"))
        return 0 if written and exc.code in (0, None) else 1
    row, budget = args.row, args.oracle_budget
    try:
        if budget is not None and budget < 0:
            raise ValueError(f"--oracle-budget must be at least 0, got {budget}")
        parse = globals()[row.parse]
        query = row.query(args, *(parse(getattr(args, name)) for name in row.args))
        report = CountReport(query.shape, query.count, query.trace)
        if args.check:
            from . import oracle  # loaded by the first --check, not by import latticecount.cli
            if budget is None:
                budget = oracle.DEFAULT_CELL_BUDGET
            brute = query.oracle(oracle, budget)
            report = report._replace(oracle=brute)
    except (ValueError, OSError) as exc:
        _write(f"error: {exc}", err, err, "the error message", end="\n")
        return 1
    text = dumps_canonical(report.to_dict()) if args.json else render_text(report)
    if not _write(text, out, err, "the report", end="\n"):
        return 1
    return 2 if report.agreed is False else 0


def main():
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # keep the interpreter's flush at exit from failing on it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
