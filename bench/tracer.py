"""Span tracer for the benchmark's traced run.

The tracer wraps each public entry point of the package under the name
its caller looks it up by (a module global such as
``latticecount.tetra.quadrant_count``, or a class attribute such as
``Polygon.__post_init__``) and restores the originals on exit.  Nothing
under ``src/`` changes.

Every wrapped call records a span (id, parent id, layer, entry time,
call start, call end, exit time) in memory.  A layer's self time is a
span's own duration minus the full extent of its child spans, so the
bookkeeping a wrapper does between entry and exit counts for no layer.
Counters are taken from each call's arguments and result, outside the
span's own duration.

Calls into the validation predicates from ``Polygon`` construction are not
wrapped: they are the work of the validation layer.
"""

import argparse
import itertools
import time

import latticecount.cli as cli
import latticecount.oracle as oracle
import latticecount.polygons as polygons
import latticecount.semigroup as semigroup
import latticecount.tetra as tetra
import latticecount.triangles as triangles

from workloads import box_cells

clock = time.perf_counter_ns

ROOT_LAYER = "request"

# layer -> per-layer metric holding its self time
LAYER_METRICS = {
    "cli.parser_build": "cli.parser_build_ms",
    "cli.parse": "cli.parse_ms",
    "cli.serialize": "cli.serialize_ms",
    ROOT_LAYER: "cli.other_ms",
    "polygons.validate": "polygons.validate_ms",
    "polygons.triangulate": "polygons.triangulate_ms",
    "polygons.dispatch": "polygons.dispatch_ms",
    "triangles.stable_right": "triangles.stable_right_ms",
    "triangles.reduce": "triangles.reduce_ms",
    "triangles.boundary": "triangles.boundary_ms",
    "triangles.kernel": "triangles.kernel_ms",
    "tetra.slice": "tetra.slice_ms",
    "semigroup": "semigroup.ms",
    "oracle": "oracle.ms",
}

# per-request counters; end() adds one polygons.case.<case> count per case
COUNTERS = (
    "polygons.triangles",
    "triangles.kernel_calls",
    "triangles.kernel_tail_terms",
    "triangles.kernel_max_bits",
    "tetra.slices",
    "semigroup.calls",
    "oracle.cells",
)


def _kernel(counts, args, result):
    a, b, c = args[:3]
    counts["triangles.kernel_calls"] += 1
    if c >= 0:
        counts["triangles.kernel_tail_terms"] += (c % (a * b)) // max(a, b) + 1
    bits = max(a.bit_length(), b.bit_length(), c.bit_length())
    counts["triangles.kernel_max_bits"] = max(counts["triangles.kernel_max_bits"], bits)


def _slices(counts, args, result):
    counts["tetra.slices"] += len(result)


def _semigroup(counts, args, result):
    counts["semigroup.calls"] += 1


def _triangulated(counts, args, result):
    counts["polygons.triangles"] += len(result)


def _triangle_seen(counts, args, result):
    counts["triangle_inputs"].append(args[0])


def _upto(n):
    """Cells in 0..n."""
    return n + 1 if n >= 0 else 0


# bounding-box cells each oracle entry point enumerates, from its arguments
_ORACLE_CELLS = {
    "brute_halfplane_quadrant": lambda a, b, c, *_: _upto(c // a) * _upto(c // b),
    "brute_rect": lambda lo, hi, *_: box_cells([lo, hi]),
    "brute_triangle": lambda t, *_: box_cells(t.vertices),
    "brute_polygon": lambda p, *_: box_cells(p.vertices),
    "brute_tetra": lambda a1, a2, a3, b, *_: _upto(b // a1) * _upto(b // a2) * _upto(b // a3),
    "brute_denumerant2": lambda a, b, c: _upto(c // a),
    "brute_denumerant3": lambda a1, a2, a3, n: _upto(n // a1) * _upto(n // a2),
    "brute_gaps": lambda a, b: a * b + 1,
    "brute_contains": lambda a, b, n, *_: _upto(n),
    "brute_count_upto": lambda a, b, c, *_: _upto(c),
    "brute_apery": lambda a, b, s: a * b + s + 1,
}


def _oracle_counter(name):
    cells = _ORACLE_CELLS[name]

    def count(counts, args, result):
        counts["oracle.cells"] += cells(*args)

    return count


def targets():
    """(owner, attribute, layer, counter) for every traced entry point."""
    out = [
        (cli, "build_parser", "cli.parser_build", None),
        (argparse.ArgumentParser, "parse_args", "cli.parse", None),
        (cli, "parse_rational", "cli.parse", None),
        (cli, "parse_int", "cli.parse", None),
        (cli, "polygon_from_text", "cli.parse", None),
        (cli.CountReport, "to_dict", "cli.serialize", None),
        (cli, "dumps_canonical", "cli.serialize", None),
        (cli, "render_text", "cli.serialize", None),
        (polygons.Polygon, "__post_init__", "polygons.validate", None),
        (cli, "triangulate", "polygons.triangulate", _triangulated),
        (polygons, "triangulate", "polygons.triangulate", _triangulated),
        (cli, "triangle_count", "polygons.dispatch", _triangle_seen),
        (polygons, "triangle_count", "polygons.dispatch", _triangle_seen),
        (cli, "triangle_case", "polygons.dispatch", None),
        (cli, "polygon_count", "polygons.dispatch", None),
        (polygons, "polygon_count", "polygons.dispatch", None),
        (cli, "pick_audit", "polygons.dispatch", None),
        (cli, "stable_right_count", "triangles.stable_right", None),
        (polygons, "stable_right_count", "triangles.stable_right", None),
        (cli, "stable_right_reduction", "triangles.reduce", None),
        (triangles, "stable_right_reduction", "triangles.reduce", None),
        (polygons, "segment_count", "triangles.boundary", None),
        (triangles, "segment_count", "triangles.boundary", None),
        (triangles, "segment_intersection", "triangles.boundary", None),
        (cli, "quadrant_count", "triangles.kernel", _kernel),
        (cli, "quadrant_blocks", "triangles.kernel", _kernel),
        (triangles, "quadrant_count", "triangles.kernel", _kernel),
        (tetra, "quadrant_count", "triangles.kernel", _kernel),
        (cli, "tetra_count", "tetra.slice", None),
        (cli, "tetra_slice_counts", "tetra.slice", _slices),
        (cli, "denumerant3", "tetra.slice", None),
        (tetra, "tetra_count", "tetra.slice", None),
        (tetra, "tetra_slice_counts", "tetra.slice", _slices),
    ]
    for name in ("__post_init__", "apery", "contains", "gaps", "count_upto", "denumerant"):
        out.append((semigroup.TwoGenSemigroup, name, "semigroup", _semigroup))
    for name in _ORACLE_CELLS:
        out.append((oracle, name, "oracle", _oracle_counter(name)))
    return out


def self_times(spans):
    """Self nanoseconds per layer: each span's duration minus the extent of
    its children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for span_id, parent, _, t_in, _, _, t_out in spans:
        if parent in own:
            own[parent] -= t_out - t_in
    totals = dict.fromkeys(LAYER_METRICS, 0)
    for span_id, _, layer, *_ in spans:
        totals[layer] += own[span_id]
    return totals


class Tracer:
    """Installs the span wrappers for the duration of a `with` block and
    collects the spans and counters of one request at a time."""

    def __init__(self, keep_spans):
        self.keep_spans = keep_spans
        self.kept = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._stack = []
        self._spans = []
        self._counts = None
        self._saved = []
        self.absent = []

    def _wrap(self, fn, layer, counter):
        ids, stack, tracer = self._ids, self._stack, self

        def wrapper(*args, **kwargs):
            t_in = clock()
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                if done and counter is not None:
                    counter(tracer._counts, args, result)
                tracer._spans.append((span_id, parent, layer, t_in, t0, t1, clock()))

        return wrapper

    def __enter__(self):
        self.absent = []
        for owner, name, layer, counter in targets():
            original = owner.__dict__.get(name)
            if original is None:  # renamed or removed since this list was made
                self.absent.append(f"{owner.__name__}.{name}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, counter))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def begin(self):
        """Start a request; returns its root span id."""
        root = next(self._ids)
        self._stack[:] = [root]
        self._spans = []
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._counts["triangle_inputs"] = []
        return root

    def end(self, root, t0, t1, request_index):
        """Close the request whose run() call took [t0, t1] (clock ns);
        returns (self ns per layer, counters)."""
        spans = self._spans
        spans.append((root, 0, ROOT_LAYER, t0, t0, t1, t1))
        room = self.keep_spans - len(self.kept)
        self.kept.extend((s[0], s[1], s[2], request_index, *s[3:]) for s in spans[:room])
        self.dropped += max(0, len(spans) - room)
        counts = self._counts
        cases = dict.fromkeys(polygons.TRIANGLE_CASES, 0)
        for tri in counts.pop("triangle_inputs"):
            cases[polygons.triangle_case(tri)] += 1
        for case, n in cases.items():
            counts[f"polygons.case.{case}"] = n
        self._spans = []
        return self_times(spans), counts
