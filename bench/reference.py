"""Reference counts for benchmark requests, computed without the closed forms.

Run as a child process: reads a JSON list of reference specs on stdin and
writes the JSON list of their counts (as strings) on stdout.  It runs
before the timed loop, in its own process, so that nothing it imports or
allocates shows in the measured process.

Specs whose enumeration fits ORACLE_CELLS go to the package's brute-force
oracle.  Larger ones use this file's own counters, which share no code
with the closed forms: exact integer column scans for plane regions
(vectorised with numpy for triangles, whose spans reach 2e5 columns) and
coin-counting tables for the semigroup and tetrahedron counts.
"""

import json
import sys
from collections import namedtuple
from fractions import Fraction
from math import ceil, floor, lcm
from pathlib import Path

import numpy as np

from workloads import box_cells, cross

ORACLE_CELLS = 2_000

_Shape = namedtuple("_Shape", "vertices")
_Seg = namedtuple("_Seg", "p q")


def _point(p):
    return (Fraction(p[0]), Fraction(p[1]))


# ---------------------------------------------------------------------------
# plane regions: integer column scan
# ---------------------------------------------------------------------------


def _scaled(points):
    """Integer coordinates over the common denominator, and that denominator."""
    den = lcm(*(c.denominator for p in points for c in p))
    return den, [(int(x * den), int(y * den)) for x, y in points]


def _row_at(a, b, sx, den):
    """Where the non-vertical edge a-b (scaled) meets the scaled column sx:
    the row num / d in lattice units, with d > 0."""
    (ax, ay), (bx, by) = a, b
    num, dx = ay * (bx - ax) + (by - ay) * (sx - ax), bx - ax
    if dx < 0:
        num, dx = -num, -dx
    return num, dx * den


def _ceil_div(n, d):
    return -((-n) // d)


def _line(p, q, inside):
    """Integers (a, b, c) with a*x + b*y <= c the closed side of line p-q
    that holds the point `inside`."""
    A, B = q[1] - p[1], p[0] - q[0]
    C = A * p[0] + B * p[1]
    scale = lcm(A.denominator, B.denominator, C.denominator)
    a, b, c = int(A * scale), int(B * scale), int(C * scale)
    if a * inside[0] + b * inside[1] > c:
        a, b, c = -a, -b, -c
    return a, b, c


def _fits_int64(a, b, c, x_max):
    return (abs(a) + abs(b)) * (x_max + 1) + abs(c) < 2**62


def _shift(points):
    """Translate by an integer vector to near the origin (lattice counts
    do not change); returns the offset and the moved points."""
    ox = floor(min(p[0] for p in points))
    oy = floor(min(p[1] for p in points))
    return (ox, oy), [(x - ox, y - oy) for x, y in points]


def segment_lattice(p, q):
    """The lattice points of the closed segment p-q as an (k, 2) int64
    array, one column at a time."""
    (ox, oy), (p, q) = _shift([p, q])
    if p[0] == q[0]:
        if p[0].denominator != 1:
            return np.zeros((0, 2), dtype=np.int64)
        lo, hi = sorted((p[1], q[1]))
        ys = np.arange(ceil(lo), floor(hi) + 1, dtype=np.int64)
        return np.stack([np.full_like(ys, int(p[0]) + ox), ys + oy], axis=1)
    lo, hi = sorted((p[0], q[0]))
    a, b, c = _line(p, q, p)
    xs = np.arange(ceil(lo), floor(hi) + 1, dtype=np.int64)
    if not _fits_int64(a, b, c, floor(hi)):
        raise OverflowError("segment coordinates too large for the int64 scan")
    rest = c - a * xs
    on = rest % b == 0
    return np.stack([xs[on] + ox, rest[on] // b + oy], axis=1)


def triangle_count(vertices):
    """Lattice points in a closed nondegenerate triangle: in every integral
    column, the rows between the highest lower edge and the lowest upper
    edge (numpy, int64)."""
    _, v = _shift(vertices)
    xs = np.arange(ceil(min(p[0] for p in v)), floor(max(p[0] for p in v)) + 1,
                   dtype=np.int64)
    hi = np.full(len(xs), 2**62, dtype=np.int64)
    lo = -hi
    keep = np.ones(len(xs), dtype=bool)
    for i in range(3):
        a, b, c = _line(v[i], v[(i + 1) % 3], v[(i + 2) % 3])
        if not _fits_int64(a, b, c, int(xs[-1]) if len(xs) else 0):
            raise OverflowError("triangle coordinates too large for the int64 scan")
        if b > 0:
            hi = np.minimum(hi, (c - a * xs) // b)
        elif b < 0:
            lo = np.maximum(lo, -((c - a * xs) // -b))
        else:
            keep &= a * xs <= c
    return int(np.clip(hi - lo + 1, 0, None)[keep].sum())


def region_count(vertices):
    """Lattice points in the closed simple polygon with these vertices.

    Coordinates are scaled to integers by their common denominator.  In
    each integral column the crossings of the non-vertical edges (half-open
    in x) pair up into the open intervals inside the polygon; the lattice
    points strictly inside those intervals are added to the boundary points
    of the column that lie outside them.
    """
    den, pts = _scaled(vertices)
    n = len(pts)
    columns = {}
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        lo, hi = sorted((a[0], b[0]))
        for col in range(_ceil_div(lo, den), hi // den + 1):
            columns.setdefault(col, []).append((a, b))
    total = 0
    for col, edges in columns.items():
        sx = col * den
        crossings = []
        boundary = set()
        for a, b in edges:
            if a[0] == b[0]:
                lo, hi = sorted((a[1], b[1]))
                boundary.update(range(_ceil_div(lo, den), hi // den + 1))
                continue
            num, d = _row_at(a, b, sx, den)
            if num % d == 0:
                boundary.add(num // d)
            if (a[0] <= sx) != (b[0] <= sx):
                crossings.append((num, d))
        if len(crossings) == 2:
            (n0, d0), (n1, d1) = crossings
            if n0 * d1 > n1 * d0:
                crossings.reverse()
        else:
            crossings.sort(key=lambda c: Fraction(*c))
        inner = list(zip(crossings[::2], crossings[1::2]))
        for (nl, dl), (nh, dh) in inner:
            total += max(0, _ceil_div(nh, dh) - 1 - nl // dl)
        total += sum(1 for y in boundary
                     if not any(nl < y * dl and y * dh < nh for (nl, dl), (nh, dh) in inner))
    return total


def points_count(vertices, excluded):
    """Closed region minus the lattice points on the excluded segments.
    Collinear vertices stand for their segment hull."""
    verts = [_point(v) for v in vertices]
    if all(cross(verts[0], verts[1], v) == 0 for v in verts[2:]):
        closed = len(segment_lattice(min(verts), max(verts)))
    elif len(verts) == 3:
        closed = triangle_count(verts)
    else:
        closed = region_count(verts)
    if not excluded:
        return closed
    removed = np.concatenate([segment_lattice(_point(p), _point(q)) for p, q in excluded])
    return closed - len(np.unique(removed, axis=0))


# ---------------------------------------------------------------------------
# semigroup and tetrahedron counts: coin-counting table
# ---------------------------------------------------------------------------


def ways_table(gens, top):
    """ways[n] = number of representations n = sum x_i * gens[i], x_i >= 0,
    for n in [0, top]: one cumulative sum per residue class per generator."""
    ways = np.zeros(top + 1, dtype=np.int64)
    ways[0] = 1
    for g in gens:
        padded = np.zeros(-(-(top + 1) // g) * g, dtype=np.int64)
        padded[: top + 1] = ways
        ways = padded.reshape(-1, g).cumsum(axis=0).reshape(-1)[: top + 1]
    return ways


def _table_top(spec):
    """The largest n whose representation count the spec needs."""
    kind, gens, n = spec
    if kind == "genus":
        return gens[0] * gens[1]
    if kind == "apery_sum":
        return gens[0] * gens[1] + n
    if kind == "contains":
        return min(n, gens[0] * gens[1])
    return n


def table_count(spec, ways):
    """A semigroup or tetrahedron count from the coin-counting table of its
    generators (covering at least _table_top(spec))."""
    kind, (a, b, *_), n = spec
    if n < 0:
        return 0
    if kind in ("tetra", "quadrant"):
        return int(ways[: n + 1].sum())
    if kind == "denumerant":
        return int(ways[n])
    if kind == "upto":
        return int((ways[: n + 1] > 0).sum())
    # every integer above a*b - a - b (the Frobenius number) is reachable
    if kind == "genus":
        return int((ways[: a * b + 1] == 0).sum())
    if kind == "contains":
        return int(n > a * b or ways[n] > 0)
    if kind == "apery_sum":
        first = {}
        for m in np.flatnonzero(ways[: a * b + n + 1]).tolist():
            first.setdefault(m % n, m)
        return sum(first.values())
    raise ValueError(f"unknown reference kind {kind!r}")


def table_counts(specs):
    """table_count for (index, spec) pairs, one table per generator tuple."""
    groups = {}
    for i, spec in specs:
        groups.setdefault(tuple(spec[1]), []).append((i, spec))
    out = {}
    for gens, members in groups.items():
        ways = ways_table(gens, max(_table_top(spec) for _, spec in members))
        for i, spec in members:
            out[i] = table_count(spec, ways)
    return out


# ---------------------------------------------------------------------------
# the brute-force oracle, where it fits
# ---------------------------------------------------------------------------


def oracle_count(oracle, spec):
    """The oracle's count for a spec, or None when it does not fit."""
    kind = spec[0]
    if kind == "points":
        verts = [_point(v) for v in spec[1]]
        if box_cells(verts) > ORACLE_CELLS:
            return None
        if len(verts) == 3:
            segs = [_Seg(_point(p), _point(q)) for p, q in spec[2]]
            return oracle.brute_triangle(_Shape(tuple(verts)), exclude_segments=segs)
        if spec[2]:
            return None
        return oracle.brute_polygon(_Shape(tuple(verts)))
    gens, n = spec[1], spec[2]
    if len(gens) == 3:
        if (n // gens[0] + 1) * (n // gens[1] + 1) > ORACLE_CELLS:
            return None
        if kind == "tetra":
            return oracle.brute_tetra(*gens, n)
        return oracle.brute_denumerant3(*gens, n)
    a, b = gens
    cells = (n // a + 1) * (n // b + 1) if kind == "quadrant" else _table_top(spec)
    if cells > ORACLE_CELLS:
        return None
    if kind == "quadrant":
        return oracle.brute_halfplane_quadrant(a, b, n)
    if kind == "denumerant":
        return oracle.brute_denumerant2(a, b, n)
    if kind == "genus":
        return len(oracle.brute_gaps(a, b))
    if kind == "apery_sum":
        return sum(oracle.brute_apery(a, b, n))
    if kind == "contains":
        return 1 if oracle.brute_contains(a, b, n) else 0
    return oracle.brute_count_upto(a, b, n)


def reference_counts(specs, oracle):
    """Reference counts of the specs: the oracle where it fits, otherwise
    this file's own counters."""
    out, tables = {}, []
    for i, spec in enumerate(specs):
        count = oracle_count(oracle, spec)
        if count is not None:
            out[i] = count
        elif spec[0] == "points":
            out[i] = points_count(spec[1], spec[2])
        else:
            tables.append((i, spec))
    out.update(table_counts(tables))
    return [out[i] for i in range(len(specs))]


def main():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from latticecount import oracle

    specs = json.load(sys.stdin)
    json.dump([str(n) for n in reference_counts(specs, oracle)], sys.stdout)


if __name__ == "__main__":
    main()
