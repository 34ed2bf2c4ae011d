"""Seeded request generators for the four benchmark workloads.

Each workload is a fixed-size pool of CLI requests that the closed loop
cycles through.  A request carries the argv handed to
``latticecount.cli.run`` and a reference spec: a JSON-ready description
of the counted shape that ``reference.py`` evaluates without using the
closed forms.

The seed picks every concrete input (rationals, generators, bounds,
flags).  The size of each request (triangle span, polygon vertex count,
tetrahedron bound) follows a rotated golden-ratio sequence, so every pool
and every prefix of it holds the same spread of sizes whatever the seed.
That keeps medians and tails comparable between seeds.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from pathlib import Path

GOLDEN = (math.sqrt(5) - 1) / 2

# One to four passes over the pool in a 22 s run at the seed commit, so
# that a run's tail is not set by a handful of requests; references for
# the whole pool take a few seconds.
POOL_SIZES = {
    "triangles_large": 384,
    "polygons_dense": 96,
    "semigroup_slices": 512,
    "cli_small": 1024,
}

# Known defect: argparse reads a negative rational such as -6/5 as an
# option, so this README invocation exits 1 instead of counting 9 points.
KNOWN_DEFECT_RECT = "negative rational read as an option (README rect)"

README_SHAPE = "0 0\n4 1\n1 3\n"


@dataclass(frozen=True)
class Request:
    argv: tuple
    ref: tuple
    known_defect: str | None = None


def _sizes(rng, n):
    """n stratified values in [0, 1): a golden-ratio sequence with a
    seeded rotation."""
    shift = rng.random()
    return [(shift + i * GOLDEN) % 1.0 for i in range(n)]


def _text(x):
    return str(Fraction(x))


def _near(rng, value, max_den=16):
    q = rng.randint(1, max_den)
    return Fraction(round(value * q), q)


def _spec_points(points):
    return [[_text(x), _text(y)] for x, y in points]


def cross(o, a, b):
    """Twice the signed area of the triangle o, a, b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def box_cells(points):
    """Lattice points in the bounding box of the points."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(0, floor(max(xs)) - ceil(min(xs)) + 1)
            * max(0, floor(max(ys)) - ceil(min(ys)) + 1))


# ---------------------------------------------------------------------------
# triangles_large: tri / rtri near +-1e5, denominators <= 16
# ---------------------------------------------------------------------------

# One cycle of request types; every prefix of the pool stays balanced.
_TRIANGLE_CYCLE = (
    "rtri", "one_corner", "rtri_exclude", "two_opposite", "rtri",
    "two_adjacent", "stable_right", "rtri_exclude", "one_corner", "degenerate",
)
_EXCLUDE_CHOICES = ("hyp", "legx", "legy", "hyp,legx", "hyp,legy", "legx,legy",
                    "hyp,legx,legy")
_EXCLUDE_PARTS = {"hyp": 0, "legx": 1, "legy": 2}


def _exclude(rng, a, b, c):
    """A seeded --exclude choice for the right triangle a, b, c (right angle
    at a, b above or below it, c beside it): the flags and the excluded
    segments as reference specs."""
    choice = rng.choice(_EXCLUDE_CHOICES)
    segments = ((b, c), (a, c), (a, b))  # hyp, legx, legy
    excluded = [_spec_points(segments[_EXCLUDE_PARTS[p]]) for p in choice.split(",")]
    return ["--exclude", choice], excluded


def _box(rng, span):
    """A rational box with sides of about `span`, centred near (+-1e5, +-1e5)."""
    while True:
        cx = rng.choice((-1, 1)) * 1e5 + rng.uniform(-5e3, 5e3)
        cy = rng.choice((-1, 1)) * 1e5 + rng.uniform(-5e3, 5e3)
        w = span * rng.uniform(0.6, 1.0)
        h = span * rng.uniform(0.6, 1.0)
        x0, x1 = _near(rng, cx - w / 2), _near(rng, cx + w / 2)
        y0, y1 = _near(rng, cy - h / 2), _near(rng, cy + h / 2)
        if x1 - x0 > 2 and y1 - y0 > 2:
            return x0, x1, y0, y1


def _inside(rng, lo, hi):
    """A rational strictly between lo and hi (which differ by more than 2)."""
    while True:
        v = _near(rng, rng.uniform(float(lo), float(hi)))
        if lo < v < hi:
            return v


def _reflect(rng, points):
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    return [(sx * x, sy * y) for x, y in points]


def _general_triangle(rng, case, span):
    x0, x1, y0, y1 = _box(rng, span)
    if case == "stable_right":
        pts = [(x0, y0), (x1, y0), (x0, y1)]
    elif case == "two_adjacent":
        pts = [(x0, y0), (x0, y1), (x1, _inside(rng, y0, y1))]
        if rng.random() < 0.5:  # horizontal shared edge instead
            pts = [(y, x) for x, y in pts]
    elif case == "two_opposite":
        while True:
            mid = (_inside(rng, x0, x1), _inside(rng, y0, y1))
            # off the diagonal through (x0, y0) and (x1, y1)
            if (x1 - x0) * (mid[1] - y0) != (y1 - y0) * (mid[0] - x0):
                break
        pts = [(x0, y0), mid, (x1, y1)]
    elif case == "one_corner":
        pts = [(x0, y0), (x1, _inside(rng, y0, y1)), (_inside(rng, x0, x1), y1)]
    else:  # degenerate: three collinear points, denominators still <= 16
        ax, ay = round(float(x0)), round(float(y0))
        dx, dy = round(float(x1 - x0)), round(float(y1 - y0))
        t = Fraction(rng.randint(1, 15), 16)
        pts = [(ax, ay), (ax + dx, ay + dy), (ax + t * dx, ay + t * dy)]
    pts = _reflect(rng, pts)
    rng.shuffle(pts)
    return [(Fraction(x), Fraction(y)) for x, y in pts]


def _right_triangle(rng, span):
    x0, x1, y0, y1 = _box(rng, span)
    (ax, ay), (bx, by), (cx, cy) = _reflect(rng, [(x0, y0), (x0, y1), (x1, y0)])
    return (ax, ay), (bx, by), (cx, cy)


def _triangles_large(rng, n, workdir):
    out = []
    for i, u in enumerate(_sizes(rng, n)):
        kind = _TRIANGLE_CYCLE[i % len(_TRIANGLE_CYCLE)]
        # the kernel's tail grows with span times the cleared denominators
        span = 5e4 * 4 ** u
        flags = ["--json"] if rng.random() < 0.3 else []
        if rng.random() < 0.2:
            flags.append("--trace")
        if kind.startswith("rtri"):
            a, b, c = _right_triangle(rng, span)
            excluded = []
            if kind == "rtri_exclude":
                more, excluded = _exclude(rng, a, b, c)
                flags += more
            coords = [a[0], a[1], b[0], b[1], c[0], c[1]]
            argv = ["rtri", *flags, "--", *map(_text, coords)]
            ref = ("points", _spec_points([a, b, c]), excluded)
        else:
            pts = _general_triangle(rng, kind, span)
            coords = [v for p in pts for v in p]
            argv = ["tri", *flags, "--", *map(_text, coords)]
            ref = ("points", _spec_points(pts), [])
        out.append(Request(tuple(argv), ref))
    return out


# ---------------------------------------------------------------------------
# polygons_dense: 30-80 vertex star polygons, span ~1e3
# ---------------------------------------------------------------------------


def _star_polygon(rng, n, radius, dens=(1, 16)):
    """A simple polygon that is star-shaped around an integral centre: one
    vertex per angular sector, vertex i with denominators up to
    dens[i % len(dens)]."""
    cx = rng.randint(-2000, 2000)
    cy = rng.randint(-2000, 2000)
    centre = (Fraction(cx), Fraction(cy))
    while True:
        pts = []
        for i in range(n):
            theta = 2 * math.pi * (i + rng.uniform(0.15, 0.85)) / n
            r = radius * rng.uniform(0.6, 1.0)
            den = dens[i % len(dens)]
            pts.append((_near(rng, cx + r * math.cos(theta), den),
                        _near(rng, cy + r * math.sin(theta), den)))
        # strictly increasing angle around the centre keeps the polygon simple
        if all(cross(centre, pts[i - 1], pts[i]) > 0 for i in range(n)):
            return pts


def _polygons_dense(rng, n, workdir):
    out = []
    for i, u in enumerate(_sizes(rng, n)):
        verts = 30 + int(51 * u)
        pts = _star_polygon(rng, verts, 500)
        path = Path(workdir) / f"poly-{i:03d}.txt"
        lines = [f"# star polygon, {verts} vertices"]
        lines += [f"{_text(x)} {_text(y)}" for x, y in pts]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        flags = ["--json"] if i % 3 == 1 else []
        out.append(Request(("poly", *flags, str(path)), ("points", _spec_points(pts), [])))
    return out


# ---------------------------------------------------------------------------
# semigroup_slices: tetra / denumerant3 / denumerant / semigroup --upto
# ---------------------------------------------------------------------------

_SEMIGROUP_CYCLE = (
    "tetra", "denumerant3", "tetra_trace", "denumerant", "tetra",
    "upto", "denumerant3", "tetra", "denumerant3", "tetra_trace",
)


# Generator triples (a, b, top): top sets the number of tetrahedron slices
# and min(a, b) the length of each slice's kernel tail, so the triples are
# fixed and a seed only reorders them.
_TRIPLES = ((5, 7, 12), (4, 9, 13), (6, 11, 14), (7, 8, 15),
            (3, 10, 16), (9, 11, 17), (5, 13, 18), (7, 12, 19))


def _coprime_pair(rng):
    while True:
        a, b = rng.randint(2, 20), rng.randint(2, 20)
        if a != b and gcd(a, b) == 1:
            return a, b


def _semigroup_slices(rng, n, workdir):
    shift = rng.randrange(len(_TRIPLES))
    triples = [list(_TRIPLES[(k + shift) % len(_TRIPLES)]) for k in range(len(_TRIPLES))]
    # a few pairs per pool, so that the reference tables are shared
    pairs = [list(_coprime_pair(rng)) for _ in range(8)]
    out = []
    for i, u in enumerate(_sizes(rng, n)):
        kind = _SEMIGROUP_CYCLE[i % len(_SEMIGROUP_CYCLE)]
        bound = int(1e5 * 10 ** u) + rng.randint(0, 999)
        gens = triples[i % len(triples)]
        if kind.startswith("tetra"):
            flags = ["--trace", "--json"] if kind == "tetra_trace" else []
            argv = ["tetra", *flags, "--", *map(str, gens), str(bound)]
            ref = ("tetra", gens, bound)
        elif kind == "denumerant3":
            argv = ["denumerant3", "--", *map(str, gens), str(bound)]
            ref = ("denumerant", gens, bound)
        elif kind == "denumerant":
            a, b = rng.choice(pairs)
            flags = ["--json"] if rng.random() < 0.5 else []
            argv = ["denumerant", *flags, "--", str(a), str(b), str(bound)]
            ref = ("denumerant", [a, b], bound)
        else:
            a, b = rng.choice(pairs)
            argv = ["semigroup", "--upto", str(bound), "--", str(a), str(b)]
            ref = ("upto", [a, b], bound)
        out.append(Request(tuple(argv), ref))
    return out


# ---------------------------------------------------------------------------
# cli_small: the README invocations plus small variants of every subcommand
# ---------------------------------------------------------------------------


def _readme_requests(shape_path):
    tri = [["0", "0"], ["4", "1"], ["1", "3"]]
    return [
        Request(("thr", "3", "7", "46", "--trace"), ("quadrant", [3, 7], 46)),
        Request(("rect", "1/2", "-6/5", "7/2", "1"),
                ("points", [["1/2", "-6/5"], ["7/2", "-6/5"], ["7/2", "1"], ["1/2", "1"]], []),
                KNOWN_DEFECT_RECT),
        Request(("rtri", "0", "0", "0", "7/4", "7/2", "0"),
                ("points", [["0", "0"], ["0", "7/4"], ["7/2", "0"]], [])),
        Request(("rtri", "0", "0", "0", "46/7", "46/3", "0", "--exclude", "hyp,legx,legy"),
                ("points", [["0", "0"], ["0", "46/7"], ["46/3", "0"]],
                 [[["0", "46/7"], ["46/3", "0"]], [["0", "0"], ["46/3", "0"]],
                  [["0", "0"], ["0", "46/7"]]])),
        Request(("tri", "0", "0", "4", "1", "1", "3", "--trace"), ("points", tri, [])),
        Request(("poly", shape_path, "--check"), ("points", tri, [])),
        Request(("tetra", "6", "10", "15", "21", "--check"), ("tetra", [6, 10, 15], 21)),
        Request(("denumerant", "3", "7", "46"), ("denumerant", [3, 7], 46)),
        Request(("denumerant3", "3", "5", "7", "10"), ("denumerant", [3, 5, 7], 10)),
        Request(("semigroup", "3", "7", "--gaps"), ("genus", [3, 7], 0)),
        Request(("pick", shape_path), ("points", tri, [])),
    ]


def _small_rational(rng, lo, hi):
    """A rational in [lo, hi] with denominator at most 4."""
    q = rng.randint(1, 4)
    return Fraction(rng.randint(lo * q, hi * q), q)


_SMALL_KINDS = ("thr", "rect", "rtri", "tri", "poly", "pick", "tetra", "denumerant",
                "denumerant3", "semigroup")


def _small_variant(rng, i, workdir):
    # subcommands in turn, so that every seed's pool has the same mix
    kind = _SMALL_KINDS[i % len(_SMALL_KINDS)]
    flags = [f for f in ("--json", "--trace", "--check") if rng.random() < 0.3]
    if kind == "thr":
        a, b = _coprime_pair(rng)
        c = rng.randint(0, 60)
        return Request(("thr", *flags, str(a), str(b), str(c)), ("quadrant", [a, b], c))
    if kind == "rect":
        x0, y0 = _small_rational(rng, -3, 2), _small_rational(rng, -3, 2)
        x1 = x0 + _small_rational(rng, 1, 4)
        y1 = y0 + _small_rational(rng, 1, 4)
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        return Request(("rect", *flags, "--", *map(_text, (x0, y0, x1, y1))),
                       ("points", _spec_points(corners), []))
    if kind in ("rtri", "tri"):
        if kind == "rtri":
            x0, y0 = _small_rational(rng, -3, 3), _small_rational(rng, -3, 3)
            dx = _small_rational(rng, 1, 4) * rng.choice((-1, 1))
            dy = _small_rational(rng, 1, 4) * rng.choice((-1, 1))
            a, b, c = (x0, y0), (x0, y0 + dy), (x0 + dx, y0)
            excluded = []
            if rng.random() < 0.4:
                more, excluded = _exclude(rng, a, b, c)
                flags += more
            coords = [a[0], a[1], b[0], b[1], c[0], c[1]]
            return Request(("rtri", *flags, "--", *map(_text, coords)),
                           ("points", _spec_points([a, b, c]), excluded))
        while True:
            pts = [(_small_rational(rng, -3, 3), _small_rational(rng, -3, 3))
                   for _ in range(3)]
            if len(set(pts)) == 3:
                break
        coords = [v for p in pts for v in p]
        return Request(("tri", *flags, "--", *map(_text, coords)),
                       ("points", _spec_points(pts), []))
    if kind in ("poly", "pick"):
        pts = _star_polygon(rng, rng.randint(3, 6), 3, dens=(1,))
        path = Path(workdir) / f"small-{i:03d}.txt"
        path.write_text("".join(f"{_text(x)} {_text(y)}\n" for x, y in pts), encoding="utf-8")
        return Request((kind, *flags, str(path)), ("points", _spec_points(pts), []))
    if kind == "tetra":
        gens = [rng.randint(1, 9) for _ in range(3)]
        b = rng.randint(0, 24)
        return Request(("tetra", *flags, *map(str, gens), str(b)), ("tetra", gens, b))
    if kind == "denumerant":
        a, b = _coprime_pair(rng)
        c = rng.randint(0, 200)
        return Request(("denumerant", *flags, str(a), str(b), str(c)), ("denumerant", [a, b], c))
    if kind == "denumerant3":
        gens = [rng.randint(1, 9) for _ in range(3)]
        n = rng.randint(0, 30)
        return Request(("denumerant3", *flags, *map(str, gens), str(n)),
                       ("denumerant", gens, n))
    a, b = _coprime_pair(rng)
    query = rng.choice(("", "gaps", "apery", "contains", "upto"))
    if query == "gaps":
        return Request(("semigroup", *flags, "--gaps", str(a), str(b)), ("genus", [a, b], 0))
    if query == "apery":
        s = rng.choice((a, b))
        return Request(("semigroup", *flags, "--apery", str(s), str(a), str(b)),
                       ("apery_sum", [a, b], s))
    if query == "contains":
        m = rng.randint(0, a * b)
        return Request(("semigroup", *flags, "--contains", str(m), str(a), str(b)),
                       ("contains", [a, b], m))
    if query == "upto":
        c = rng.randint(0, 3 * a * b)
        return Request(("semigroup", *flags, "--upto", str(c), str(a), str(b)),
                       ("upto", [a, b], c))
    return Request(("semigroup", *flags, str(a), str(b)), ("genus", [a, b], 0))


def _cli_small(rng, n, workdir):
    shape = Path(workdir) / "shape.txt"
    shape.write_text(README_SHAPE, encoding="utf-8")
    readme = _readme_requests(str(shape))
    variants = [_small_variant(rng, i, workdir) for i in range(n - len(readme))]
    # spread the README requests through the pool
    step = len(variants) // len(readme)
    out = list(variants)
    for k, req in enumerate(readme):
        out.insert(k * (step + 1), req)
    return out


GENERATORS = {
    "triangles_large": _triangles_large,
    "polygons_dense": _polygons_dense,
    "semigroup_slices": _semigroup_slices,
    "cli_small": _cli_small,
}

WORKLOADS = tuple(GENERATORS)


def generate(workload, seed, workdir):
    """The request pool of a workload; polygon files go to `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    Path(workdir).mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](rng, POOL_SIZES[workload], workdir)
