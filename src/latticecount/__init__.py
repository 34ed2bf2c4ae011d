"""Exact lattice-point counting for rational triangles, simple polygons and
stable right tetrahedra, built on two-generator numerical semigroups.

All arithmetic is exact: every count runs on unbounded ints, on the
rational input points scaled to integers.  Every shape is scaled once, at
construction, and holds its integer points; its Fraction vertices are
built only when read.  Every count the CLI reports has an independent
brute-force twin in latticecount.oracle, the one --check runs.

import latticecount loads no submodule.  Each public name, and each
submodule, is imported when it is first read, by attribute, by
from-import or by a star import, and is then a plain attribute of the
package: latticecount.X is latticecount.<submodule>.X.
"""

import importlib

__version__ = "0.1.0"

# each public name of a submodule -> that submodule, in __all__'s order
_HOME = {
    "parse_rational": "rationals",
    "format_rational": "rationals",
    "TwoGenSemigroup": "semigroup",
    "denumerant2": "semigroup",
    "Segment": "triangles",
    "BlockTrace": "kernel",
    "StableRightTriangle": "triangles",
    "HYPOTENUSE": "triangles",
    "LEG_X": "triangles",
    "LEG_Y": "triangles",
    "floor_sum": "kernel",
    "quadrant_count": "kernel",
    "quadrant_blocks": "kernel",
    "rect_count": "triangles",
    "segment_count": "triangles",
    "stable_right_count": "triangles",
    "Triangle": "polygons",
    "Polygon": "polygons",
    "PickAudit": "polygons",
    "triangle_count": "polygons",
    "polygon_count": "polygons",
    "pick_audit": "polygons",
    "polygon_from_text": "polygons",
    "signed_area2": "polygons",
    "tetra_count": "tetra",
    "tetra_slice_counts": "tetra",
    "denumerant3": "tetra",
}

_SUBMODULES = frozenset((*_HOME.values(), "cli", "oracle"))

__all__ = [*_HOME, "oracle", "__version__"]


def __getattr__(name):
    """A public name or a submodule, imported on its first read and kept
    as a module global, so that later reads do not come here."""
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
