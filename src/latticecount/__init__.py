"""Exact lattice-point counting for rational triangles, simple polygons and
stable right tetrahedra, built on two-generator numerical semigroups.

All arithmetic is exact: every count runs on unbounded ints, on the
rational input points scaled to integers.  Every shape is scaled once, at
construction, and holds its integer points; its Fraction vertices are
built only when read.  Every counter has an independent brute-force twin
in latticecount.oracle, which is imported when it is first read, not
with the package.
"""

import importlib

from .kernel import BlockTrace, floor_sum, quadrant_blocks, quadrant_count
from .rationals import format_rational, parse_rational
from .semigroup import TwoGenSemigroup, denumerant2
from .triangles import (
    HYPOTENUSE,
    LEG_X,
    LEG_Y,
    Segment,
    StableRightTriangle,
    rect_count,
    segment_count,
    stable_right_count,
    stable_right_reduction,
)
from .polygons import (
    CASE_DEGENERATE,
    CASE_ONE_CORNER,
    CASE_STABLE,
    CASE_TWO_ADJACENT,
    CASE_TWO_OPPOSITE,
    TRIANGLE_CASES,
    PickAudit,
    Polygon,
    Triangle,
    pick_audit,
    polygon_count,
    polygon_from_text,
    signed_area2,
    triangle_case,
    triangle_count,
)
from .tetra import denumerant3, tetra_count, tetra_slice_counts

__version__ = "0.1.0"

__all__ = [
    "parse_rational",
    "format_rational",
    "TwoGenSemigroup",
    "denumerant2",
    "Segment",
    "BlockTrace",
    "StableRightTriangle",
    "HYPOTENUSE",
    "LEG_X",
    "LEG_Y",
    "floor_sum",
    "quadrant_count",
    "quadrant_blocks",
    "rect_count",
    "segment_count",
    "stable_right_count",
    "stable_right_reduction",
    "Triangle",
    "Polygon",
    "PickAudit",
    "TRIANGLE_CASES",
    "CASE_DEGENERATE",
    "CASE_STABLE",
    "CASE_TWO_ADJACENT",
    "CASE_TWO_OPPOSITE",
    "CASE_ONE_CORNER",
    "triangle_case",
    "triangle_count",
    "polygon_count",
    "pick_audit",
    "polygon_from_text",
    "signed_area2",
    "tetra_count",
    "tetra_slice_counts",
    "denumerant3",
    "oracle",
    "__version__",
]


def __getattr__(name):
    """latticecount.oracle, imported on first use: only --check runs it, so
    import latticecount.cli does not compile it."""
    if name == "oracle":
        return importlib.import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
