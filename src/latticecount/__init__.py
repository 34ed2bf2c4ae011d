"""Exact lattice-point counting for rational triangles, simple polygons and
stable right tetrahedra, built on two-generator numerical semigroups.

All arithmetic is exact (unbounded ints and fractions); every counter has
an independent brute-force twin in latticecount.oracle.
"""

from .rationals import egcd, format_rational, parse_rational
from .semigroup import TwoGenSemigroup, denumerant2
from .triangles import (
    HYPOTENUSE,
    LEG_X,
    LEG_Y,
    BlockTrace,
    LineEq,
    Segment,
    StableRightTriangle,
    point_on_segment,
    quadrant_blocks,
    quadrant_count,
    quadrant_count_floor_form,
    rect_count,
    segment_count,
    segment_intersection,
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
    triangulate,
)
from .tetra import denumerant3, tetra_count, tetra_slice_counts
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "egcd",
    "parse_rational",
    "format_rational",
    "TwoGenSemigroup",
    "denumerant2",
    "LineEq",
    "Segment",
    "BlockTrace",
    "StableRightTriangle",
    "HYPOTENUSE",
    "LEG_X",
    "LEG_Y",
    "quadrant_count",
    "quadrant_count_floor_form",
    "quadrant_blocks",
    "rect_count",
    "segment_count",
    "segment_intersection",
    "point_on_segment",
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
    "triangulate",
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
