"""Axis-aligned box arithmetic and the IoU metric."""

from __future__ import annotations

import sys
from math import isfinite

from ._record import Record
from .errors import ContractError

# Smallest positive normal float. A union area below it has underflowed to
# zero or to a subnormal with too few significant bits to divide by.
MIN_NORMAL = sys.float_info.min


class Box(Record):
    """Axis-aligned rectangle in continuous pixel coordinates.

    (x1, y1) is the top-left corner, (x2, y2) the bottom-right corner.
    Coordinates must be finite and ordered (x1 <= x2, y1 <= y2).
    """

    __slots__ = ("x1", "y1", "x2", "y2")
    x1: float
    y1: float
    x2: float
    y2: float

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        if not (isfinite(x1) and isfinite(y1) and isfinite(x2) and isfinite(y2)):
            raise ContractError(f"box coordinates must be finite: {self._format(x1, y1, x2, y2)}")
        if x2 < x1 or y2 < y1:
            raise ContractError(f"box corners out of order: {self._format(x1, y1, x2, y2)}")
        _set_x1(self, x1)
        _set_y1(self, y1)
        _set_x2(self, x2)
        _set_y2(self, y2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


# slot setters for __init__, since Record.__setattr__ refuses assignment
_set_x1, _set_y1, _set_x2, _set_y2 = (getattr(Box, n).__set__ for n in Box.__slots__)


def check_iou_threshold(iou_threshold: float) -> None:
    """Reject an IoU threshold outside the open interval (0, 1), NaN included."""
    if not 0.0 < iou_threshold < 1.0:
        raise ContractError(f"iou_threshold must be in (0, 1), got {iou_threshold}")


def area(b: Box) -> float:
    """Box area in pixels squared; zero for degenerate boxes."""
    return (b.x2 - b.x1) * (b.y2 - b.y1)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes.

    Boxes sharing only an edge intersect with area 0. When the union area
    underflows (tiny boxes), IoU is recomputed with the x extents divided by
    the larger width and the y extents by the larger height, which leaves it
    unchanged. When both boxes are degenerate (union area 0 in any frame)
    the result is defined as 0 so downstream sorting stays total.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = iw * ih if (iw > 0 and ih > 0) else 0.0
    union = area(a) + area(b) - inter
    if union < MIN_NORMAL:
        return _iou_rescaled(a, b, iw, ih)
    return inter / union


def _iou_rescaled(a: Box, b: Box, iw: float, ih: float) -> float:
    """IoU in a frame where the larger width and the larger height are 1."""
    aw, bw = a.x2 - a.x1, b.x2 - b.x1
    ah, bh = a.y2 - a.y1, b.y2 - b.y1
    sx, sy = max(aw, bw), max(ah, bh)
    if sx == 0 or sy == 0:
        return 0.0
    inter = (iw / sx) * (ih / sy) if (iw > 0 and ih > 0) else 0.0
    union = (aw / sx) * (ah / sy) + (bw / sx) * (bh / sy) - inter
    return inter / union if union > 0 else 0.0
