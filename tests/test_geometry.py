import math

import pytest
from hypothesis import example, given, strategies as st

from detfuse import Box, ContractError, area, iou

# positive extents whose product underflows to 0
_TINY = Box(0.0, 0.0, 1.3279261924115152e-168, 2.6408222023612193e-157)


def test_area_direct():
    assert area(Box(0, 0, 2, 2)) == 4
    assert area(Box(1.5, 0, 4.0, 2.0)) == 5.0


def test_area_degenerate():
    assert area(Box(5, 5, 5, 9)) == 0


def test_iou_identical():
    b = Box(0, 0, 10, 10)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0


def test_iou_hand_case():
    # inter = 1, union = 4 + 4 - 1 = 7
    assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-15)


def test_iou_edge_contact_is_zero():
    assert iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0


def test_iou_degenerate_pair():
    assert iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1)) == 0.0


def test_iou_underflowing_area():
    assert iou(_TINY, _TINY) == 1.0
    assert iou(_TINY, Box(0.0, 0.0, _TINY.x2, _TINY.y2 / 2)) == 0.5
    assert iou(_TINY, Box(_TINY.x2, 0.0, 2 * _TINY.x2, _TINY.y2)) == 0.0
    assert iou(Box(0.0, 0.0, 0.0, 1e-300), Box(0.0, 0.0, 0.0, 1e-300)) == 0.0


def test_box_validation():
    with pytest.raises(ContractError):
        Box(2, 0, 1, 1)
    with pytest.raises(ContractError):
        Box(0, 2, 1, 1)
    with pytest.raises(ContractError):
        Box(0, 0, math.inf, 1)
    with pytest.raises(ContractError):
        Box(math.nan, 0, 1, 1)


coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Box(x1, y1, x2, y2)


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


int_coords = st.integers(min_value=-1000, max_value=1000)


@st.composite
def int_boxes(draw):
    x1, x2 = sorted((draw(int_coords), draw(int_coords)))
    y1, y2 = sorted((draw(int_coords), draw(int_coords)))
    return Box(float(x1), float(y1), float(x2), float(y2))


@given(int_boxes(), int_boxes(), int_coords, int_coords)
def test_iou_translation_invariant_exact(a, b, dx, dy):
    # integer-valued coordinates keep every float op exact under translation
    shifted_a = Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
    shifted_b = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
    assert iou(shifted_a, shifted_b) == iou(a, b)


@given(boxes(), boxes(), st.floats(min_value=1e-2, max_value=1e2, allow_nan=False))
@example(_TINY, _TINY, 100.0)  # the area underflows to 0 at scale 1, not at 100
def test_iou_scale_invariant(a, b, s):
    sa = Box(a.x1 * s, a.y1 * s, a.x2 * s, a.y2 * s)
    sb = Box(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s)
    assert abs(iou(sa, sb) - iou(a, b)) < 1e-12
