"""Box-aware image augmentation: rotation, mirroring, color, blur, contrast.

All transforms operate on (h, w, 3) uint8 arrays and remap annotation boxes
exactly. Rotations about the image center expand the canvas to the rotated
extent and fill uncovered pixels with black; a box is replaced by the
axis-aligned bounding box of its rotated corners, clipped to the new canvas.
Rotations by multiples of 90 degrees are exact pixel permutations; other
angles use bilinear resampling.

Every transform takes an image that ``io.check_image`` accepts, (h, w, 3)
uint8 with h, w >= 1, and raises ``ContractError`` for anything else. Each
kernel has one code path; at an identity setting it returns a new array of
its input's bytes.

The pixel kernels compute their output one band of rows at a time, each
band at most 2**13 pixels (or one row of a wider image), so their float64
and integer temporaries stay a few MB whatever the image size; only the
uint8 output spans the image. The mirror flips one band at a time too, so
it can write into the array it reads and flip an image in place. The
kernels are exact: every output byte has the value of its per-pixel
float64 formula, evaluated in this order (each result rounded half up,
``floor(x + 0.5)``, and stored by ``_round_into``), and the bytes depend
neither on the band size nor on where the bands start:

- bilinear rotation: source position ``(cx + u*cos) + v*sin - 0.5`` and
  ``(cy - u*sin) + v*cos - 0.5``; tap weight ``wx * wy``; the four taps
  summed as ``((p00*w00 + p01*w01) + p10*w10) + p11*w11``;
- color: ``colorsys``-style HSV with hue ``(h / 6) % 1.0``, ``q = v * (1 -
  s*f)`` and ``t = v * (1 - s*(1 - f))``, then ``x * 255``;
- blur: exact integer window sum (int32 where it cannot overflow, else
  int64), then ``sum / count``; the vertical sums run down the rows, adding
  the row that enters the window and subtracting the one that leaves, so a
  band's work does not grow with the radius, and one prefix sum per band
  turns them into horizontal window sums.

These orders are load-bearing: any other association changes some bytes.

Rotation, color and blur map black to black: a rotation tap outside the
source reads the black frame around the copy it gathers from, or has
weight +0.0, and adds +0.0, color maps (0, 0, 0) to (0, 0, 0) at every positive finite
saturation and exposure, and a window of zeros sums to 0. So each band
computes only the columns that can hold a nonzero byte and writes zeros to
the rest: for rotation, the columns where some tap of some row of the band
lands in the source; for color, those from the band's first to its last
non-black pixel; for blur, those within ``rx`` columns of a non-black pixel
in the band's rows or the ``ry + 1`` rows above and ``ry`` below. A band
whose first and last columns both hold a non-black pixel skips the search.
The skipped columns are the black corners an arbitrary-angle turn fills:
47.3% of the 30-degree canvas of a 640 x 480 image, none of a right-angle
one. Contrast maps 0 to ``clip(128 - 128*f)`` and computes every column.

Right-angle turns (which move each pixel as one 3-byte item) and
horizontal flips (one strided byte copy per channel) permute pixels, and
color, blur and contrast commute with them bit for bit: color and contrast
act on each pixel alone, and the blur window is square, so a turned or
flipped window has the same integer sum and the same in-bounds count (rows
times columns). ``expand_dataset`` therefore colors and blurs each
distinct canvas once and applies the turns and flips last.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DetfuseError
from .evaluation import GroundTruthRecord
from .geometry import Box
from .io import (
    check_image,
    image_id_from_path,
    load_annotations,
    outputs_or_none,
    read_manifest,
    read_ppm,
    save_annotations,
    write_manifest,
    write_ppm,
)

# exact (sin, cos) for the right-angle rotations
_EXACT_TRIG = {0: (0.0, 1.0), 90: (1.0, 0.0), 180: (0.0, -1.0), 270: (-1.0, 0.0)}

# pixels per band of rows that the pixel kernels compute at a time, so their
# float64 and integer temporaries stay a few MB whatever the image size
_BAND_PIXELS = 1 << 13

# longest file name, in bytes, that common file systems hold
_NAME_MAX = 255


@dataclass
class AnnotatedImage:
    """An image together with its box annotations."""

    image: np.ndarray  # (h, w, 3) uint8
    annotations: list[GroundTruthRecord] = field(default_factory=list)


@dataclass(frozen=True)
class AugmentSpec:
    """Configuration grid for dataset expansion.

    The emitted variants are the Cartesian product of rotations, saturation
    factors and exposure factors, so each of these needs at least one value;
    the mirror flag, blur radii and contrast factors each add an extra
    product axis on top of their identity setting, so those may be empty.
    """

    rotations: tuple[float, ...] = (0.0,)
    saturation_factors: tuple[float, ...] = (1.0,)
    exposure_factors: tuple[float, ...] = (1.0,)
    mirror: bool = False
    blur_radii: tuple[int, ...] = ()
    contrast_factors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.rotations and self.saturation_factors and self.exposure_factors):
            raise ContractError("rotations, saturation and exposure factors must be non-empty")
        if any(not 0 <= a < 360 for a in self.rotations):
            raise ContractError("rotation angles must lie in [0, 360)")
        for f in (*self.saturation_factors, *self.exposure_factors, *self.contrast_factors):
            # a factor names its files by round(f * 100), which must be finite
            if not (f > 0 and math.isfinite(f * 100)):
                raise ContractError(f"factors must be positive and finite, got {f}")
        if not all(isinstance(r, numbers.Integral) and r >= 0 for r in self.blur_radii):
            raise ContractError(f"blur radii must be non-negative integers, got {self.blur_radii}")


def _row_bands(height: int, width: int):
    """``(r0, r1)`` of consecutive bands of rows, each at most ``_BAND_PIXELS``
    pixels or one row."""
    step = max(1, _BAND_PIXELS // max(width, 1))
    return ((r0, min(r0 + step, height)) for r0 in range(0, height, step))


def _span(flags: np.ndarray) -> tuple[int, int]:
    """``(i0, i1)`` from the first True entry of 1-D ``flags`` to one past the
    last, ``(0, 0)`` when there is none."""
    idx = np.flatnonzero(flags)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


def _nonblack_span(rows: np.ndarray) -> tuple[int, int]:
    """``(c0, c1)`` from the first column of the (n, w, 3) ``rows`` that holds
    a nonzero byte to one past the last, ``(0, 0)`` when all are black."""
    w = rows.shape[1]
    if rows[:, 0].any() and rows[:, -1].any():  # no black border to search
        return 0, w
    b0, b1 = _span(rows.reshape(-1, w * 3).any(axis=0))  # in bytes
    return b0 // 3, (b1 + 2) // 3


def _clear_outside(band: np.ndarray, c0: int, c1: int) -> None:
    """Zero the columns of ``band`` before ``c0`` and from ``c1`` on."""
    band[:, :c0] = 0
    band[:, c1:] = 0


def _round_into(out: np.ndarray, x: np.ndarray) -> None:
    """Store ``floor(x + 0.5)`` into the uint8 ``out``, rounding the float64
    ``x`` in place; ``x`` must lie in [-0.5, 255.5)."""
    x += 0.5
    np.floor(x, out=x)
    np.copyto(out, x, casting="unsafe")


def _rotate_pixels_arbitrary(img: np.ndarray, sin: float, cos: float,
                             nw: int, nh: int) -> np.ndarray:
    """Inverse-map bilinear resampling with black outside the source.

    Each output value is ``floor(s + 0.5)`` for the float64 sum
    ``((p00*w00 + p01*w01) + p10*w10) + p11*w11`` over the taps (dy, dx) in
    that order, where ``wYX = wx * wy`` multiplies ``1 - tx`` or ``tx`` by
    ``1 - ty`` or ``ty``. Positions are clipped to [-1, w] x [-1, h] and
    the taps read a planar copy of the source in a black frame, one pixel
    wide at the top and left, two at the bottom and right. A clipped axis
    has fraction 0, so its far tap weighs +0.0 and its near tap reads the
    frame: each tap outside adds +0.0, and as every term is >= +0.0 the sum
    equals one that starts from 0.0.
    """
    h, w = img.shape[:2]
    cx, cy = w / 2.0, h / 2.0
    u = (np.arange(nw, dtype=np.float64) + 0.5) - nw / 2.0  # one row
    vs = (np.arange(nh, dtype=np.float64) + 0.5) - nh / 2.0  # one column
    # inverse rotation back into source coordinates, associated as
    # (cx + u*cos) + v*sin and (cy - u*sin) + v*cos; the first terms are
    # the same for every output row
    x_row = cx + u * cos
    y_row = cy - u * sin
    fw = w + 3  # framed width
    planes = np.zeros((3, h + 3, fw), dtype=np.uint8)
    planes[:, 1 : h + 1, 1 : w + 1] = np.moveaxis(img, -1, 0)
    planes = planes.reshape(3, -1)
    out = np.empty((nh, nw, 3), dtype=np.uint8)
    for r0, r1 in _row_bands(nh, nw):
        v = vs[r0:r1, None]
        fx = (x_row + v * sin) - 0.5
        fy = (y_row + v * cos) - 0.5
        # some tap lands in the source only where floor(fx) lies in
        # [-1, w - 1] and floor(fy) in [-1, h - 1]; the band's other columns
        # sum four +0.0 terms, so they are black
        c0, c1 = _span(((fx >= -1.0) & (fx < w) & (fy >= -1.0) & (fy < h)).any(axis=0))
        _clear_outside(out[r0:r1], c0, c1)
        fx = np.clip(fx[:, c0:c1], -1.0, w)
        fy = np.clip(fy[:, c0:c1], -1.0, h)
        x0 = np.floor(fx)
        y0 = np.floor(fy)
        # flat index of each pixel's tap (0, 0) in the framed planes
        base = ((y0 + 1.0) * fw + (x0 + 1.0)).astype(np.int64)
        tx = np.subtract(fx, x0, out=x0)
        ty = np.subtract(fy, y0, out=y0)
        wxs = (1.0 - tx, tx)
        wys = (1.0 - ty, ty)
        acc = np.empty((3, *fx.shape))
        weight = np.empty(fx.shape)
        flat = np.empty(fx.shape, dtype=np.int64)
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            np.multiply(wxs[dx], wys[dy], out=weight)
            np.add(base, dy * fw + dx, out=flat)
            for c in range(3):
                if dy == dx == 0:
                    np.multiply(planes[c].take(flat), weight, out=acc[c])
                else:
                    acc[c] += planes[c].take(flat) * weight
        # the weights of a pixel sum to 1 within a few ulp: acc lies in [0, 255.5)
        for c in range(3):
            _round_into(out[r0:r1, c0:c1, c], acc[c])
        del x0, y0, tx, ty, base, wxs, wys, acc, weight, flat  # freed before the next band
    return out


def rotate_with_boxes(src: AnnotatedImage, angle: float) -> AnnotatedImage:
    """Rotate image and boxes about the image center, expanding the canvas.

    Boxes collapsing to zero area after clipping are dropped. At multiples
    of 90 degrees the pixels move by an exact permutation (``np.rot90``),
    but the boxes still go through the float corner map
    ``ncx + (x - cx)*cos - (y - cy)*sin``, ``ncy + (x - cx)*sin + (y - cy)*cos``
    with exact sin and cos. That map rounds, so a 0-degree turn, or four
    90-degree turns, can move a box coordinate in its last bits. A turn by
    90, 180 or 270 degrees returns a new C-contiguous array; 0 degrees
    returns the source's pixels when they are C-contiguous.
    """
    img = src.image
    check_image(img)
    if not 0 <= angle < 360:
        raise ContractError(f"angle must be in [0, 360), got {angle}")
    h, w = img.shape[:2]
    exact = _EXACT_TRIG.get(angle)
    if exact is not None:
        sin, cos = exact
        # one 3-byte item per pixel, which needs its channels adjacent
        items = (img if img.strides[-1] == 1 else img.copy()).view("V3")
        turned = np.rot90(items, -(int(angle) // 90))
        # a turn copies; 0 degrees keeps a C-contiguous source's pixels
        out_img = (turned.copy() if angle else np.ascontiguousarray(turned)).view(np.uint8)
        nh, nw = out_img.shape[:2]
    else:
        rad = math.radians(angle)
        sin, cos = math.sin(rad), math.cos(rad)
        nw = math.ceil(w * abs(cos) + h * abs(sin))
        nh = math.ceil(w * abs(sin) + h * abs(cos))
        out_img = _rotate_pixels_arbitrary(img, sin, cos, nw, nh)

    cx, cy = w / 2.0, h / 2.0
    ncx, ncy = nw / 2.0, nh / 2.0

    def fwd(x: float, y: float) -> tuple[float, float]:
        u = x - cx
        v = y - cy
        return ncx + u * cos - v * sin, ncy + u * sin + v * cos

    anns: list[GroundTruthRecord] = []
    for a in src.annotations:
        corners = [
            fwd(a.box.x1, a.box.y1),
            fwd(a.box.x1, a.box.y2),
            fwd(a.box.x2, a.box.y1),
            fwd(a.box.x2, a.box.y2),
        ]
        x1 = max(0.0, min(c[0] for c in corners))
        y1 = max(0.0, min(c[1] for c in corners))
        x2 = min(float(nw), max(c[0] for c in corners))
        y2 = min(float(nh), max(c[1] for c in corners))
        if x2 - x1 <= 0 or y2 - y1 <= 0:
            continue  # clipped away; expand_dataset accounts for drops
        anns.append(GroundTruthRecord(a.image_id, a.class_id, Box(x1, y1, x2, y2)))
    return AnnotatedImage(out_img, anns)


def mirror_with_boxes(src: AnnotatedImage, in_place: bool = False) -> AnnotatedImage:
    """Horizontal flip; box (x1, y1, x2, y2) becomes (W-x2, y1, W-x1, y2).

    Each band of rows is copied and each channel of the copy written in
    reverse column order, into a new array or, with ``in_place``, into
    ``src.image`` itself, which must then be C-contiguous and writeable
    (``ContractError`` otherwise). Either way the only full-size array is
    the output.
    """
    img = src.image
    check_image(img)
    if not in_place:
        out = np.empty(img.shape, dtype=np.uint8)
    elif img.flags.c_contiguous and img.flags.writeable:
        out = img
    else:
        raise ContractError("an image flipped in place must be C-contiguous and writeable")
    h, w = img.shape[:2]
    wpx = float(w)
    for r0, r1 in _row_bands(h, w):
        band = img[r0:r1].copy()  # in place, spares numpy a buffer per channel
        for c in range(3):
            out[r0:r1, :, c] = band[:, ::-1, c]
    anns = [
        GroundTruthRecord(
            a.image_id, a.class_id, Box(wpx - a.box.x2, a.box.y1, wpx - a.box.x1, a.box.y2)
        )
        for a in src.annotations
    ]
    return AnnotatedImage(out, anns)


def _to_uint8(out: np.ndarray, x: np.ndarray) -> None:
    """Store ``floor(x * 255 + 0.5)`` in ``out`` for x in [0, 1], in place."""
    x *= 255.0
    _round_into(out, x)


# per hue sector 0..5, the index of each output channel's value in (v, p, q, t)
_SECTOR_SHIFTS = tuple(
    np.array(order, dtype=np.uint32) * 8
    for order in ((0, 2, 1, 1, 3, 0), (3, 0, 0, 2, 1, 1), (1, 1, 3, 0, 0, 2))
)


def adjust_color(img: np.ndarray, saturation: float = 1.0, exposure: float = 1.0) -> np.ndarray:
    """Scale saturation and value in HSV space, clamped to [0, 1].

    Factor 1.0 on both axes returns a bit-identical copy; gray pixels are a
    fixed point of any saturation factor. Each pixel gets the bytes of the
    per-pixel ``colorsys``-style formulas evaluated in float64 (see the module
    docstring for the operation order).
    """
    check_image(img)
    if not (0 < saturation < math.inf and 0 < exposure < math.inf):
        raise ContractError("saturation and exposure factors must be positive and finite")
    out = np.empty(img.shape, dtype=np.uint8)
    for r0, r1 in _row_bands(*img.shape[:2]):
        # black stays black, so only the columns from the band's first to
        # its last non-black pixel are computed
        c0, c1 = _nonblack_span(img[r0:r1])
        _clear_outside(out[r0:r1], c0, c1)
        _adjust_color_band(img[r0:r1, c0:c1], saturation, exposure, out[r0:r1, c0:c1])
    return out


def _adjust_color_band(img: np.ndarray, saturation: float, exposure: float,
                       out: np.ndarray) -> None:
    """``adjust_color`` of one band of rows, written into ``out``."""
    r, g, b = (img[..., c] / 255.0 for c in range(3))
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    s = delta / (maxc + (maxc == 0))  # 0 for black
    safe = delta + (delta == 0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    # Hue branch by priority red, green, blue maximum; where two channels
    # tie for the maximum both branches give the same hue. A gray pixel
    # takes the red branch, whose bc - gc is +0.0.
    h = np.where(r == maxc, bc - gc,
                 np.where(g == maxc, (2.0 + rc) - bc, (4.0 + gc) - rc))
    # (h / 6) % 1.0, exactly, for h / 6 in [-1/6, 1)
    h /= 6.0
    h += h < 0
    s *= saturation
    np.clip(s, 0.0, 1.0, out=s)
    v = maxc
    v *= exposure
    np.clip(v, 0.0, 1.0, out=v)
    f = h
    f *= 6.0
    i = np.floor(f)
    f -= i
    sector = i.astype(np.uint32)  # below 6 for every 8-bit colour
    # v, p, q and t lie in [0, 1]
    vpqt = np.empty((*img.shape[:2], 4), dtype=np.uint8)
    _to_uint8(vpqt[..., 1], v * (1.0 - s))
    _to_uint8(vpqt[..., 2], v * (1.0 - s * f))
    _to_uint8(vpqt[..., 3], v * (1.0 - s * (1.0 - f)))
    _to_uint8(vpqt[..., 0], v)
    # one little-endian word per pixel holds the bytes v, p, q, t; each
    # channel shifts its sector's byte down
    words = vpqt.view("<u4")[..., 0]
    for c, shifts in enumerate(_SECTOR_SHIFTS):
        out[..., c] = words >> shifts.take(sector)


def blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Box blur averaging the (2r+1)^2 window, normalized by in-bounds count.

    Each output byte is ``floor(sum / count + 0.5)`` in float64, where the
    window sum is an exact integer: int32 when every running and prefix sum
    fits, int64 otherwise.
    """
    check_image(img)
    if not (isinstance(radius, numbers.Integral) and radius >= 0):
        raise ContractError(f"radius must be a non-negative integer, got {radius!r}")
    h, w = img.shape[:2]
    # a window reaching past both image edges sums the whole axis, so a
    # radius above the image size pads no further
    ry, rx = min(int(radius), h), min(int(radius), w)  # a numpy uint8 would wrap

    def counts(n: int, r: int) -> np.ndarray:
        i = np.arange(n)
        return np.minimum(i + r + 1, n) - np.maximum(i - r, 0)

    row_counts, col_counts = counts(h, ry), counts(w, rx)
    # bounds each running vertical sum (2ry + 2 rows) and prefix sum (w of those)
    acc = np.int32 if 255 * (2 * ry + 1) * (w + 2 * rx + 1) < 2**31 else np.int64
    # the sum of rows y - ry to y + ry, carried down the rows from y = -1,
    # whose window holds rows 0 to ry - 1
    vertical = img[:ry].sum(axis=0, dtype=acc)
    out = np.empty(img.shape, dtype=np.uint8)
    for r0, r1 in _row_bands(h, w):
        # the rows that enter, leave or lie in the windows of the band are
        # black outside columns p0 to p1, so the vertical sums change only
        # there and are 0 elsewhere, and a window sum is 0 more than rx
        # columns away from them
        p0, p1 = _nonblack_span(img[max(r0 - ry - 1, 0) : r1 + ry])
        c0, c1 = max(p0 - rx, 0), min(p1 + rx, w)
        _clear_outside(out[r0:r1], c0, c1)
        n = c1 - c0
        # prefix sums along each row of the band's vertical sums in columns
        # c0 to c1, padded with rx + 1 zero columns before and rx copies of
        # the total after: column c0 + x's window sum is
        # c[:, x + 2rx + 1] - c[:, x]
        c = np.empty((r1 - r0, n + 2 * rx + 1, 3), dtype=acc)
        c[:, : rx + 1] = 0
        rows = c[:, rx + 1 : rx + 1 + n]
        changing, window, pixels = vertical[p0:p1], vertical[c0:c1], img[:, p0:p1]
        for y in range(r0, r1):
            if y + ry < h:
                changing += pixels[y + ry]  # the row entering the window
            if y > ry:
                changing -= pixels[y - ry - 1]  # the row leaving it
            rows[y - r0] = window
        np.cumsum(rows, axis=1, out=rows)
        c[:, rx + 1 + n :] = c[:, rx + n : rx + n + 1]
        sums = c[:, 2 * rx + 1 :] - c[:, :n]
        mean = sums / (row_counts[r0:r1, None]
                       * col_counts[c0:c1]).astype(np.float64)[..., None]
        # sum <= 255 * count, so the mean lies in [0, 255] and needs no clip
        _round_into(out[r0:r1, c0:c1], mean)
    return out


def contrast(img: np.ndarray, factor: float) -> np.ndarray:
    """Scale each channel about 128 and clamp; factor 1.0 is the identity."""
    check_image(img)
    if not 0 < factor < math.inf:
        raise ContractError(f"contrast factor must be positive and finite, got {factor}")
    out = np.empty(img.shape, dtype=np.uint8)
    for r0, r1 in _row_bands(*img.shape[:2]):
        band = (img[r0:r1].astype(np.float64) - 128.0) * factor + 128.0
        # rounds to the bytes of floor(band + 0.5) clipped to [0, 255]
        np.clip(band, -0.5, 255.0, out=band)
        _round_into(out[r0:r1], band)
    return out


@dataclass
class ExpansionResult:
    manifest_path: str
    provenance_path: str
    entries: list[tuple[str, str]]
    boxes_in: int
    boxes_emitted: int
    boxes_dropped: int
    errors: list[str] = field(default_factory=list)


def _variant_name(stem: str, rot: float, sat: float, exp: float,
                  mirrored: bool, radius: int, cfac: float) -> str:
    name = f"{stem}_r{int(round(rot)):03d}_s{int(round(sat * 100)):03d}_e{int(round(exp * 100)):03d}"
    if mirrored:
        name += "_m"
    if radius:
        name += f"_b{radius:02d}"
    if cfac != 1.0:
        name += f"_c{int(round(cfac * 100)):03d}"
    return name


class _Axes(NamedTuple):
    """The product axes of an ``AugmentSpec`` after rotation, in plan order;
    mirror, blur radius and contrast lead with their identity setting."""

    colors: list[tuple[float, float]]
    mirrors: list[bool]
    radii: list[int]
    cfacs: list[float]


def _canvas_plan(rotations: tuple[float, ...]) -> list[tuple[float | None, list]]:
    """``(resample, [(angle, turn), ...])`` per canvas of the rotation grid:
    first the source itself (``resample`` is ``None``) for every right
    angle, each turned by its angle later, then one canvas resampled at each
    other angle, whose turn is ``None`` because it is already rotated. The
    source is needed by no canvas after the last resampled one."""
    right = [(rot, rot) for rot in rotations if rot in _EXACT_TRIG]
    plan: list[tuple[float | None, list]] = [(None, right)] if right else []
    return plan + [(rot, [(rot, None)]) for rot in rotations if rot not in _EXACT_TRIG]


def _expand_canvas(held: list[AnnotatedImage], resample: float | None, last: bool,
                   turns: list, axes: _Axes, prefix: str) -> int:
    """Write every variant of one canvas of the source ``held[0]``; returns
    the boxes written.

    ``prefix`` is the output directory joined with the image stem, which the
    variant names extend. Each turn turns the blurred array by its right
    angle (``None``: the canvas is rotated already), then writes it and its
    mirror at every contrast factor. At the ``last`` canvas the source is
    popped from ``held``, so it is released once that canvas is computed
    (the source canvas itself lives on to its last color). The canvas is
    released after its last color, a colored array after its last blur
    radius, a blurred one after its last turn, the turned and mirrored
    pixels at the end of their turn and a contrast-scaled copy once it is
    written. The mirror flips in place the pixels that nothing reads
    afterwards, the copy a turn other than 0 degrees makes or a blurred
    array at its last turn, and others into a new array.
    """
    src = held.pop() if last else held[0]
    canvas = src if resample is None else rotate_with_boxes(src, resample)
    del src
    boxes = canvas.annotations
    emitted = 0
    for i, (sat, exp) in enumerate(axes.colors):
        colored = canvas.image
        if (sat, exp) != (1.0, 1.0):
            colored = adjust_color(colored, sat, exp)
        if i == len(axes.colors) - 1:
            del canvas
        for j, radius in enumerate(axes.radii):
            blurred = blur(colored, radius) if radius else colored
            if j == len(axes.radii) - 1:
                del colored
            for k, (rot, turn) in enumerate(turns):
                variant = AnnotatedImage(blurred, boxes)
                if turn is not None:
                    variant = rotate_with_boxes(variant, turn)
                # a right-angle turn copies, and a blurred array is this
                # loop's own and dead after its last turn
                owned = bool(turn) or (radius > 0 and k == len(turns) - 1)
                for mirrored in axes.mirrors:
                    if mirrored:  # the unmirrored variant's files are written by now
                        variant = mirror_with_boxes(variant, owned)
                    for cfac in axes.cfacs:
                        base = _variant_name(prefix, rot, sat, exp, mirrored, radius, cfac)
                        write_ppm(base + ".ppm",
                                  variant.image if cfac == 1.0 else contrast(variant.image, cfac))
                        save_annotations(base + ".txt", variant.annotations)
                        emitted += len(variant.annotations)
                del variant
            del blurred
    return emitted


def expand_dataset(
    manifest_path: str | os.PathLike,
    spec: AugmentSpec,
    out_dir: str | os.PathLike,
) -> ExpansionResult:
    """Write the configured transform grid for every manifest entry.

    Derived files get deterministic names (``base_rNNN_sXXX_eXXX`` plus
    optional mirror/blur/contrast suffixes); the identity combination appears
    exactly once, and ``AugmentSpec`` holds at least one rotation,
    saturation and exposure, so every source read yields a variant. Every
    name is planned from the image stems before any pixel is read or any
    file is written, so a collision (two angles that round alike, or one
    stem in two manifest directories) or a name longer than 255 bytes raises
    ``ContractError`` and leaves no derived file.
    Unreadable inputs are recorded and skipped. The derived images and
    annotation files are written in place; once they all exist, the output
    directory receives ``manifest.txt`` and a ``provenance.txt`` mapping
    each derived image to its source, as one group: each is moved into
    place whole, and if either write fails each is left as it was or
    absent. Both list absolute paths, so the manifest reads the same from
    any working directory; an ``out_dir`` or a resolved source image path
    that contains whitespace, which would split a manifest or provenance
    line into more than two fields, raises ``ContractError`` before
    anything is written.

    ``manifest.txt`` and ``provenance.txt`` list the variants in the planned
    order rotation, saturation, exposure, mirror, blur radius, contrast. The
    pixels are computed per canvas instead: the source image is the one
    canvas of every right-angle rotation, and each other angle resamples its
    own. Each canvas gets one color adjustment per (saturation, exposure) and
    one blur per radius on top of that; only then is the result turned by
    its right angle (``rot90``), mirrored and contrast-scaled. Identity
    settings (saturation and exposure 1, radius 0, contrast 1, angle 0) pass
    the pixels on without a copy. As turns and flips commute with color,
    blur and contrast (see the module docstring), every derived byte equals
    the per-variant composition rotate, mirror, color, blur, contrast.

    ``_expand_canvas`` releases each canvas-sized array at its last use, so
    at most two arrays of a canvas are alive at once, an input and the
    output of the stage at work, plus the source while resampled canvases
    remain. ``tests/test_augment.py::test_expand_working_set_is_two_canvases``
    holds the ``tracemalloc`` peak on the ``augment-grid`` grid to 3.0
    arrays of its largest canvas.
    """
    sources = read_manifest(manifest_path)
    out_dir = os.path.abspath(out_dir)
    # stems come from whitespace-split manifest fields, so only out_dir can
    # put whitespace into a derived path
    if any(c.isspace() for c in out_dir):
        raise ContractError(f"output directory path contains whitespace: {out_dir!r}")
    axes = _Axes(
        colors=list(product(spec.saturation_factors, spec.exposure_factors)),
        mirrors=[False] + ([True] if spec.mirror else []),
        radii=[0, *spec.blur_radii],
        cfacs=[1.0, *spec.contrast_factors],
    )
    n_variants = len(spec.rotations) * math.prod(map(len, axes))
    plan = _canvas_plan(spec.rotations)
    planned: dict[str, str] = {}
    for image_path, _ in sources:
        # a source path resolved against a manifest directory that contains
        # whitespace would split its provenance line the same way
        if any(c.isspace() for c in image_path):
            raise ContractError(f"source image path contains whitespace: {image_path!r}")
        stem = image_id_from_path(image_path)
        for rot, (sat, exp), mirrored, radius, cfac in product(spec.rotations, *axes):
            name = _variant_name(stem, rot, sat, exp, mirrored, radius, cfac)
            if len(os.fsencode(name + ".ppm")) > _NAME_MAX:
                raise ContractError(
                    f"output name longer than {_NAME_MAX} bytes: {name[:60]}..."
                    f" (from {image_path})"
                )
            if name in planned:
                raise ContractError(
                    f"output name collision: {name} (from {planned[name]} and {image_path})"
                )
            planned[name] = image_path

    os.makedirs(out_dir, exist_ok=True)
    written: set[str] = set()
    errors: list[str] = []
    boxes_in = 0
    boxes_emitted = 0
    for image_path, ann_path in sources:
        stem = image_id_from_path(image_path)
        try:
            # the only reference to the source, handed off at its last canvas
            held = [AnnotatedImage(read_ppm(image_path), load_annotations(ann_path, stem))]
        except (OSError, DetfuseError) as e:
            errors.append(f"{image_path}: {e}")
            continue
        written.add(image_path)
        boxes_in += len(held[0].annotations) * n_variants
        prefix = os.path.join(out_dir, stem)
        for k, (resample, turns) in enumerate(plan):
            boxes_emitted += _expand_canvas(held, resample, k == len(plan) - 1,
                                            turns, axes, prefix)
    # the bookkeeping follows the plan, not the order the files were written
    entries: list[tuple[str, str]] = []
    provenance: list[tuple[str, str]] = []
    for name, image_path in planned.items():
        if image_path in written:
            img_out = os.path.join(out_dir, name + ".ppm")
            entries.append((img_out, os.path.join(out_dir, name + ".txt")))
            provenance.append((img_out, image_path))
    manifest_out = os.path.join(out_dir, "manifest.txt")
    provenance_out = os.path.join(out_dir, "provenance.txt")
    with outputs_or_none() as done:  # provenance lines are "derived source"
        for path, pairs in ((manifest_out, entries), (provenance_out, provenance)):
            write_manifest(path, pairs)
            done.append(path)
    return ExpansionResult(
        manifest_path=manifest_out,
        provenance_path=provenance_out,
        entries=entries,
        boxes_in=boxes_in,
        boxes_emitted=boxes_emitted,
        boxes_dropped=boxes_in - boxes_emitted,
        errors=errors,
    )
