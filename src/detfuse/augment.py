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
and int64 temporaries stay a few MB whatever the image size; only the
uint8 output spans the image. The mirror flips one band at a time too, so
it can write into the array it reads and flip an image in place. The
kernels are exact: every output byte has the value of its per-pixel
float64 formula, evaluated in this order (each result rounded half up,
``floor(x + 0.5)``), and the bytes depend neither on the band size nor on
where the bands start:

- bilinear rotation: source position ``(cx + u*cos) + v*sin - 0.5`` and
  ``(cy - u*sin) + v*cos - 0.5``; tap weight ``wx * wy``; the four taps
  summed as ``((p00*w00 + p01*w01) + p10*w10) + p11*w11``;
- color: ``colorsys``-style HSV with hue ``(h / 6) % 1.0``, ``q = v * (1 -
  s*f)`` and ``t = v * (1 - s*(1 - f))``, then ``x * 255``;
- blur: exact integer window sum, then ``sum / count``; the vertical sums
  run down the rows, adding the row that enters the window and subtracting
  the one that leaves, so a band's work does not grow with the radius, and
  one prefix sum per band turns them into horizontal window sums.

These orders are load-bearing: any other association changes some bytes.

Right-angle turns and horizontal flips permute pixels, and color, blur and
contrast commute with them bit for bit: color and contrast act on each
pixel alone, and the blur window is square, so a turned or flipped window
has the same integer sum and the same in-bounds count (rows times
columns). ``expand_dataset`` therefore colors and blurs each distinct
canvas once and applies the turns and flips last.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import partial
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
    read_manifest,
    read_ppm,
    save_annotations,
    write_manifest,
    write_ppm,
)

# exact (sin, cos) for the right-angle rotations
_EXACT_TRIG = {0: (0.0, 1.0), 90: (1.0, 0.0), 180: (0.0, -1.0), 270: (-1.0, 0.0)}

# pixels per band of rows that the pixel kernels compute at a time, so their
# float64 and int64 temporaries stay a few MB whatever the image size
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
    factors and exposure factors; the mirror flag, blur radii and contrast
    factors each add an extra product axis on top of their identity setting.
    """

    rotations: tuple[float, ...] = (0.0,)
    saturation_factors: tuple[float, ...] = (1.0,)
    exposure_factors: tuple[float, ...] = (1.0,)
    mirror: bool = False
    blur_radii: tuple[int, ...] = ()
    contrast_factors: tuple[float, ...] = ()

    def __post_init__(self) -> None:
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


def _rotate_pixels_arbitrary(img: np.ndarray, sin: float, cos: float,
                             nw: int, nh: int) -> np.ndarray:
    """Inverse-map bilinear resampling with black outside the source.

    Each output value is ``floor(s + 0.5)`` for the float64 sum
    ``((p00*w00 + p01*w01) + p10*w10) + p11*w11`` over the taps (dy, dx) in
    that order, where ``wYX = wx * wy`` multiplies ``1 - tx`` or ``tx`` by
    ``1 - ty`` or ``ty``. A tap outside the source has weight +0.0, so every
    term is >= +0.0 and the sum equals one that starts from 0.0.
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
    planes = np.ascontiguousarray(np.moveaxis(img, -1, 0)).reshape(3, -1)
    out = np.empty((nh, nw, 3), dtype=np.uint8)
    for r0, r1 in _row_bands(nh, nw):
        v = vs[r0:r1, None]
        fx = (x_row + v * sin) - 0.5
        fy = (y_row + v * cos) - 0.5
        x0 = np.floor(fx)
        y0 = np.floor(fy)
        tx = fx - x0
        ty = fy - y0
        wxs = (1.0 - tx, tx)
        wys = (1.0 - ty, ty)
        x0 = x0.astype(np.int64)
        y0 = y0.astype(np.int64)
        acc = np.empty((3, *fx.shape))
        weight = np.empty(fx.shape)
        flat = np.empty(fx.shape, dtype=np.int64)
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            xi = x0 + dx
            yi = y0 + dy
            # a negative index is a huge unsigned one, so one comparison per axis
            valid = (xi.view(np.uint64) < w) & (yi.view(np.uint64) < h)
            np.multiply(wxs[dx], wys[dy], out=weight)
            weight *= valid
            np.multiply(yi, w, out=flat)
            flat += xi
            flat *= valid  # a tap outside gathers pixel 0, weighted +0.0
            for c in range(3):
                if dy == dx == 0:
                    np.multiply(planes[c].take(flat), weight, out=acc[c])
                else:
                    acc[c] += planes[c].take(flat) * weight
        # the weights of a pixel sum to 1 within a few ulp: acc lies in [0, 255.5)
        acc += 0.5
        np.floor(acc, out=acc)
        np.copyto(out[r0:r1], np.moveaxis(acc, 0, -1), casting="unsafe")
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
        turned = np.rot90(img, -(int(angle) // 90))
        # a turn copies; 0 degrees keeps a C-contiguous source's pixels
        out_img = turned.copy() if angle else np.ascontiguousarray(turned)
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


def mirror_with_boxes(src: AnnotatedImage, out: np.ndarray | None = None) -> AnnotatedImage:
    """Horizontal flip; box (x1, y1, x2, y2) becomes (W-x2, y1, W-x1, y2).

    The flipped pixels go to a new array, or to ``out`` when it is given:
    a C-contiguous, writeable uint8 array of the source's shape that is
    either ``src.image`` itself, which flips the source in place, or shares
    no memory with it. Any other ``out`` raises ``ContractError``. Either
    way the only full-size array is the output.
    """
    img = src.image
    check_image(img)
    if out is None:
        out = np.empty(img.shape, dtype=np.uint8)
    elif not (isinstance(out, np.ndarray) and out.shape == img.shape and out.dtype == np.uint8
              and out.flags.c_contiguous and out.flags.writeable):
        raise ContractError(f"out must be a C-contiguous, writeable uint8 array of shape {img.shape}")
    elif out is not img and np.shares_memory(out, img):
        raise ContractError("out must be the source image itself or share no memory with it")
    h, w = img.shape[:2]
    wpx = float(w)
    # reversing each row's bytes reverses the pixels and their channel order;
    # swapping channels 0 and 2 back costs less than a strided pixel copy.
    # Done one band of rows at a time, it needs no full-size temporary: when
    # out is the source, numpy buffers each overlapping band before writing
    rows_in = img.reshape(h, w * 3)
    rows_out = out.reshape(h, w * 3)
    for r0, r1 in _row_bands(h, w):
        rows_out[r0:r1] = rows_in[r0:r1, ::-1]
        band = out[r0:r1]
        red = band[..., 2].copy()
        band[..., 2] = band[..., 0]
        band[..., 0] = red
    anns = [
        GroundTruthRecord(
            a.image_id, a.class_id, Box(wpx - a.box.x2, a.box.y1, wpx - a.box.x1, a.box.y2)
        )
        for a in src.annotations
    ]
    return AnnotatedImage(out, anns)


def _to_uint8(x: np.ndarray) -> np.ndarray:
    """``floor(x * 255 + 0.5)`` as uint8 for x in [0, 1], computed in place."""
    x *= 255.0
    x += 0.5
    np.floor(x, out=x)
    return x.astype(np.uint8)


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
        _adjust_color_band(img[r0:r1], saturation, exposure, out[r0:r1])
    return out


def _adjust_color_band(img: np.ndarray, saturation: float, exposure: float,
                       out: np.ndarray) -> None:
    """``adjust_color`` of one band of rows, written into ``out``."""
    r, g, b = np.ascontiguousarray(np.moveaxis(img, -1, 0)) / 255.0
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    s = delta / (maxc + (maxc == 0))  # 0 for black
    safe = delta + (delta == 0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    # Hue branch by priority red, green, blue maximum, the lowest written
    # first; where two channels tie for the maximum both branches give the
    # same hue. A gray pixel takes the red branch, whose bc - gc is +0.0.
    h = 4.0 + gc
    h -= rc
    np.copyto(h, (2.0 + rc) - bc, where=g == maxc)
    np.copyto(h, bc - gc, where=r == maxc)
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
    vpqt[..., 1] = _to_uint8(v * (1.0 - s))
    vpqt[..., 2] = _to_uint8(v * (1.0 - s * f))
    vpqt[..., 3] = _to_uint8(v * (1.0 - s * (1.0 - f)))
    vpqt[..., 0] = _to_uint8(v)
    # one little-endian word per pixel holds the bytes v, p, q, t; each
    # channel shifts its sector's byte down
    words = vpqt.view("<u4")[..., 0]
    for c, shifts in enumerate(_SECTOR_SHIFTS):
        out[..., c] = words >> shifts.take(sector)


def blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Box blur averaging the (2r+1)^2 window, normalized by in-bounds count.

    Each output byte is ``floor(sum / count + 0.5)`` in float64, where the
    window sum is an exact int64.
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
    # the sum of rows y - ry to y + ry, carried down the rows from y = -1,
    # whose window holds rows 0 to ry - 1
    vertical = img[:ry].sum(axis=0, dtype=np.int64)
    out = np.empty(img.shape, dtype=np.uint8)
    for r0, r1 in _row_bands(h, w):
        # prefix sums along each row of the band's vertical sums, padded with
        # rx + 1 zero columns before and rx copies of the total after:
        # column x's window sum is c[:, x + 2rx + 1] - c[:, x]
        c = np.empty((r1 - r0, w + 2 * rx + 1, 3), dtype=np.int64)
        c[:, : rx + 1] = 0
        rows = c[:, rx + 1 : rx + 1 + w]
        for y in range(r0, r1):
            if y + ry < h:
                vertical += img[y + ry]  # the row entering the window
            if y > ry:
                vertical -= img[y - ry - 1]  # the row leaving it
            rows[y - r0] = vertical
        np.cumsum(rows, axis=1, out=rows)
        c[:, rx + 1 + w :] = c[:, rx + w : rx + w + 1]
        sums = c[:, 2 * rx + 1 :] - c[:, :w]
        mean = sums / (row_counts[r0:r1, None] * col_counts).astype(np.float64)[..., None]
        # sum <= 255 * count, so the mean lies in [0, 255] and needs no clip
        mean += 0.5
        np.floor(mean, out=mean)
        np.copyto(out[r0:r1], mean, casting="unsafe")
    return out


def contrast(img: np.ndarray, factor: float) -> np.ndarray:
    """Scale each channel about 128 and clamp; factor 1.0 is the identity."""
    check_image(img)
    if not 0 < factor < math.inf:
        raise ContractError(f"contrast factor must be positive and finite, got {factor}")
    out = np.empty(img.shape, dtype=np.uint8)
    for r0, r1 in _row_bands(*img.shape[:2]):
        band = (img[r0:r1].astype(np.float64) - 128.0) * factor + 128.0
        np.copyto(out[r0:r1], np.clip(np.floor(band + 0.5), 0, 255), casting="unsafe")
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
    variant names extend. At the ``last`` canvas the source is popped from
    ``held``, so it is released once that canvas is computed (the source
    canvas itself lives on to its last color). The canvas is released after
    its last color, a colored array after its last blur radius and a blurred
    one after its last turn, which flips it in place.
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
                name_of = partial(_variant_name, prefix, rot, sat, exp, radius=radius)
                # a blurred array is this loop's own, and dead after its last turn
                owned = radius > 0 and k == len(turns) - 1
                emitted += _write_turn(AnnotatedImage(blurred, boxes), turn, axes, name_of, owned)
            del blurred
    return emitted


def _write_turn(variant: AnnotatedImage, turn: float | None, axes: _Axes, name_of,
                owned: bool) -> int:
    """Turn a colored and blurred canvas by its right angle (``None``: it is
    rotated already), then write it and its mirror at every contrast factor
    to the paths ``name_of(mirrored, cfac=...)``; returns the boxes written.

    ``owned`` says that nothing reads ``variant.image`` after this call. The
    mirror flips the pixels in place when they are owned or were copied by a
    turn other than 0 degrees, and into a new array otherwise. The mirror is released
    when this returns, and each contrast-scaled copy once it is written.
    """
    if turn is not None:
        variant = rotate_with_boxes(variant, turn)
        owned = owned or turn != 0  # a right-angle turn returns a copy
    emitted = 0
    for mirrored in axes.mirrors:
        if mirrored:  # the unmirrored variant's files are written by now
            variant = mirror_with_boxes(variant, variant.image if owned else None)
        for cfac in axes.cfacs:
            base = name_of(mirrored, cfac=cfac)
            write_ppm(base + ".ppm",
                      variant.image if cfac == 1.0 else contrast(variant.image, cfac))
            save_annotations(base + ".txt", variant.annotations)
            emitted += len(variant.annotations)
    return emitted


def expand_dataset(
    manifest_path: str | os.PathLike,
    spec: AugmentSpec,
    out_dir: str | os.PathLike,
) -> ExpansionResult:
    """Write the configured transform grid for every manifest entry.

    Derived files get deterministic names (``base_rNNN_sXXX_eXXX`` plus
    optional mirror/blur/contrast suffixes); the identity combination appears
    exactly once. Every name is planned from the image stems before any
    pixel is read or any file is written, so a collision (two angles that
    round alike, or one stem in two manifest directories) or a name longer
    than 255 bytes raises ``ContractError`` and leaves no derived file.
    Unreadable inputs are recorded and skipped. Alongside the derived images
    and annotation files the output directory receives ``manifest.txt`` and
    a ``provenance.txt`` mapping each derived image to its source; these two
    are written atomically, once every derived file exists. Both list
    absolute paths, so the manifest reads the same from any working
    directory; an ``out_dir`` or a resolved source image path that contains
    whitespace, which would split a manifest or provenance line into more
    than two fields, raises ``ContractError`` before anything is written.

    ``manifest.txt`` and ``provenance.txt`` list the variants in the planned
    order rotation, saturation, exposure, mirror, blur radius, contrast. The
    pixels are computed per canvas instead: the source image is the one
    canvas of every right-angle rotation, and each other angle resamples its
    own. Each canvas gets one color adjustment per (saturation, exposure) and
    one blur per radius on top of that; only then is the result turned by
    its right angle (``rot90``), mirrored and contrast-scaled. Identity
    settings (saturation and exposure 1, radius 0, contrast 1, angle 0) pass
    the pixels on without a copy. A right-angle turn and a flip permute
    pixels, color and contrast act on each pixel alone, and a square blur
    window maps onto one with the same integer sum and in-bounds count, so
    every derived byte equals the per-variant composition rotate, mirror,
    color, blur, contrast.

    Each canvas-sized array is released at its last use: the source once
    the last canvas resampled from it is computed (the source canvas comes
    first), a canvas after its last color, a colored array after its last
    blur radius, and a mirrored or contrast-scaled one once its files are
    written. The mirror flips an array in place when nothing reads it later:
    the copy a 90, 180 or 270 degree turn makes, or a blurred array at its
    last turn.
    So at most two arrays of a canvas are alive at once, an input and the
    output of the stage at work, plus the source while resampled canvases
    remain. ``tests/test_augment.py::test_expand_working_set_is_two_canvases``
    holds the ``tracemalloc`` peak on the grid of the ``augment-grid``
    benchmark to 3.0 arrays of its largest canvas.
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
        del held  # an empty plan leaves the source here
    # the bookkeeping follows the plan, not the order the files were written
    entries: list[tuple[str, str]] = []
    provenance: list[tuple[str, str]] = []
    for name, image_path in planned.items():
        if image_path in written:
            img_out = os.path.join(out_dir, name + ".ppm")
            entries.append((img_out, os.path.join(out_dir, name + ".txt")))
            provenance.append((img_out, image_path))
    manifest_out = os.path.join(out_dir, "manifest.txt")
    write_manifest(manifest_out, entries)
    provenance_out = os.path.join(out_dir, "provenance.txt")
    write_manifest(provenance_out, provenance)  # "derived source" lines
    return ExpansionResult(
        manifest_path=manifest_out,
        provenance_path=provenance_out,
        entries=entries,
        boxes_in=boxes_in,
        boxes_emitted=boxes_emitted,
        boxes_dropped=boxes_in - boxes_emitted,
        errors=errors,
    )
