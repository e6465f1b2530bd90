import colorsys
import math
import os
import tracemalloc

from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import detfuse.augment
import detfuse.io
from detfuse import (
    AnnotatedImage,
    AugmentSpec,
    Box,
    ContractError,
    GroundTruthRecord,
    adjust_color,
    blur,
    contrast,
    expand_dataset,
    mirror_with_boxes,
    rotate_with_boxes,
)
from detfuse.io import (
    load_annotations,
    read_manifest,
    read_ppm,
    save_annotations,
    write_manifest,
    write_ppm,
)


def rand_image(rng, w, h):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def ann(box, class_id=0, image_id="im"):
    return GroundTruthRecord(image_id, class_id, Box(*box))


class TestRotation:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(0)
        src = AnnotatedImage(rand_image(rng, 20, 10), [ann((2, 3, 8, 7))])
        out = rotate_with_boxes(src, 0)
        assert np.array_equal(out.image, src.image)
        assert out.annotations == src.annotations

    def test_90_degree_box_mapping(self):
        rng = np.random.default_rng(1)
        src = AnnotatedImage(rand_image(rng, 100, 50), [ann((10, 10, 20, 30))])
        out = rotate_with_boxes(src, 90)
        assert out.image.shape == (100, 50, 3)
        assert out.annotations[0].box == Box(20, 10, 40, 20)

    def test_90_pixel_mapping_exact(self):
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        out = rotate_with_boxes(AnnotatedImage(img), 90).image
        # column i of the source becomes row i, right-to-left source rows on top
        assert np.array_equal(out, np.rot90(img, -1))

    def test_four_quarter_turns_identity(self):
        rng = np.random.default_rng(2)
        src = AnnotatedImage(rand_image(rng, 31, 17), [ann((3.5, 2.25, 20.0, 11.75))])
        out = src
        for _ in range(4):
            out = rotate_with_boxes(out, 90)
        assert np.array_equal(out.image, src.image)
        assert out.annotations == src.annotations

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (4, 6)])
    @pytest.mark.parametrize("angle", [90, 180, 270])
    def test_right_angle_turn_is_a_contiguous_copy(self, shape, angle):
        img = rand_image(np.random.default_rng(5), shape[1], shape[0])
        out = rotate_with_boxes(AnnotatedImage(img), angle).image
        assert out.flags.c_contiguous and not np.shares_memory(out, img)
        assert np.array_equal(out, np.rot90(img, -(angle // 90)))

    def test_zero_turn_keeps_contiguous_pixels(self):
        img = rand_image(np.random.default_rng(5), 6, 4)
        assert np.shares_memory(rotate_with_boxes(AnnotatedImage(img), 0).image, img)
        strided = rotate_with_boxes(AnnotatedImage(img[:, ::2]), 0).image
        assert strided.flags.c_contiguous and np.array_equal(strided, img[:, ::2])

    @pytest.mark.parametrize("angle, kept", [(0, False), (90, False), (30, True)])
    def test_zero_width_box(self, angle, kept):
        # a right-angle turn keeps the box's zero width, so it is dropped;
        # another angle spreads it over a rotated bounding box
        src = AnnotatedImage(np.zeros((10, 20, 3), np.uint8), [ann((5, 2, 5, 8))])
        assert len(rotate_with_boxes(src, angle).annotations) == kept

    def test_45_canvas_and_box_growth(self):
        side = 40
        rng = np.random.default_rng(3)
        src = AnnotatedImage(rand_image(rng, side, side), [ann((10, 10, 20, 25))])
        out = rotate_with_boxes(src, 45)
        expected = math.ceil(side * math.sqrt(2))
        assert out.image.shape[0] == expected
        assert out.image.shape[1] == expected
        b = out.annotations[0].box
        assert (b.x2 - b.x1) * (b.y2 - b.y1) >= 10 * 15 - 1e-9

    def test_invalid_angle(self):
        src = AnnotatedImage(np.zeros((4, 4, 3), np.uint8))
        with pytest.raises(ContractError):
            rotate_with_boxes(src, 360)
        with pytest.raises(ContractError):
            rotate_with_boxes(src, -10)

    def test_boxes_stay_in_bounds(self):
        rng = np.random.default_rng(4)
        src = AnnotatedImage(
            rand_image(rng, 60, 40),
            [ann((0, 0, 60, 40)), ann((50, 30, 59, 39))],
        )
        for angle in (0, 30, 45, 90, 135, 180, 270, 313):
            out = rotate_with_boxes(src, angle)
            h, w = out.image.shape[:2]
            for a in out.annotations:
                assert 0 <= a.box.x1 <= a.box.x2 <= w
                assert 0 <= a.box.y1 <= a.box.y2 <= h


class TestMirror:
    def test_involution(self):
        rng = np.random.default_rng(5)
        src = AnnotatedImage(rand_image(rng, 13, 7), [ann((1, 2, 5, 6))])
        out = mirror_with_boxes(mirror_with_boxes(src))
        assert np.array_equal(out.image, src.image)
        assert out.annotations == src.annotations

    def test_centered_box_unchanged(self):
        img = np.zeros((10, 100, 3), np.uint8)
        src = AnnotatedImage(img, [ann((40, 2, 60, 8))])
        out = mirror_with_boxes(src)
        assert out.annotations[0].box == Box(40, 2, 60, 8)

    def test_box_formula(self):
        img = np.zeros((50, 100, 3), np.uint8)
        out = mirror_with_boxes(AnnotatedImage(img, [ann((10, 20, 30, 40))]))
        assert out.annotations[0].box == Box(70, 20, 90, 40)

    @given(arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3))))
    def test_pixels_are_the_flipped_array(self, img):
        before = img.copy()
        out = mirror_with_boxes(AnnotatedImage(img, [])).image
        assert np.array_equal(out, img[:, ::-1])
        assert out.flags.c_contiguous
        assert np.array_equal(img, before)

    @given(arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3))))
    def test_in_place_equals_flipping_a_copy(self, img):
        boxes = [ann((0.0, 0.5, img.shape[1], 0.75))]
        expected = mirror_with_boxes(AnnotatedImage(img.copy(), boxes))
        got = mirror_with_boxes(AnnotatedImage(img, boxes), img)
        assert got.image is img
        assert np.array_equal(img, expected.image)
        assert got.annotations == expected.annotations

    @given(arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3))))
    def test_separate_out_leaves_the_source(self, img):
        before = img.copy()
        out = np.empty_like(img)
        assert mirror_with_boxes(AnnotatedImage(img), out).image is out
        assert np.array_equal(out, before[:, ::-1])
        assert np.array_equal(img, before)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("h, w", [(23, 9), (1, 9), (33, 1), (10, 14)])
    def test_bands(self, monkeypatch, rows, h, w):
        img = rand_image(np.random.default_rng(33), w, h)
        expected = img[:, ::-1].copy()
        _set_band_rows(monkeypatch, rows, w)
        assert np.array_equal(mirror_with_boxes(AnnotatedImage(img)).image, expected)
        out = np.empty_like(img)
        mirror_with_boxes(AnnotatedImage(img), out)
        assert np.array_equal(out, expected)
        mirror_with_boxes(AnnotatedImage(img), img)
        assert np.array_equal(img, expected)

    @staticmethod
    def _read_only(shape):
        out = np.empty(shape, np.uint8)
        out.flags.writeable = False
        return out

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda img: np.empty((4, 6, 3), np.uint8),
            lambda img: np.empty((4, 5, 3), np.int16),
            lambda img: np.empty((4, 5, 3)),
            lambda img: np.empty((4, 10, 3), np.uint8)[:, ::2],
            lambda img: TestMirror._read_only(img.shape),
            lambda img: img.tolist(),
            lambda img: img[...],  # a view of the source, not the source itself
        ],
        ids=["shape", "int16", "float64", "strided", "read-only", "list", "view"],
    )
    def test_bad_out_rejected(self, make_out):
        img = rand_image(np.random.default_rng(34), 5, 4)
        before = img.copy()
        with pytest.raises(ContractError):
            mirror_with_boxes(AnnotatedImage(img), make_out(img))
        assert np.array_equal(img, before)

    def test_partly_overlapping_out_rejected(self):
        buf = np.zeros(90, np.uint8)
        src, out = buf[:60].reshape(4, 5, 3), buf[30:].reshape(4, 5, 3)
        src[...] = rand_image(np.random.default_rng(35), 5, 4)
        before = buf.copy()
        with pytest.raises(ContractError):
            mirror_with_boxes(AnnotatedImage(src), out)
        assert np.array_equal(buf, before)

    def test_strided_source_cannot_be_flipped_in_place(self):
        img = rand_image(np.random.default_rng(36), 10, 4)[:, ::2]
        with pytest.raises(ContractError):
            mirror_with_boxes(AnnotatedImage(img), img)


class TestColor:
    def test_identity_bit_exact(self):
        rng = np.random.default_rng(6)
        img = rand_image(rng, 16, 16)
        assert np.array_equal(adjust_color(img, 1.0, 1.0), img)

    def test_gray_saturation_fixed_point(self):
        gray = np.full((4, 4, 3), 87, np.uint8)
        for s in (0.5, 1.2, 1.5, 2.0):
            assert np.array_equal(adjust_color(gray, saturation=s), gray)

    def test_matches_scalar_hsv_roundtrip(self):
        rng = np.random.default_rng(7)
        img = rand_image(rng, 8, 8)
        for sat, exp in [(1.5, 1.0), (1.0, 1.3), (0.7, 1.8), (1.2, 0.6)]:
            got = adjust_color(img, sat, exp)
            for y in range(img.shape[0]):
                for x in range(img.shape[1]):
                    r, g, b = (v / 255.0 for v in img[y, x])
                    h, s, v = colorsys.rgb_to_hsv(r, g, b)
                    s = min(s * sat, 1.0)
                    v = min(v * exp, 1.0)
                    rr, gg, bb = colorsys.hsv_to_rgb(h, s, v)
                    expected = [math.floor(c * 255.0 + 0.5) for c in (rr, gg, bb)]
                    assert list(got[y, x]) == expected, (img[y, x], sat, exp)

    def test_single_pixel_saturation(self):
        img = np.array([[[100, 50, 50]]], dtype=np.uint8)
        got = adjust_color(img, saturation=1.5)
        h, s, v = colorsys.rgb_to_hsv(100 / 255, 50 / 255, 50 / 255)
        rr, gg, bb = colorsys.hsv_to_rgb(h, min(s * 1.5, 1.0), v)
        expected = [math.floor(c * 255.0 + 0.5) for c in (rr, gg, bb)]
        assert list(got[0, 0]) == expected

    def test_invalid_factors(self):
        img = np.zeros((2, 2, 3), np.uint8)
        with pytest.raises(ContractError):
            adjust_color(img, saturation=0.0)
        with pytest.raises(ContractError):
            adjust_color(img, exposure=-1.0)


    @pytest.mark.parametrize("factors", [(math.nan, 1.0), (1.0, math.nan),
                                         (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_factors(self, factors):
        with pytest.raises(ContractError, match="finite"):
            adjust_color(rand_image(np.random.default_rng(6), 4, 4), *factors)


class TestBlurContrast:
    def test_blur_zero_identity(self):
        rng = np.random.default_rng(8)
        img = rand_image(rng, 9, 9)
        assert np.array_equal(blur(img, 0), img)

    def test_blur_three_tap_mean(self):
        img = np.array([[(0, 0, 0), (255, 255, 255), (0, 0, 0)]], dtype=np.uint8)
        out = blur(img, 1)
        assert list(out[0, 1]) == [85, 85, 85]

    def test_blur_uniform_image_unchanged(self):
        img = np.full((7, 5, 3), 123, np.uint8)
        assert np.array_equal(blur(img, 2), img)

    def test_contrast_identity(self):
        rng = np.random.default_rng(9)
        img = rand_image(rng, 6, 6)
        assert np.array_equal(contrast(img, 1.0), img)

    def test_contrast_scales_about_128(self):
        img = np.array([[[128, 100, 200]]], dtype=np.uint8)
        out = contrast(img, 2.0)
        assert list(out[0, 0]) == [128, 72, 255]

    def test_contrast_invalid(self):
        with pytest.raises(ContractError):
            contrast(np.zeros((2, 2, 3), np.uint8), 0.0)

    def test_blur_invalid(self):
        with pytest.raises(ContractError):
            blur(np.zeros((2, 2, 3), np.uint8), -1)


    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_contrast_non_finite(self, factor):
        with pytest.raises(ContractError, match="finite"):
            contrast(rand_image(np.random.default_rng(9), 4, 4), factor)

    @pytest.mark.parametrize("radius", [2.5, 1.0, "2", None])
    def test_blur_non_integer_radius(self, radius):
        with pytest.raises(ContractError, match="integer"):
            blur(np.zeros((8, 8, 3), np.uint8), radius)

    @pytest.mark.parametrize("radius", [np.uint8(3), np.int64(3), np.int32(0)])
    def test_blur_numpy_integer_radius(self, radius):
        # more rows than a uint8 holds: row indices must not wrap
        img = rand_image(np.random.default_rng(8), 2, 300)
        assert np.array_equal(blur(img, radius), blur(img, int(radius)))

    @pytest.mark.parametrize("kernel", [
        lambda img: adjust_color(img, 1.0, 1.0),
        lambda img: blur(img, 0),
        lambda img: contrast(img, 1.0),
    ], ids=["color", "blur", "contrast"])
    def test_identity_settings_return_a_new_array(self, kernel):
        img = rand_image(np.random.default_rng(8), 5, 3)
        out = kernel(img)
        assert np.array_equal(out, img) and not np.shares_memory(out, img)


class TestImageContract:
    """Every transform rejects an image that is not (h, w, 3) uint8 with
    h, w >= 1, on its identity path too."""

    kernels = {
        "rotate-30": lambda img: rotate_with_boxes(AnnotatedImage(img), 30.0),
        "rotate-90": lambda img: rotate_with_boxes(AnnotatedImage(img), 90.0),
        "mirror": lambda img: mirror_with_boxes(AnnotatedImage(img)),
        "mirror-out": lambda img: mirror_with_boxes(
            AnnotatedImage(np.zeros((2, 3, 3), np.uint8)), img),
        "color": lambda img: adjust_color(img, 1.5, 0.7),
        "color-identity": lambda img: adjust_color(img),
        "blur": lambda img: blur(img, 1),
        "blur-identity": lambda img: blur(img, 0),
        "contrast": lambda img: contrast(img, 1.3),
        "contrast-identity": lambda img: contrast(img, 1.0),
    }
    dtypes = st.sampled_from(
        [np.uint8, np.int8, np.int16, np.uint16, np.int64, np.float32, np.float64, np.bool_])
    # mostly (h, w, 3) of another dtype, or uint8 of another shape
    shapes = st.one_of(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.just(3)),
        st.lists(st.integers(0, 5), max_size=4).map(tuple),
    )

    @pytest.mark.parametrize("name", list(kernels))
    @settings(deadline=None)
    @given(dtype=dtypes, shape=shapes)
    def test_rejects_other_images(self, name, dtype, shape):
        valid = dtype == np.uint8 and len(shape) == 3 and shape[2] == 3 and min(shape[:2]) >= 1
        if name == "mirror-out":  # out must match the (2, 3, 3) source as well
            valid = valid and shape == (2, 3, 3)
        img = np.ones(shape, dtype)
        if valid:
            self.kernels[name](img)
        else:
            with pytest.raises(ContractError):
                self.kernels[name](img)

    @pytest.mark.parametrize("name", list(kernels))
    def test_rejects_non_arrays(self, name):
        with pytest.raises(ContractError):
            self.kernels[name]([[[0, 0, 0]]])


def _turn(img, k, flip):
    """``img`` turned by k quarter turns, then flipped horizontally if asked."""
    out = np.rot90(img, k)
    return out[:, ::-1] if flip else out


class TestMirrorCommutes:
    """Horizontal flips and right-angle turns commute bit for bit with the
    non-geometric transforms."""

    images = arrays(
        np.uint8,
        st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3)),
    )
    # non-square, so a quarter turn changes the shape
    oblong = arrays(
        np.uint8,
        st.tuples(st.integers(1, 9), st.integers(1, 9))
        .filter(lambda hw: hw[0] != hw[1])
        .map(lambda hw: (*hw, 3)),
    )
    factors = st.floats(0.05, 4.0)
    turns = st.integers(1, 3)

    @given(images, factors, factors)
    def test_adjust_color(self, img, saturation, exposure):
        assert np.array_equal(
            adjust_color(img[:, ::-1], saturation, exposure),
            adjust_color(img, saturation, exposure)[:, ::-1],
        )

    @given(images, st.integers(0, 12))
    def test_blur(self, img, radius):
        assert np.array_equal(blur(img[:, ::-1], radius), blur(img, radius)[:, ::-1])

    @given(images, factors)
    def test_contrast(self, img, factor):
        assert np.array_equal(contrast(img[:, ::-1], factor), contrast(img, factor)[:, ::-1])

    @given(oblong, turns, st.booleans(), factors, factors)
    def test_adjust_color_turned(self, img, k, flip, saturation, exposure):
        assert np.array_equal(
            adjust_color(_turn(img, k, flip), saturation, exposure),
            _turn(adjust_color(img, saturation, exposure), k, flip),
        )

    # radii up to 12 exceed every side of these images
    @given(oblong, turns, st.booleans(), st.integers(0, 12))
    def test_blur_turned(self, img, k, flip, radius):
        assert np.array_equal(blur(_turn(img, k, flip), radius),
                              _turn(blur(img, radius), k, flip))

    @given(oblong, turns, st.booleans(), factors)
    def test_contrast_turned(self, img, k, flip, factor):
        assert np.array_equal(contrast(_turn(img, k, flip), factor),
                              _turn(contrast(img, factor), k, flip))


# Reference kernels: the straightforward full-array forms of the pixel
# transforms. The library kernels must reproduce their bytes exactly.


def reference_rotate_pixels(img, sin, cos, nw, nh):
    h, w = img.shape[:2]
    cx, cy = w / 2.0, h / 2.0
    ncx, ncy = nw / 2.0, nh / 2.0
    ys, xs = np.meshgrid(
        np.arange(nh, dtype=np.float64) + 0.5,
        np.arange(nw, dtype=np.float64) + 0.5,
        indexing="ij",
    )
    u = xs - ncx
    v = ys - ncy
    sx = cx + u * cos + v * sin
    sy = cy - u * sin + v * cos
    fx = sx - 0.5
    fy = sy - 0.5
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    tx = fx - x0
    ty = fy - y0
    out = np.zeros((nh, nw, 3), dtype=np.float64)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            wgt = (tx if dx else 1.0 - tx) * (ty if dy else 1.0 - ty)
            sample = np.zeros((nh, nw, 3), dtype=np.float64)
            sample[valid] = img[yi[valid], xi[valid]]
            out += sample * (wgt * valid)[..., None]
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def reference_adjust_color(img, saturation, exposure):
    rgb = img.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(delta > 0, delta, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.select(
        [delta == 0, r == maxc, g == maxc],
        [0.0, bc - gc, 2.0 + rc - bc],
        default=4.0 + gc - rc,
    )
    h = (h / 6.0) % 1.0
    s = np.clip(s * saturation, 0.0, 1.0)
    v = np.clip(v * exposure, 0.0, 1.0)
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    i = i.astype(np.int64) % 6
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    out = np.stack(
        [
            np.choose(i, [v, q, p, p, t, v]),
            np.choose(i, [t, v, v, q, p, p]),
            np.choose(i, [p, p, t, v, v, q]),
        ],
        axis=-1,
    )
    return np.clip(np.floor(out * 255.0 + 0.5), 0, 255).astype(np.uint8)


def reference_blur(img, radius):
    if radius == 0:
        return img.copy()
    h, w = img.shape[:2]
    ii = np.zeros((h + 1, w + 1, 3), dtype=np.int64)
    ii[1:, 1:] = img.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    ys = np.arange(h)
    xs = np.arange(w)
    y1 = np.clip(ys - radius, 0, h)
    y2 = np.clip(ys + radius + 1, 0, h)
    x1 = np.clip(xs - radius, 0, w)
    x2 = np.clip(xs + radius + 1, 0, w)
    sums = (
        ii[y2[:, None], x2[None, :]]
        - ii[y1[:, None], x2[None, :]]
        - ii[y2[:, None], x1[None, :]]
        + ii[y1[:, None], x1[None, :]]
    )
    counts = ((y2 - y1)[:, None] * (x2 - x1)[None, :])[..., None]
    return np.clip(np.floor(sums / counts + 0.5), 0, 255).astype(np.uint8)


def _rotate_both(img, angle):
    """(library, reference) bilinear rotation on the canvas rotate_with_boxes uses."""
    rad = math.radians(angle)
    sin, cos = math.sin(rad), math.cos(rad)
    h, w = img.shape[:2]
    nw = math.ceil(w * abs(cos) + h * abs(sin))
    nh = math.ceil(w * abs(sin) + h * abs(cos))
    return (
        detfuse.augment._rotate_pixels_arbitrary(img, sin, cos, nw, nh),
        reference_rotate_pixels(img, sin, cos, nw, nh),
    )


class TestKernelsMatchReference:
    images = arrays(
        np.uint8,
        st.tuples(st.integers(1, 17), st.integers(1, 17), st.just(3)),
    )
    factors = st.floats(0.05, 4.0)

    @settings(max_examples=200, deadline=None)
    @given(images, st.floats(0.0, 360.0, exclude_max=True))
    @example(np.arange(5 * 7 * 3, dtype=np.uint8).reshape(5, 7, 3), 89.999)
    @example(np.full((3, 4, 3), 255, np.uint8), 1e-9)
    def test_rotation(self, img, angle):
        got, expected = _rotate_both(img, angle)
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)

    @settings(max_examples=200, deadline=None)
    @given(images, factors, factors)
    def test_adjust_color(self, img, saturation, exposure):
        assert np.array_equal(
            adjust_color(img, saturation, exposure),
            reference_adjust_color(img, saturation, exposure),
        )

    @settings(max_examples=200, deadline=None)
    @given(images, st.integers(0, 40))
    def test_blur(self, img, radius):
        assert np.array_equal(blur(img, radius), reference_blur(img, radius))

    @pytest.mark.parametrize("saturation, exposure", [(1.5, 1.0), (0.7, 1.3), (1.0, 3.0)])
    def test_adjust_color_color_sweep(self, saturation, exposure):
        """Every colour whose channels are multiples of 3, ties and grays included."""
        levels = np.arange(0, 256, 3, dtype=np.uint8)
        img = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1)
        img = img.reshape(len(levels), -1, 3)
        assert np.array_equal(
            adjust_color(img, saturation, exposure),
            reference_adjust_color(img, saturation, exposure),
        )

    @pytest.mark.parametrize("angle", [1.0, 30.0, 45.0, 137.5, 200.0, 359.9])
    def test_rotation_full_size(self, angle):
        img = rand_image(np.random.default_rng(22), 64, 48)
        got, expected = _rotate_both(img, angle)
        assert np.array_equal(got, expected)

    def test_rotation_rounding_ties(self):
        """Small pixel values at these angles put sums exactly on a rounding
        tie, where the association and order of the float operations show."""
        rng = np.random.default_rng(25)
        for _ in range(40):
            h, w = rng.integers(1, 18, size=2)
            img = rng.integers(0, 4, size=(h, w, 3), dtype=np.uint8)
            for angle in (45.0, 120.0, 135.0, 150.0, 225.0, 300.0, 315.0):
                got, expected = _rotate_both(img, angle)
                assert np.array_equal(got, expected), (h, w, angle)

    def test_blur_exact_half_mean(self):
        # one 7 x 14 window over the whole image: 147 / 98 = 1.5 rounds up,
        # while 147 * (1 / 98) falls just below the tie
        img = np.ones((7, 14, 3), np.uint8)
        img[:, ::2] = 2
        assert np.array_equal(blur(img, 13), np.full_like(img, 2))
        assert np.array_equal(reference_blur(img, 13), np.full_like(img, 2))

    @pytest.mark.parametrize("radius", [1, 2, 5, 40, 10**9])
    def test_blur_full_size(self, radius):
        img = rand_image(np.random.default_rng(23), 64, 48)
        assert np.array_equal(blur(img, radius), reference_blur(img, radius))


def reference_contrast(img, factor):
    if factor == 1.0:
        return img.copy()
    out = (img.astype(np.float64) - 128.0) * factor + 128.0
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def _set_band_rows(monkeypatch, rows, width):
    """Make the kernels work in bands of ``rows`` rows of ``width`` pixels."""
    monkeypatch.setattr(detfuse.augment, "_BAND_PIXELS", rows * width)
    assert next(detfuse.augment._row_bands(rows + 1, width)) == (0, rows)


class TestRowBands:
    """Bands of a few rows, crossed by every window and every last partial
    band, give the bytes of the full-array reference kernels."""

    # (h, w): partial last bands, one row, one column
    shapes = pytest.mark.parametrize("h, w", [(23, 9), (1, 9), (33, 1), (10, 14)])
    band_rows = pytest.mark.parametrize("rows", [1, 2, 3, 7])

    @band_rows
    @shapes
    @pytest.mark.parametrize("angle", [30.0, 137.5, 359.9])
    def test_rotation(self, monkeypatch, rows, h, w, angle):
        img = rand_image(np.random.default_rng(27), w, h)
        _, expected = _rotate_both(img, angle)
        _set_band_rows(monkeypatch, rows, expected.shape[1])  # bands of output rows
        got, _ = _rotate_both(img, angle)
        assert np.array_equal(got, expected)

    @band_rows
    @shapes
    @pytest.mark.parametrize("saturation, exposure", [(1.5, 1.0), (0.7, 1.3)])
    def test_adjust_color(self, monkeypatch, rows, h, w, saturation, exposure):
        img = rand_image(np.random.default_rng(28), w, h)
        _set_band_rows(monkeypatch, rows, w)
        assert np.array_equal(
            adjust_color(img, saturation, exposure),
            reference_adjust_color(img, saturation, exposure),
        )

    @band_rows
    @shapes
    @pytest.mark.parametrize("radius", [1, 2, 5, 8, 33, 10**9])
    def test_blur(self, monkeypatch, rows, h, w, radius):
        img = rand_image(np.random.default_rng(29), w, h)
        _set_band_rows(monkeypatch, rows, w)
        assert np.array_equal(blur(img, radius), reference_blur(img, radius))

    @band_rows
    @shapes
    @pytest.mark.parametrize("factor", [0.6, 1.3])
    def test_contrast(self, monkeypatch, rows, h, w, factor):
        img = rand_image(np.random.default_rng(30), w, h)
        _set_band_rows(monkeypatch, rows, w)
        assert np.array_equal(contrast(img, factor), reference_contrast(img, factor))

    def test_bands_tile_the_rows(self):
        bands = list(detfuse.augment._row_bands(736, 795))
        assert bands[0][0] == 0 and bands[-1][1] == 736
        assert all(a[1] == b[0] for a, b in zip(bands, bands[1:]))
        assert all((r1 - r0) * 795 <= detfuse.augment._BAND_PIXELS for r0, r1 in bands)


def test_kernel_temporaries_are_band_sized():
    # tracemalloc peaks on the 736 x 795 canvas of a 30-degree turn of
    # 480 x 640, output included: 73.5, 67 and 58 MiB when every temporary
    # spanned the canvas, about 5, 4 and 4 MiB in bands
    img = rand_image(np.random.default_rng(31), 640, 480)

    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rotated, rotate_peak = traced_peak(rotate_with_boxes, AnnotatedImage(img), 30.0)
    assert rotated.image.shape == (736, 795, 3)
    _, color_peak = traced_peak(adjust_color, rotated.image, 1.5, 1.0)
    _, blur_peak = traced_peak(blur, rotated.image, 2)
    peaks = (rotate_peak, color_peak, blur_peak)
    assert max(peaks) <= 12 * 2**20, peaks


def test_expand_working_set_is_bounded(tmp_path):
    # tracemalloc peak of expand_dataset over two 640 x 480 images with the
    # augment-grid benchmark's grid, in bytes of its largest array, the
    # 736 x 795 canvas of the 30-degree turn: 6.1 when loop variables
    # held each image's, colour's and turn's arrays past their last use,
    # 3.6 when each is released there (the source, the canvas, a
    # blurred copy and its mirror)
    rng = np.random.default_rng(32)
    entries = []
    for i in range(2):
        write_ppm(tmp_path / f"im{i}.ppm", rand_image(rng, 640, 480))
        save_annotations(tmp_path / f"im{i}.txt", [ann((100, 80, 300, 260), 0, f"im{i}")])
        entries.append((str(tmp_path / f"im{i}.ppm"), str(tmp_path / f"im{i}.txt")))
    write_manifest(tmp_path / "manifest.txt", entries)
    spec = AugmentSpec(rotations=(0.0, 30.0, 90.0), saturation_factors=(1.0, 1.5),
                       mirror=True, blur_radii=(2,))
    tracemalloc.start()
    try:
        result = expand_dataset(tmp_path / "manifest.txt", spec, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.entries) == 2 * 3 * 2 * 2 * 2
    canvas = 736 * 795 * 3
    assert peak <= 4.5 * canvas, peak / canvas


def test_expand_working_set_is_two_canvases(tmp_path):
    # the setup of test_expand_working_set_is_bounded: 3.6 canvases when the
    # mirror copied every variant and the source lived to the image's end,
    # 2.75 when owned arrays are flipped in place, the source is released
    # after its last canvas and the bands hold 2**13 pixels
    rng = np.random.default_rng(32)
    entries = []
    for i in range(2):
        write_ppm(tmp_path / f"im{i}.ppm", rand_image(rng, 640, 480))
        save_annotations(tmp_path / f"im{i}.txt", [ann((100, 80, 300, 260), 0, f"im{i}")])
        entries.append((str(tmp_path / f"im{i}.ppm"), str(tmp_path / f"im{i}.txt")))
    write_manifest(tmp_path / "manifest.txt", entries)
    spec = AugmentSpec(rotations=(0.0, 30.0, 90.0), saturation_factors=(1.0, 1.5),
                       mirror=True, blur_radii=(2,))
    tracemalloc.start()
    try:
        result = expand_dataset(tmp_path / "manifest.txt", spec, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.entries) == 2 * 3 * 2 * 2 * 2
    canvas = 736 * 795 * 3
    assert peak <= 3.0 * canvas, peak / canvas


class TestSpecValidation:
    def test_bad_rotation(self):
        with pytest.raises(ContractError):
            AugmentSpec(rotations=(400.0,))

    def test_bad_factor(self):
        with pytest.raises(ContractError):
            AugmentSpec(saturation_factors=(0.0,))

    @pytest.mark.parametrize("axis", ["saturation_factors", "exposure_factors", "contrast_factors"])
    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, 1e307])
    def test_non_finite_factor(self, axis, factor):
        # 1e307 is finite, but its file-name part round(f * 100) is not
        with pytest.raises(ContractError, match="finite"):
            AugmentSpec(**{axis: (factor,)})

    @pytest.mark.parametrize("radius", [2.5, -1, math.nan])
    def test_bad_blur_radius(self, radius):
        with pytest.raises(ContractError, match="blur radii"):
            AugmentSpec(blur_radii=(radius,))

    def test_numpy_integer_blur_radius_accepted(self):
        AugmentSpec(blur_radii=(np.int64(2), np.uint8(0)))

    def test_extreme_finite_factors_accepted(self):
        # too long for a file name, which expand_dataset rejects when planning
        AugmentSpec(saturation_factors=(1e300,), contrast_factors=(5e-324,))


def _write_source(tmp_path, rng, n_images=2, w=24, h=18):
    entries = []
    for i in range(n_images):
        img = rand_image(rng, w, h)
        img_path = tmp_path / f"src{i}.ppm"
        ann_path = tmp_path / f"src{i}.txt"
        write_ppm(img_path, img)
        save_annotations(
            ann_path,
            [ann((2, 2, 12, 10), 0, f"src{i}"), ann((5, 4, 20, 16), 1, f"src{i}")],
        )
        entries.append((str(img_path), str(ann_path)))
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, entries)
    return manifest, entries


class TestExpandDataset:
    def test_identity_spec(self, tmp_path):
        rng = np.random.default_rng(10)
        manifest, entries = _write_source(tmp_path, rng)
        result = expand_dataset(manifest, AugmentSpec(), tmp_path / "out")
        assert len(result.entries) == len(entries)
        assert result.boxes_dropped == 0
        for (img_out, _), (img_in, _) in zip(result.entries, entries):
            assert np.array_equal(read_ppm(img_out), read_ppm(img_in))

    def test_best_row_grid_is_16_variants(self, tmp_path):
        rng = np.random.default_rng(11)
        manifest, _ = _write_source(tmp_path, rng, n_images=1)
        spec = AugmentSpec(
            rotations=(0.0, 45.0, 90.0, 180.0),
            saturation_factors=(1.0, 1.2, 1.5, 1.8),
        )
        result = expand_dataset(manifest, spec, tmp_path / "out")
        assert len(result.entries) == 16
        names = {os.path.basename(p) for p, _ in result.entries}
        assert "src0_r000_s100_e100.ppm" in names
        assert "src0_r045_s180_e100.ppm" in names

    def test_seven_rotation_grid(self, tmp_path):
        rng = np.random.default_rng(12)
        manifest, _ = _write_source(tmp_path, rng, n_images=1)
        spec = AugmentSpec(rotations=(0.0, 45.0, 90.0, 135.0, 180.0, 255.0, 270.0))
        result = expand_dataset(manifest, spec, tmp_path / "out")
        assert len(result.entries) == 7

    def test_deterministic_reruns(self, tmp_path):
        rng = np.random.default_rng(13)
        manifest, _ = _write_source(tmp_path, rng)
        spec = AugmentSpec(rotations=(0.0, 90.0), saturation_factors=(1.0, 1.5), mirror=True)
        r1 = expand_dataset(manifest, spec, tmp_path / "out1")
        r2 = expand_dataset(manifest, spec, tmp_path / "out2")
        m1 = Path(r1.manifest_path).read_bytes().replace(b"out1", b"out2")
        m2 = Path(r2.manifest_path).read_bytes()
        assert m1 == m2
        for (a, _), (b, _) in zip(r1.entries, r2.entries):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_box_conservation_counts(self, tmp_path):
        rng = np.random.default_rng(14)
        manifest, _ = _write_source(tmp_path, rng)
        spec = AugmentSpec(rotations=(0.0, 45.0, 313.0))
        result = expand_dataset(manifest, spec, tmp_path / "out")
        assert result.boxes_emitted + result.boxes_dropped == result.boxes_in

    def test_zero_width_box_dropped_by_right_angles(self, tmp_path):
        write_ppm(tmp_path / "im.ppm", rand_image(np.random.default_rng(15), 20, 10))
        save_annotations(tmp_path / "im.txt", [ann((5, 2, 5, 8)), ann((1, 1, 9, 9))])
        write_manifest(tmp_path / "manifest.txt",
                       [(str(tmp_path / "im.ppm"), str(tmp_path / "im.txt"))])
        spec = AugmentSpec(rotations=(0.0, 30.0, 90.0))
        result = expand_dataset(tmp_path / "manifest.txt", spec, tmp_path / "out")
        assert (result.boxes_in, result.boxes_emitted, result.boxes_dropped) == (6, 4, 2)

    def test_unreadable_input_recorded(self, tmp_path):
        rng = np.random.default_rng(15)
        manifest, entries = _write_source(tmp_path, rng)
        os.remove(entries[0][0])
        result = expand_dataset(manifest, AugmentSpec(), tmp_path / "out")
        assert len(result.errors) == 1
        assert len(result.entries) == 1

    def test_provenance_index(self, tmp_path):
        rng = np.random.default_rng(16)
        manifest, entries = _write_source(tmp_path, rng, n_images=1)
        result = expand_dataset(
            manifest, AugmentSpec(rotations=(0.0, 90.0)), tmp_path / "out"
        )
        lines = Path(result.provenance_path).read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            derived, source = line.split()
            assert source == entries[0][0]
            assert os.path.exists(derived)

    @pytest.mark.parametrize("failing", ["manifest.txt", "provenance.txt"])
    def test_failing_bookkeeping_write_leaves_no_partial_file(self, tmp_path, monkeypatch, failing):
        manifest, _ = _write_source(tmp_path, np.random.default_rng(24))
        out = tmp_path / "out"

        def write_then_fail(path, entries):
            def first_then_disk_full(pairs):
                yield pairs[0]
                raise OSError(28, "No space left on device")

            if os.path.basename(path) == failing:
                entries = first_then_disk_full(list(entries))
            detfuse.io.write_manifest(path, entries)

        monkeypatch.setattr(detfuse.augment, "write_manifest", write_then_fail)
        with pytest.raises(OSError):
            expand_dataset(manifest, AugmentSpec(rotations=(0.0, 90.0)), out)
        names = os.listdir(out)
        assert failing not in names
        assert not [n for n in names if n.endswith(".tmp")]
        assert len([n for n in names if n.endswith(".ppm")]) == 4

    def test_manifest_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        manifest, _ = _write_source(tmp_path, rng)
        result = expand_dataset(manifest, AugmentSpec(), tmp_path / "out")
        assert read_manifest(result.manifest_path) == result.entries


def _reference_variants(image, anns, stem, spec):
    """Every variant composed on its own, in the order rotate, mirror, color,
    blur, contrast: (name, pixels, annotations)."""
    for rot, sat, exp, mirrored, radius, cfac in product(
        spec.rotations,
        spec.saturation_factors,
        spec.exposure_factors,
        [False, True] if spec.mirror else [False],
        [0, *spec.blur_radii],
        [1.0, *spec.contrast_factors],
    ):
        name = f"{stem}_r{round(rot):03d}_s{round(sat * 100):03d}_e{round(exp * 100):03d}"
        name += ("_m" if mirrored else "") + (f"_b{radius:02d}" if radius else "")
        name += f"_c{round(cfac * 100):03d}" if cfac != 1.0 else ""
        work = rotate_with_boxes(AnnotatedImage(image, list(anns)), rot)
        if mirrored:
            work = mirror_with_boxes(work)
        pixels = contrast(blur(adjust_color(work.image, sat, exp), radius), cfac)
        yield name, pixels, [GroundTruthRecord(name, a.class_id, a.box) for a in work.annotations]


FULL_GRID = AugmentSpec(
    rotations=(0.0, 37.5, 90.0, 180.0, 270.0),
    saturation_factors=(1.0, 1.6),
    exposure_factors=(1.0, 0.7),
    mirror=True,
    blur_radii=(1, 40),
    contrast_factors=(1.3,),
)


class TestExpandEquivalence:
    def test_matches_per_variant_composition(self, tmp_path):
        rng = np.random.default_rng(18)
        sources = []
        for stem, (w, h) in (("odd", (13, 9)), ("tall", (7, 11))):
            image = rand_image(rng, w, h)
            anns = [ann((1.5, 0.5, 9.0, 6.25), 0, stem), ann((0, 2, w, h), 1, stem)]
            write_ppm(tmp_path / f"{stem}.ppm", image)
            save_annotations(tmp_path / f"{stem}.txt", anns)
            sources.append((stem, image, anns))
        write_manifest(
            tmp_path / "manifest.txt",
            [(str(tmp_path / f"{s}.ppm"), str(tmp_path / f"{s}.txt")) for s, _, _ in sources],
        )
        result = expand_dataset(tmp_path / "manifest.txt", FULL_GRID, tmp_path / "out")

        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        expected = [
            variant
            for stem, image, anns in sources
            for variant in _reference_variants(image, anns, stem, FULL_GRID)
        ]
        assert len(expected) == 2 * 5 * 2 * 2 * 2 * 3 * 2
        assert len(result.entries) == len(expected)
        for (img_out, ann_out), (name, pixels, anns) in zip(result.entries, expected):
            assert os.path.basename(img_out) == name + ".ppm"
            write_ppm(ref_dir / "v.ppm", pixels)
            save_annotations(ref_dir / "v.txt", anns)
            assert Path(img_out).read_bytes() == (ref_dir / "v.ppm").read_bytes(), name
            assert Path(ann_out).read_bytes() == (ref_dir / "v.txt").read_bytes(), name

    def test_each_prefix_computed_once(self, tmp_path, monkeypatch):
        names = ("rotate_with_boxes", "adjust_color", "blur", "mirror_with_boxes", "contrast")
        calls = {fn_name: [] for fn_name in names}
        for fn_name, log in calls.items():
            original = getattr(detfuse.augment, fn_name)

            def counted(*args, _original=original, _log=log):
                _log.append(args[1:])
                return _original(*args)

            monkeypatch.setattr(detfuse.augment, fn_name, counted)
        manifest, _ = _write_source(tmp_path, np.random.default_rng(19), n_images=2)
        result = expand_dataset(manifest, FULL_GRID, tmp_path / "out")
        assert len(result.entries) == 2 * 240
        # per image: the source canvas serves 0/90/180/270 and 37.5 resamples
        # its own; identity colour and radius 0 are not computed
        n_canvas, n_color, n_radii = 2, 2 * 2, 3
        assert len(calls["adjust_color"]) == 2 * n_canvas * (n_color - 1)
        assert len(calls["blur"]) == 2 * n_canvas * n_color * (n_radii - 1)
        assert calls["adjust_color"][:n_color - 1] == [(1.0, 0.7), (1.6, 1.0), (1.6, 0.7)]
        assert calls["blur"][:n_radii - 1] == [(1,), (40,)]
        # the turns come last, once per source-canvas colour and radius, and
        # each then mirrors once; contrast 1 is passed on without a call
        per_image = [(a,) for a in (0.0, 90.0, 180.0, 270.0)] * (n_color * n_radii) + [(37.5,)]
        assert calls["rotate_with_boxes"] == per_image * 2
        assert len(calls["mirror_with_boxes"]) == 2 * 5 * n_color * n_radii
        assert len(calls["contrast"]) == 2 * 5 * n_color * n_radii * 2
        assert all(args == (1.3,) for args in calls["contrast"])

    @pytest.mark.parametrize(
        "spec, sizes",
        [
            # the 0-degree turn of the source is the identity colour's last
            # turn, and the second colour reads the source after it
            (AugmentSpec(rotations=(270.0, 90.0, 0.0), saturation_factors=(1.0, 1.5),
                         mirror=True), [(13, 9), (7, 11)]),
            # a quarter turn of one row or column can keep the source's
            # memory, so only a copy it really made is flipped in place
            (AugmentSpec(rotations=(90.0, 180.0, 270.0, 0.0), saturation_factors=(1.0, 1.5),
                         mirror=True, blur_radii=(1,), contrast_factors=(1.3,)),
             [(6, 1), (1, 5), (1, 1)]),
        ],
        ids=["zero-turn-last", "one-row-or-column"],
    )
    def test_in_place_flips_match_per_variant_composition(self, tmp_path, spec, sizes):
        rng = np.random.default_rng(37)
        sources = []
        for i, (w, h) in enumerate(sizes):
            stem = f"im{i}"
            image = rand_image(rng, w, h)
            anns = [ann((0.0, 0.0, w / 2, h), 0, stem)]
            write_ppm(tmp_path / f"{stem}.ppm", image)
            save_annotations(tmp_path / f"{stem}.txt", anns)
            sources.append((stem, image, anns))
        write_manifest(
            tmp_path / "manifest.txt",
            [(str(tmp_path / f"{s}.ppm"), str(tmp_path / f"{s}.txt")) for s, _, _ in sources],
        )
        result = expand_dataset(tmp_path / "manifest.txt", spec, tmp_path / "out")
        expected = [
            variant
            for stem, image, anns in sources
            for variant in _reference_variants(image, anns, stem, spec)
        ]
        assert len(result.entries) == len(expected)
        for (img_out, ann_out), (name, pixels, anns) in zip(result.entries, expected):
            assert os.path.basename(img_out) == name + ".ppm"
            assert np.array_equal(read_ppm(img_out), pixels), name
            assert load_annotations(ann_out, name) == anns, name


class TestNamePlanning:
    def test_rounding_collision_writes_nothing(self, tmp_path):
        manifest, _ = _write_source(tmp_path, np.random.default_rng(20), n_images=1)
        out = tmp_path / "out"
        with pytest.raises(ContractError, match="src0_r030_s100_e100"):
            expand_dataset(manifest, AugmentSpec(rotations=(30.0, 30.2)), out)
        assert not out.exists()

    def test_duplicate_stem_across_directories(self, tmp_path):
        rng = np.random.default_rng(21)
        entries = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_ppm(tmp_path / sub / "pic.ppm", rand_image(rng, 6, 5))
            save_annotations(tmp_path / sub / "pic.txt", [ann((1, 1, 4, 4), 0, "pic")])
            entries.append((str(tmp_path / sub / "pic.ppm"), str(tmp_path / sub / "pic.txt")))
        write_manifest(tmp_path / "manifest.txt", entries)
        out = tmp_path / "out"
        with pytest.raises(ContractError, match="pic_r000_s100_e100"):
            expand_dataset(tmp_path / "manifest.txt", AugmentSpec(), out)
        assert not out.exists()
