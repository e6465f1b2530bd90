import colorsys
import math
import os

from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import detfuse.augment
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
from detfuse.io import read_manifest, read_ppm, save_annotations, write_manifest, write_ppm


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
        with pytest.raises(ValueError):
            rotate_with_boxes(src, 360)
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            adjust_color(img, saturation=0.0)
        with pytest.raises(ValueError):
            adjust_color(img, exposure=-1.0)


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
        with pytest.raises(ValueError):
            contrast(np.zeros((2, 2, 3), np.uint8), 0.0)


class TestMirrorCommutes:
    """A horizontal flip commutes bit for bit with the non-geometric transforms."""

    images = arrays(
        np.uint8,
        st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3)),
    )
    factors = st.floats(0.05, 4.0)

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


class TestSpecValidation:
    def test_bad_rotation(self):
        with pytest.raises(ContractError):
            AugmentSpec(rotations=(400.0,))

    def test_bad_factor(self):
        with pytest.raises(ContractError):
            AugmentSpec(saturation_factors=(0.0,))


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
        m1 = open(r1.manifest_path, "rb").read().replace(b"out1", b"out2")
        m2 = open(r2.manifest_path, "rb").read()
        assert m1 == m2
        for (a, _), (b, _) in zip(r1.entries, r2.entries):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_box_conservation_counts(self, tmp_path):
        rng = np.random.default_rng(14)
        manifest, _ = _write_source(tmp_path, rng)
        spec = AugmentSpec(rotations=(0.0, 45.0, 313.0))
        result = expand_dataset(manifest, spec, tmp_path / "out")
        assert result.boxes_emitted + result.boxes_dropped == result.boxes_in

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
        lines = open(result.provenance_path).read().splitlines()
        assert len(lines) == 2
        for line in lines:
            derived, source = line.split()
            assert source == entries[0][0]
            assert os.path.exists(derived)

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
    rotations=(0.0, 37.5, 90.0),
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
        assert len(expected) == 2 * 3 * 2 * 2 * 2 * 3 * 2
        assert len(result.entries) == len(expected)
        for (img_out, ann_out), (name, pixels, anns) in zip(result.entries, expected):
            assert os.path.basename(img_out) == name + ".ppm"
            write_ppm(ref_dir / "v.ppm", pixels)
            save_annotations(ref_dir / "v.txt", anns)
            assert open(img_out, "rb").read() == (ref_dir / "v.ppm").read_bytes(), name
            assert open(ann_out, "rb").read() == (ref_dir / "v.txt").read_bytes(), name

    def test_each_prefix_computed_once(self, tmp_path, monkeypatch):
        calls = {"rotate_with_boxes": [], "adjust_color": [], "blur": []}
        for fn_name, log in calls.items():
            original = getattr(detfuse.augment, fn_name)

            def counted(*args, _original=original, _log=log):
                _log.append(args[1:])
                return _original(*args)

            monkeypatch.setattr(detfuse.augment, fn_name, counted)
        manifest, _ = _write_source(tmp_path, np.random.default_rng(19), n_images=2)
        result = expand_dataset(manifest, FULL_GRID, tmp_path / "out")
        assert len(result.entries) == 2 * 144
        n_rot, n_color, n_radii = 3, 2 * 2, 3
        assert len(calls["rotate_with_boxes"]) == 2 * n_rot
        assert len(calls["adjust_color"]) == 2 * n_rot * n_color
        assert len(calls["blur"]) == 2 * n_rot * n_color * n_radii
        assert calls["rotate_with_boxes"][:n_rot] == [(0.0,), (37.5,), (90.0,)]
        assert calls["adjust_color"][:n_color] == [(1.0, 1.0), (1.0, 0.7), (1.6, 1.0), (1.6, 0.7)]
        assert calls["blur"][:n_radii] == [(0,), (1,), (40,)]


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
