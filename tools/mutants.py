"""A mutation table for the referee tests.

Each entry plants one known fault in a copy of ``src/`` and names the tests
that must catch it. The faults are ones that earlier changes checked their
tests against by hand; kept here, they are checked again on every run, so a
later edit that weakens a referee shows.

    python -m pytest -q tools     # the gate: every mutant killed
    python tools/mutants.py       # one line per mutant: killed or survived

The mutants and the unmutated copy run in parallel, one pytest process
per CPU.

A mutant is killed when its named tests run and at least one fails; a copy
that does not import or collect counts as survived, so a mutant must stay a
working program with a wrong result. ``tools/test_mutants.py`` also checks
that every old snippet occurs exactly once in today's source and that the
unmutated copy passes every named test. Kill a surviving mutant by adding a
test, never by editing ``tests/oracles.py`` or the reference kernels.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; a mutant that loops forever fails its check
TESTS_FAILED = 1  # pytest's exit code when tests ran and some failed


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str  # relative to src/
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


AUGMENT = "detfuse/augment.py"
IO = "detfuse/io.py"
LOSS = "detfuse/yolo_loss.py"
EVALUATION = "detfuse/evaluation.py"
EXPAND_EQUIVALENCE = "tests/test_augment.py::TestExpandEquivalence"
BLACK_MARGINS = "tests/test_augment.py::TestBlackMargins"
KERNELS_MATCH_REFERENCE = "tests/test_augment.py::TestKernelsMatchReference"
EVALUATE_DATASET = "tests/test_evaluation.py::TestEvaluateDataset"
MATCHING_EDGES = "tests/test_evaluation.py::TestMatchingEdges"
JSON_EQUALS_LOADS = "tests/test_io.py::test_json_value_equals_json_loads"

MUTANTS = (
    Mutant(
        id="flip-shared-last-turn",
        path=AUGMENT,
        old="owned = bool(turn) or (radius > 0 and k == len(turns) - 1)",
        new="owned = bool(turn) or k == len(turns) - 1",
        tests=(
            f"{EXPAND_EQUIVALENCE}::test_in_place_flips_match_per_variant_composition"
            "[zero-turn-last]",
            f"{EXPAND_EQUIVALENCE}::test_matches_per_variant_composition",
        ),
    ),
    Mutant(
        id="flip-every-variant",
        path=AUGMENT,
        old="owned = bool(turn) or (radius > 0 and k == len(turns) - 1)",
        new="owned = True",
        tests=(f"{EXPAND_EQUIVALENCE}::test_matches_per_variant_composition",),
    ),
    Mutant(
        id="right-angle-turn-as-view",
        path=AUGMENT,
        old="out_img = (turned.copy() if angle else np.ascontiguousarray(turned)).view(np.uint8)",
        new="out_img = np.ascontiguousarray(turned).view(np.uint8)",
        tests=(
            f"{EXPAND_EQUIVALENCE}::test_in_place_flips_match_per_variant_composition"
            "[one-row-or-column]",
        ),
    ),
    Mutant(
        id="source-released-at-first-canvas",
        path=AUGMENT,
        old="boxes_emitted += _expand_canvas(held, resample, k == len(plan) - 1,",
        new="boxes_emitted += _expand_canvas(held, resample, k == 0,",
        tests=(
            "tests/test_augment.py::TestExpandDataset::test_seven_rotation_grid",
            f"{EXPAND_EQUIVALENCE}::test_matches_per_variant_composition",
        ),
    ),
    Mutant(
        id="source-never-released",
        path=AUGMENT,
        old="boxes_emitted += _expand_canvas(held, resample, k == len(plan) - 1,",
        new="boxes_emitted += _expand_canvas(held, resample, False,",
        tests=("tests/test_augment.py::test_expand_working_set_is_two_canvases",),
    ),
    Mutant(
        id="in-place-mirror-reverses-channels",
        path=AUGMENT,
        old="out[r0:r1, :, c] = band[:, ::-1, c]",
        new="out[r0:r1, :, c] = band[:, ::-1, 2 - c if in_place else c]",
        tests=(
            "tests/test_augment.py::TestMirror::test_in_place_equals_flipping_a_copy",
            "tests/test_augment.py::TestMirror::test_bands",
        ),
    ),
    Mutant(
        id="180-resampled-not-turned",
        path=AUGMENT,
        old="right = [(rot, rot) for rot in rotations if rot in _EXACT_TRIG]\n"
            "    plan: list[tuple[float | None, list]] = [(None, right)] if right else []\n"
            "    return plan + [(rot, [(rot, None)]) for rot in rotations if rot not in _EXACT_TRIG]",
        new="right = [(rot, rot) for rot in rotations if rot in _EXACT_TRIG and rot != 180]\n"
            "    plan: list[tuple[float | None, list]] = [(None, right)] if right else []\n"
            "    return plan + [(rot, [(rot, None)]) for rot in rotations\n"
            "                   if rot not in _EXACT_TRIG or rot == 180]",
        tests=(f"{EXPAND_EQUIVALENCE}::test_each_prefix_computed_once",),
    ),
    Mutant(
        id="identity-colour-on-saturation-alone",
        path=AUGMENT,
        old="if (sat, exp) != (1.0, 1.0):",
        new="if sat != 1.0:",
        tests=(
            f"{EXPAND_EQUIVALENCE}::test_matches_per_variant_composition",
            f"{EXPAND_EQUIVALENCE}::test_each_prefix_computed_once",
        ),
    ),
    Mutant(
        id="blur-leaving-row-off-by-one",
        path=AUGMENT,
        old="changing -= pixels[y - ry - 1]  # the row leaving it",
        new="changing -= pixels[y - ry]  # the row leaving it",
        tests=(
            "tests/test_augment.py::TestKernelsMatchReference::test_blur",
            "tests/test_augment.py::TestRowBands::test_blur",
        ),
    ),
    Mutant(
        id="match-at-iou-equal-to-threshold",
        path=EVALUATION,
        old="r, c = np.nonzero(block > iou_threshold)",
        new="r, c = np.nonzero(block >= iou_threshold)",
        tests=("tests/test_evaluation.py",),
    ),
    Mutant(
        id="candidate-ties-in-reverse",
        path=EVALUATION,
        old="k = np.lexsort((c, -block[r, c], r))",
        new="k = np.lexsort((-c, -block[r, c], r))",
        tests=(f"{MATCHING_EDGES}::test_equal_iou_goes_to_first_ground_truth",),
    ),
    Mutant(
        id="class-aware-scan-ignores-class",
        path=EVALUATION,
        old="if aware and not taken[j] and gt_class[j] == class_id:",
        new="if aware and not taken[j]:",
        tests=("tests/test_evaluation.py::TestMatching::test_class_must_match",),
    ),
    Mutant(
        id="mirror-bound-as-default-argument",
        path=AUGMENT,
        old="turns: list, axes: _Axes, prefix: str) -> int:",
        new="turns: list, axes: _Axes, prefix: str, mirror_with_boxes=mirror_with_boxes) -> int:",
        tests=("tests/test_bench_hooks.py::test_traced_augment_records_each_kernel",),
    ),
    Mutant(
        id="target-accepts-nan-width",
        path=LOSS,
        old="if not (self.w > 0 and self.h > 0):  # NaN fails too",
        new="if self.w <= 0 or self.h <= 0:  # NaN fails too",
        tests=("tests/test_loss.py::test_nan_wh_rejected",),
    ),
    Mutant(
        id="write-ppm-without-image-check",
        path=IO,
        old="    check_image(img)\n    h, w = img.shape[:2]\n",
        new="    h, w = img.shape[:2]\n",
        tests=("tests/test_io.py::test_write_ppm_rejects_non_rgb8",),
    ),
    Mutant(
        id="ppm-comment-ends-at-whitespace",
        path=IO,
        old='rb"(?:\\s|#[^\\n]*)*(\\S*)"',
        new='rb"(?:\\s|#\\S*)*(\\S*)"',
        tests=("tests/test_io.py::test_ppm_with_comments",
               "tests/test_io.py::test_ppm_header_tokens"),
    ),
    Mutant(
        id="colour-accepts-non-finite",
        path=AUGMENT,
        old="if not (0 < saturation < math.inf and 0 < exposure < math.inf):",
        new="if saturation <= 0 or exposure <= 0:",
        tests=("tests/test_augment.py::TestColor::test_non_finite_factors",),
    ),
    Mutant(
        id="contrast-accepts-non-finite",
        path=AUGMENT,
        old="if not 0 < factor < math.inf:",
        new="if factor <= 0:",
        tests=("tests/test_augment.py::TestBlurContrast::test_contrast_non_finite",),
    ),
    Mutant(
        id="blur-accepts-non-integer-radius",
        path=AUGMENT,
        old="if not (isinstance(radius, numbers.Integral) and radius >= 0):",
        new="if radius < 0:",
        tests=("tests/test_augment.py::TestBlurContrast::test_blur_non_integer_radius",),
    ),
    Mutant(
        id="blur-uint8-radius-wraps",
        path=AUGMENT,
        old="ry, rx = min(int(radius), h), min(int(radius), w)",
        new="ry, rx = min(radius, h), min(radius, w)",
        tests=("tests/test_augment.py::TestBlurContrast::test_blur_numpy_integer_radius",),
    ),
    Mutant(
        id="spec-accepts-non-integer-radius",
        path=AUGMENT,
        old="if not all(isinstance(r, numbers.Integral) and r >= 0 for r in self.blur_radii):",
        new="if not all(r >= 0 for r in self.blur_radii):",
        tests=("tests/test_augment.py::TestSpecValidation::test_bad_blur_radius",),
    ),
    Mutant(
        id="rotation-keeps-zero-width-box",
        path=AUGMENT,
        old="if x2 - x1 <= 0 or y2 - y1 <= 0:",
        new="if x2 - x1 < 0 or y2 - y1 < 0:",
        tests=("tests/test_augment.py::TestRotation::test_zero_width_box",
               "tests/test_augment.py::TestExpandDataset"
               "::test_zero_width_box_dropped_by_right_angles"),
    ),
    Mutant(
        id="unknown-prob-mode-accepted",
        path="detfuse/fusion.py",
        old="if prob_mode not in PROB_MODES:",
        new="if prob_mode is None:",
        tests=("tests/test_fusion.py::test_unknown_prob_mode_rejected",),
    ),
    Mutant(
        id="loss-rejects-zero-wh",
        path=LOSS,
        old="if p.w < 0 or p.h < 0:",
        new="if p.w <= 0 or p.h < 0:",
        tests=("tests/test_loss.py::test_zero_wh_has_a_loss_but_no_gradient",),
    ),
    Mutant(
        id="loss-ignores-negative-height",
        path=LOSS,
        old="if p.w < 0 or p.h < 0:",
        new="if p.w < 0:",
        tests=("tests/test_loss.py::test_negative_height_rejected",),
    ),
    Mutant(
        id="gradient-accepts-zero-wh",
        path=LOSS,
        old="if p.w <= 0 or p.h <= 0:",
        new="if p.w < 0 or p.h < 0:",
        tests=("tests/test_loss.py::test_zero_wh_has_a_loss_but_no_gradient",),
    ),
    Mutant(
        id="gradient-ignores-non-positive-height",
        path=LOSS,
        old="if p.w <= 0 or p.h <= 0:",
        new="if p.w <= 0:",
        tests=("tests/test_loss.py::test_zero_wh_has_a_loss_but_no_gradient",
               "tests/test_loss.py::test_negative_height_rejected"),
    ),
    Mutant(
        id="mirror-strided-source-in-place",
        path=AUGMENT,
        old="elif img.flags.c_contiguous and img.flags.writeable:",
        new="elif img.flags.writeable:",
        tests=("tests/test_augment.py::TestMirror"
               "::test_strided_source_cannot_be_flipped_in_place",),
    ),
    Mutant(
        id="ground-truths-counted-twice",
        path=EVALUATION,
        old="gt_counts[g.class_id] += 1",
        new="gt_counts[g.class_id] += 2",
        tests=(f"{EVALUATE_DATASET}::test_tp_plus_fn_equals_gt_count",
               f"{EVALUATE_DATASET}::test_matches_brute_force"),
    ),
    Mutant(
        id="ap-ties-in-reverse",
        path=EVALUATION,
        old="by_class.get(class_id, []), key=lambda i: (-preds[i].prob, i)",
        new="by_class.get(class_id, []), key=lambda i: (-preds[i].prob, -i)",
        tests=(f"{EVALUATE_DATASET}::test_score_ties_rank_in_input_order",),
    ),
    Mutant(
        id="rotation-band-rows-reversed",
        path=AUGMENT,
        old="v = vs[r0:r1, None]",
        new="v = vs[r0:r1][::-1, None]",
        tests=("tests/test_augment.py::TestKernelsMatchReference::test_rotation",
               "tests/test_augment.py::TestRowBands::test_rotation"),
    ),
    Mutant(
        id="fuse-writes-images-unsorted",
        path="detfuse/cli.py",
        old="for image_id in sorted(by_image):",
        new="for image_id in list(by_image):",
        tests=("tests/test_cli.py::test_fuse_writes_images_in_sorted_order",),
    ),
    Mutant(
        id="loss-accepts-non-finite-prediction",
        path=LOSS,
        old="map(math.isfinite, (p.x, p.y, p.w, p.h, p.conf, *p.class_probs))",
        new="map(math.isfinite, ())",
        tests=("tests/test_loss.py::test_non_finite_fields_rejected",),
    ),
    Mutant(
        id="loss-accepts-non-finite-target",
        path=LOSS,
        old="map(math.isfinite, (t.x, t.y, t.w, t.h, t.target_conf))",
        new="map(math.isfinite, ())",
        tests=("tests/test_loss.py::test_non_finite_fields_rejected",),
    ),
    Mutant(
        id="synth-max-ties-to-second",
        path="detfuse/synth.py",
        old="x2 = xb if xb > xa else xa",
        new="x2 = xb if xb >= xa else xa",
        tests=("tests/test_synth.py::test_matches_reference_loop_bit_for_bit",),
    ),
    Mutant(
        id="json-line-accepts-trailing-data",
        path=IO,
        old="if end != len(line):",
        new="if end < 0:",
        tests=(JSON_EQUALS_LOADS, f"{JSON_EQUALS_LOADS}_on_edges"),
    ),
    Mutant(
        id="json-line-skips-bom",
        path=IO,
        old="return json.loads(line)",
        new='return json.loads(line.removeprefix("\\ufeff"))',
        tests=(JSON_EQUALS_LOADS, f"{JSON_EQUALS_LOADS}_on_edges"),
    ),
    Mutant(
        id="skipped-columns-end-one-early",
        path=AUGMENT,
        old="return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)",
        new="return (int(idx[0]), int(idx[-1])) if idx.size else (0, 0)",
        tests=(f"{BLACK_MARGINS}::test_rotation", f"{BLACK_MARGINS}::test_adjust_color",
               f"{BLACK_MARGINS}::test_blur"),
    ),
    Mutant(
        id="colour-columns-in-bytes",
        path=AUGMENT,
        old="return b0 // 3, (b1 + 2) // 3",
        new="return b0, b1",
        tests=(f"{BLACK_MARGINS}::test_adjust_color",),
    ),
    Mutant(
        id="blur-columns-without-context-rows",
        path=AUGMENT,
        old="p0, p1 = _nonblack_span(img[max(r0 - ry - 1, 0) : r1 + ry])",
        new="p0, p1 = _nonblack_span(img[r0:r1])",
        tests=(f"{BLACK_MARGINS}::test_blur",),
    ),
    Mutant(
        id="blur-columns-without-leaving-row",
        path=AUGMENT,
        old="p0, p1 = _nonblack_span(img[max(r0 - ry - 1, 0) : r1 + ry])",
        new="p0, p1 = _nonblack_span(img[max(r0 - ry, 0) : r1 + ry])",
        tests=(f"{BLACK_MARGINS}::test_blur",),
    ),
    Mutant(
        id="blur-columns-not-widened-by-radius",
        path=AUGMENT,
        old="c0, c1 = max(p0 - rx, 0), min(p1 + rx, w)",
        new="c0, c1 = p0, p1",
        tests=(f"{BLACK_MARGINS}::test_blur",),
    ),
    Mutant(
        id="rotation-columns-from-first-tap",
        path=AUGMENT,
        old="(fx >= -1.0) & (fx < w) & (fy >= -1.0) & (fy < h)",
        new="(fx >= 0.0) & (fx < w) & (fy >= 0.0) & (fy < h)",
        tests=(f"{BLACK_MARGINS}::test_rotation",),
    ),
    Mutant(
        id="annotation-splits-on-separator-characters",
        path=IO,
        old='_CONTROL = re.compile(r"[\\x00-\\x08\\x0a-\\x1f\\x7f]")',
        new='_CONTROL = re.compile(r"[\\x00-\\x08\\x0e-\\x1b\\x7f]")',
        tests=("tests/test_io.py::test_annotation_control_characters_rejected",),
    ),
    Mutant(
        id="noise-accepts-int-beyond-float",
        path="detfuse/synth.py",
        old="    except OverflowError:\n        return False\n",
        new="    except OverflowError:\n        return True\n",
        tests=("tests/test_synth.py::test_noise_model_rejects_non_finite_and_out_of_range",),
    ),
    Mutant(
        id="pixel-items-of-any-layout",
        path=AUGMENT,
        old='items = (img if img.strides[-1] == 1 else img.copy()).view("V3")',
        new='items = img.view("V3")',
        tests=("tests/test_augment.py::TestRotation"
               "::test_right_angle_turn_of_non_contiguous_pixels",),
    ),
    Mutant(
        id="position-clip-inside-right-edge",
        path=AUGMENT,
        old="fx = np.clip(fx[:, c0:c1], -1.0, w)",
        new="fx = np.clip(fx[:, c0:c1], -1.0, w - 1)",
        tests=("tests/test_augment.py::TestKernelsMatchReference::test_rotation",
               "tests/test_augment.py::TestRowBands::test_rotation"),
    ),
    Mutant(
        id="position-clip-inside-top-edge",
        path=AUGMENT,
        old="fy = np.clip(fy[:, c0:c1], -1.0, h)",
        new="fy = np.clip(fy[:, c0:c1], 0.0, h)",
        tests=("tests/test_augment.py::TestKernelsMatchReference::test_rotation",
               "tests/test_augment.py::TestRowBands::test_rotation"),
    ),
    Mutant(
        id="frame-one-row-at-the-bottom",
        path=AUGMENT,
        old="planes = np.zeros((3, h + 3, fw), dtype=np.uint8)",
        new="planes = np.zeros((3, h + 2, fw), dtype=np.uint8)",
        tests=("tests/test_augment.py::TestKernelsMatchReference::test_rotation",
               "tests/test_augment.py::TestRowBands::test_rotation"),
    ),
    Mutant(
        id="blur-accumulator-always-int32",
        path=AUGMENT,
        old="acc = np.int32 if 255 * (2 * ry + 1) * (w + 2 * rx + 1) < 2**31 else np.int64",
        new="acc = np.int32",
        tests=("tests/test_augment.py::TestBlurContrast::test_blur_window_sums_past_int32",),
    ),
    Mutant(
        id="ppm-header-accepts-digit-separators",
        path=IO,
        old='if b"_" in token:',
        new='if b"_" in token[:0]:',
        tests=("tests/test_io.py::test_ppm_header_tokens",),
    ),
    Mutant(
        id="annotation-accepts-digit-separators",
        path=IO,
        old='if "_" in line or not line.isascii():',
        new="if not line.isascii():",
        tests=("tests/test_io.py::test_annotation_python_only_number_forms_rejected",),
    ),
    Mutant(
        id="round-without-half",
        path=AUGMENT,
        old="    x += 0.5\n    np.floor(x, out=x)\n",
        new="    np.floor(x, out=x)\n",
        tests=(f"{KERNELS_MATCH_REFERENCE}::test_contrast_byte_sweep",),
    ),
    Mutant(
        id="contrast-clamped-below-255",
        path=AUGMENT,
        old="np.clip(band, -0.5, 255.0, out=band)",
        new="np.clip(band, -0.5, 254.0, out=band)",
        tests=(f"{KERNELS_MATCH_REFERENCE}::test_contrast_byte_sweep",),
    ),
    Mutant(
        id="resampler-stores-channels-reversed",
        path=AUGMENT,
        old="_round_into(out[r0:r1, c0:c1, c], acc[c])",
        new="_round_into(out[r0:r1, c0:c1, c], acc[2 - c])",
        tests=(f"{KERNELS_MATCH_REFERENCE}::test_rotation_full_size",),
    ),
    Mutant(
        id="provenance-written-outside-the-group",
        path=AUGMENT,
        old="        for path, pairs in ((manifest_out, entries), (provenance_out, provenance)):\n"
            "            write_manifest(path, pairs)\n"
            "            done.append(path)\n",
        new="        write_manifest(manifest_out, entries)\n"
            "        done.append(manifest_out)\n"
            "    write_manifest(provenance_out, provenance)\n",
        tests=("tests/test_cli.py::test_augment_failing_provenance_replace_leaves_the_group",),
    ),
    Mutant(
        id="annotation-check-after-strip",
        path=IO,
        old="yield lineno, line\n",
        new="yield lineno, line.strip()\n",
        tests=("tests/test_io.py::test_annotation_python_only_number_forms_rejected",
               "tests/test_cli.py::test_python_only_annotation_numbers_exit_code"),
    ),
)


def mutated_text(mutant: Mutant) -> str:
    """The mutant's file with its one old snippet replaced."""
    text = (ROOT / "src" / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.id}: old snippet occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def copy_src(dest: Path, mutant: Mutant | None = None) -> Path:
    """Copy ``src/`` under ``dest``, with ``mutant`` applied; returns the copy."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        (src / mutant.path).write_text(mutated_text(mutant))
    return src


def run_tests(src: Path, tests: tuple[str, ...] | list[str], *args: str
              ) -> subprocess.CompletedProcess:
    """Run ``tests`` from the repository with ``src`` first on the import path."""
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        PYTHONDONTWRITEBYTECODE="1",
        # hypothesis keeps the failing examples of a mutant out of the
        # repository's example database
        HYPOTHESIS_STORAGE_DIRECTORY=str(src.parent / ".hypothesis"),
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args, *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def killed(mutant: Mutant) -> tuple[bool, subprocess.CompletedProcess]:
    """Whether a named test fails on the mutant, and the pytest run."""
    with tempfile.TemporaryDirectory() as tmp:
        result = run_tests(copy_src(Path(tmp), mutant), mutant.tests, "-x")
    return result.returncode == TESTS_FAILED, result


def unmutated() -> subprocess.CompletedProcess:
    """Every test the table names, run on an unmutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_tests(copy_src(Path(tmp)), sorted({t for m in MUTANTS for t in m.tests}))


def run_all() -> tuple[subprocess.CompletedProcess, list[tuple[bool, subprocess.CompletedProcess]]]:
    """``unmutated()`` and ``killed`` of each mutant, in table order, as one
    pool of jobs run ``os.cpu_count()`` at a time. The unmutated run, the
    longest job, starts first."""
    with ThreadPoolExecutor(min(len(MUTANTS) + 1, os.cpu_count() or 1)) as pool:
        clean = pool.submit(unmutated)
        results = list(pool.map(killed, MUTANTS))
        return clean.result(), results


def main() -> int:
    clean, results = run_all()
    print(f"{'passed' if clean.returncode == 0 else 'FAILED'}  unmutated copy", flush=True)
    survived = 0
    for mutant, (ok, _) in zip(MUTANTS, results):
        survived += not ok
        print(f"{'killed' if ok else 'SURVIVED'}  {mutant.id}", flush=True)
    return 1 if survived or clean.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
