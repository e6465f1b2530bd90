"""A mutation table for the referee tests.

Each entry plants one known fault in a copy of ``src/`` and names the tests
that must catch it. The faults are ones that earlier changes checked their
tests against by hand; kept here, they are checked again on every run, so a
later edit that weakens a referee shows.

    python -m pytest -q tools     # the gate: every mutant killed
    python tools/mutants.py       # one line per mutant: killed or survived

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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; a mutant that loops forever fails its check
TESTS_FAILED = 1  # pytest's exit code when tests ran and some failed
# hypothesis reports a failing example through an import that warns; with
# the repository's warnings-as-errors that ends the run as an internal error
# instead of a test failure, so the mutant runs let that one warning pass
REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str  # relative to src/
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


AUGMENT = "detfuse/augment.py"
EXPAND_EQUIVALENCE = "tests/test_augment.py::TestExpandEquivalence"

MUTANTS = (
    Mutant(
        id="flip-shared-last-turn",
        path=AUGMENT,
        old="owned = radius > 0 and k == len(turns) - 1",
        new="owned = k == len(turns) - 1",
        tests=(
            f"{EXPAND_EQUIVALENCE}::test_in_place_flips_match_per_variant_composition"
            "[zero-turn-last]",
            f"{EXPAND_EQUIVALENCE}::test_matches_per_variant_composition",
        ),
    ),
    Mutant(
        id="flip-every-variant",
        path=AUGMENT,
        old="owned = radius > 0 and k == len(turns) - 1",
        new="owned = True",
        tests=(f"{EXPAND_EQUIVALENCE}::test_matches_per_variant_composition",),
    ),
    Mutant(
        id="turn-owned-by-angle",
        path=AUGMENT,
        old="owned = owned or not np.may_share_memory(turned.image, variant.image)",
        new="owned = owned or turn != 0",
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
        id="in-place-mirror-without-channel-swap",
        path=AUGMENT,
        old="        band = out[r0:r1]\n",
        new="        if out is img:\n            continue\n        band = out[r0:r1]\n",
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
        old="vertical -= img[y - ry - 1]  # the row leaving it",
        new="vertical -= img[y - ry]  # the row leaving it",
        tests=(
            "tests/test_augment.py::TestKernelsMatchReference::test_blur",
            "tests/test_augment.py::TestRowBands::test_blur",
        ),
    ),
    Mutant(
        id="match-at-iou-equal-to-threshold",
        path="detfuse/evaluation.py",
        old="                if v > 0 and v > iou_threshold:\n"
            "                    matched_gt[i] = j",
        new="                if v > 0 and v >= iou_threshold:\n"
            "                    matched_gt[i] = j",
        tests=("tests/test_evaluation.py",),
    ),
    Mutant(
        id="mirror-bound-as-default-argument",
        path=AUGMENT,
        old="                owned: bool) -> int:",
        new="                owned: bool, mirror_with_boxes=mirror_with_boxes) -> int:",
        tests=("tests/test_bench_hooks.py::test_traced_augment_records_each_kernel",),
    ),
    Mutant(
        id="target-accepts-nan-width",
        path="detfuse/yolo_loss.py",
        old="if not (self.w > 0 and self.h > 0):  # NaN fails too",
        new="if self.w <= 0 or self.h <= 0:  # NaN fails too",
        tests=("tests/test_loss.py::test_nan_wh_rejected",),
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
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-W", REPORT_WARNING,
         *args, *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def killed(mutant: Mutant) -> tuple[bool, subprocess.CompletedProcess]:
    """Whether a named test fails on the mutant, and the pytest run."""
    with tempfile.TemporaryDirectory() as tmp:
        result = run_tests(copy_src(Path(tmp), mutant), mutant.tests, "-x")
    return result.returncode == TESTS_FAILED, result


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        ok, _ = killed(mutant)
        survived += not ok
        print(f"{'killed' if ok else 'SURVIVED'}  {mutant.id}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
