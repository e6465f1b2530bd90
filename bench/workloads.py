"""Workloads of the detfuse benchmark.

A workload builds its inputs on disk from a seed, names the CLI commands a
user would type over them, and checks what those commands wrote. The
program only ever sees the generated files: the ground-truth and synth
seeds are derived from the workload seed here and passed as files and argv.

Importing this module needs ``detfuse`` importable (``run.py`` puts the
checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import detfuse.synth
from detfuse.io import save_annotations, write_manifest, write_ppm

IMAGE_W, IMAGE_H = 640, 480


def derive_seed(seed: int, workload: str, purpose: str) -> int:
    """A 31-bit seed for one purpose of one workload, fixed by the workload seed."""
    digest = hashlib.sha256(f"{workload}/{purpose}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def file_digest(path: Path, strip: bytes = b"") -> str:
    """sha256 of a file; ``strip`` (an absolute directory prefix) is removed first
    so that files listing paths digest the same in every checkout."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return "missing"
    if strip:
        data = data.replace(strip, b"")
    return hashlib.sha256(data).hexdigest()


def combine(digests: dict[str, str]) -> str:
    """One digest over named file digests, independent of insertion order."""
    text = "".join(f"{name} {d}\n" for name, d in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _write_dataset(work: Path, gts, images: dict[str, np.ndarray] | None = None) -> None:
    """Annotation files, optional PPM images and a manifest for ``gts``."""
    by_image = defaultdict(list)
    for g in gts:
        by_image[g.image_id].append(g)
    (work / "ann").mkdir(exist_ok=True)
    (work / "img").mkdir(exist_ok=True)
    entries = []
    for image_id in sorted(by_image):
        ann = f"ann/{image_id}.txt"
        img = f"img/{image_id}.ppm"
        save_annotations(work / ann, by_image[image_id])
        if images is not None:
            write_ppm(work / img, images[image_id])
        entries.append((img, ann))
    write_manifest(work / "manifest.txt", entries)


@dataclass(frozen=True)
class EnsembleWorkload:
    """``synth -> fuse -> eval`` over a synthetic detection ensemble."""

    name: str
    why: str
    images: int
    boxes_per_image: int
    classes: int
    models: int
    jitter: float
    drop_rate: float
    fp_rate: float
    conf_noise: float

    commands_run = ("synth", "fuse", "eval")

    def setup(self, work: Path, seed: int) -> None:
        gts = detfuse.synth.random_ground_truth(
            self.images, self.classes, self.boxes_per_image,
            seed=derive_seed(seed, self.name, "gt"),
            image_size=(float(IMAGE_W), float(IMAGE_H)),
        )
        _write_dataset(work, gts)

    def commands(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        manifest = str(work / "manifest.txt")
        dets = [str(work / f"dets.model{i}.jsonl") for i in range(self.models)]
        return [
            ("synth", ["synth", manifest, "--models", str(self.models),
                       "--seed", str(derive_seed(seed, self.name, "synth")),
                       "--jitter", repr(self.jitter), "--drop-rate", repr(self.drop_rate),
                       "--fp-rate", repr(self.fp_rate), "--conf-noise", repr(self.conf_noise),
                       "--image-size", f"{IMAGE_W}x{IMAGE_H}",
                       "--out", str(work / "dets")]),
            ("fuse", ["fuse", *dets, "--out", str(work / "fused.jsonl")]),
            ("eval", ["eval", str(work / "fused.jsonl"), manifest,
                      "--out", str(work / "report")]),
        ]

    def outputs(self, work: Path, command: str) -> list[Path]:
        if command == "synth":
            return [work / f"dets.model{i}.jsonl" for i in range(self.models)]
        if command == "fuse":
            return [work / "fused.jsonl"]
        return [work / "report.txt", work / "report.tsv"]

    def clean(self, work: Path) -> None:
        for command in self.commands_run:
            for path in self.outputs(work, command):
                path.unlink(missing_ok=True)

    def digests(self, work: Path, command: str) -> dict[str, str]:
        return {p.name: file_digest(p) for p in self.outputs(work, command)}

    def check(self, work: Path) -> tuple[dict[str, list[str]], dict, dict]:
        """Check the outputs left by the last pipeline against the inputs.

        Returns (errors per command, input sizes per command, quality).
        """
        errors: dict[str, list[str]] = {c: [] for c in self.commands_run}
        gt_classes: Counter = Counter()
        gt_images = set()
        for ann in (work / "ann").iterdir():
            gt_images.add(ann.stem)
            for line in ann.read_text().splitlines():
                gt_classes[int(line.split()[0])] += 1

        in_per_image: Counter = Counter()
        in_classes: dict[str, set] = defaultdict(set)
        synth_records = 0
        for i, path in enumerate(self.outputs(work, "synth")):
            for rec in _records(path, errors["synth"]):
                synth_records += 1
                x1, y1, x2, y2 = rec["bbox"]
                if (rec["model_id"] != i or rec["image_id"] not in gt_images
                        or rec["class_id"] not in gt_classes
                        or not 0.0 <= rec["score"] <= 1.0
                        or not 0.0 <= x1 <= x2 <= IMAGE_W
                        or not 0.0 <= y1 <= y2 <= IMAGE_H):
                    errors["synth"].append(f"{path.name}: bad record {rec}")
                    break
                in_per_image[rec["image_id"]] += 1
                in_classes[rec["image_id"]].add(rec["class_id"])
        if synth_records == 0:
            errors["synth"].append("no detections written")

        out_per_image: Counter = Counter()
        fused_classes: Counter = Counter()
        for rec in _records(work / "fused.jsonl", errors["fuse"]):
            image_id = rec["image_id"]
            out_per_image[image_id] += 1
            fused_classes[rec["class_id"]] += 1
            if (rec["model_id"] != -1 or rec["class_id"] not in in_classes[image_id]
                    or not 0.0 <= rec["score"] <= 1.0):
                errors["fuse"].append(f"fused.jsonl: bad record {rec}")
                break
        for image_id, n in out_per_image.items():
            if n > in_per_image[image_id]:
                errors["fuse"].append(f"{image_id}: {n} clusters from {in_per_image[image_id]} detections")
        if set(out_per_image) != set(in_per_image):
            errors["fuse"].append("fused images differ from input images")

        quality = _check_report(work, gt_classes, fused_classes, errors["eval"])
        fused = sum(out_per_image.values())
        sizes = {
            "synth": {"images": len(gt_images), "gt_boxes": sum(gt_classes.values()),
                      "records_out": synth_records},
            "fuse": {"images": len(in_per_image), "records_in": synth_records,
                     "records_out": fused},
            "eval": {"images": len(gt_images), "records_in": fused,
                     "gt_boxes": sum(gt_classes.values())},
        }
        return errors, sizes, quality


def _records(path: Path, errors: list[str]):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                yield json.loads(line)
    except (OSError, ValueError) as e:
        errors.append(f"{path.name}: {e}")


def _check_report(work: Path, gt_classes: Counter, fused_classes: Counter,
                  errors: list[str]) -> dict:
    """Per-class counts in report.tsv must agree with the inputs and outputs."""
    try:
        rows = [line.split("\t") for line in (work / "report.tsv").read_text().splitlines()]
        text = (work / "report.txt").read_text()
    except OSError as e:
        errors.append(str(e))
        return {}
    table = {r[0]: r[1:] for r in rows[1:]}
    fused_map = float(table.pop("mAP")[0])
    detection_rate = float(table.pop("detection_rate")[0])
    aps = []
    for class_id, n_gt in sorted(gt_classes.items()):
        row = table.pop(str(class_id), None)
        if row is None:
            errors.append(f"report.tsv: no row for class {class_id}")
            continue
        ap, tp, fp, fn = float(row[0]), int(row[1]), int(row[2]), int(row[3])
        aps.append(ap)
        if tp + fn != n_gt or tp + fp != fused_classes[class_id] or not 0.0 <= ap <= 1.0:
            errors.append(f"report.tsv: class {class_id} row {row} disagrees with "
                          f"{n_gt} ground truths and {fused_classes[class_id]} predictions")
    if table:
        errors.append(f"report.tsv: unexpected rows {sorted(table)}")
    if not aps or not math.isclose(fused_map, sum(aps) / len(aps), rel_tol=1e-12):
        errors.append(f"report.tsv: mAP {fused_map!r} is not the mean of the class APs")
    if not 0.0 < detection_rate <= 1.0:
        errors.append(f"report.tsv: detection rate {detection_rate!r} out of range")
    if f"mAP: {fused_map!r}\n" not in text or f"{detection_rate!r}\n" not in text:
        errors.append("report.txt disagrees with report.tsv")
    return {"fused_map": fused_map, "detection_rate": detection_rate}


@dataclass(frozen=True)
class AugmentWorkload:
    """One ``augment`` command over random-pixel PPM images."""

    name: str
    why: str
    images: int
    boxes_per_image: int
    classes: int
    rotations: tuple[int, ...]
    saturations: tuple[float, ...]
    blur_radii: tuple[int, ...]
    width: int = IMAGE_W
    height: int = IMAGE_H

    commands_run = ("augment",)

    @property
    def variants_per_image(self) -> int:
        # mirror doubles the grid; blur radius 0 is always part of it
        return len(self.rotations) * len(self.saturations) * 2 * (1 + len(self.blur_radii))

    def setup(self, work: Path, seed: int) -> None:
        gts = detfuse.synth.random_ground_truth(
            self.images, self.classes, self.boxes_per_image,
            seed=derive_seed(seed, self.name, "gt"),
            image_size=(float(self.width), float(self.height)),
            size_range=(60.0 * self.width / IMAGE_W, 150.0 * self.width / IMAGE_W),
        )
        rng = np.random.default_rng(derive_seed(seed, self.name, "pixels"))
        pixels = {
            f"img{i:04d}": rng.integers(0, 256, (self.height, self.width, 3), dtype=np.uint8)
            for i in range(self.images)
        }
        _write_dataset(work, gts, pixels)

    def commands(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        return [("augment", [
            "augment", str(work / "manifest.txt"),
            "--rotations", ",".join(str(r) for r in self.rotations),
            "--saturations", ",".join(repr(s) for s in self.saturations),
            "--mirror",
            "--blur-radii", ",".join(str(r) for r in self.blur_radii),
            "--out", str(work / "aug"),
        ])]

    def outputs(self, work: Path, command: str) -> list[Path]:
        out = work / "aug"
        return sorted(out.iterdir()) if out.exists() else []

    def clean(self, work: Path) -> None:
        shutil.rmtree(work / "aug", ignore_errors=True)

    def digests(self, work: Path, command: str) -> dict[str, str]:
        prefix = (str(work) + os.sep).encode()
        return {p.name: file_digest(p, strip=prefix) for p in self.outputs(work, command)}

    def check(self, work: Path) -> tuple[dict[str, list[str]], dict, dict]:
        """Derived sizes, identity and mirror pixels, boxes and provenance."""
        errors: list[str] = []
        out = work / "aug"
        sources = {p.stem: _read_raster(p) for p in (work / "img").iterdir()}
        src_boxes = {p.stem: _read_boxes(p) for p in (work / "ann").iterdir()}
        manifest = [line.split() for line in (out / "manifest.txt").read_text().splitlines()]
        provenance = dict(
            line.split() for line in (out / "provenance.txt").read_text().splitlines()
        )
        if len(manifest) != self.images * self.variants_per_image:
            errors.append(f"manifest lists {len(manifest)} derived images")
        pixels_out = 0
        for image_path, ann_path in manifest:
            name = Path(image_path).stem
            stem, rot = name.split("_")[0], int(name.split("_")[1][1:])
            if Path(provenance.get(image_path, "")).stem != stem:
                errors.append(f"provenance of {name} does not name {stem}")
            raster = _read_raster(Path(image_path))
            boxes = _read_boxes(Path(ann_path))
            h, w = raster.shape[:2]
            pixels_out += h * w
            if (w, h) != self._rotated_size(rot):
                errors.append(f"{name}: size {w}x{h} for rotation {rot}")
            if len(boxes) > len(src_boxes[stem]) or any(
                    not 0.0 <= b[1] < b[3] <= w or not 0.0 <= b[2] < b[4] <= h for b in boxes):
                errors.append(f"{name}: boxes outside the {w}x{h} canvas")
            if name == f"{stem}_r000_s100_e100":
                if not np.array_equal(raster, sources[stem]) or not _same(boxes, src_boxes[stem]):
                    errors.append(f"{name}: identity variant differs from its source")
            if name == f"{stem}_r000_s100_e100_m":
                mirrored = [(c, self.width - x2, y1, self.width - x1, y2)
                            for c, x1, y1, x2, y2 in src_boxes[stem]]
                if not np.array_equal(raster, sources[stem][:, ::-1]) or not _same(boxes, mirrored):
                    errors.append(f"{name}: mirror variant differs from its flipped source")
        sizes = {"augment": {
            "images": self.images,
            "variants": len(manifest),
            "megapixels_in": self.images * self.width * self.height / 1e6,
            "megapixels_out": pixels_out / 1e6,
        }}
        return {"augment": errors}, sizes, {}

    def _rotated_size(self, angle: int) -> tuple[int, int]:
        """Canvas (w, h) of a rotation: exact at right angles, else from math.sin/cos."""
        rad = math.radians(angle)
        sin, cos = {0: (0, 1), 90: (1, 0), 180: (0, 1), 270: (1, 0)}.get(
            angle, (abs(math.sin(rad)), abs(math.cos(rad))))
        w, h = self.width, self.height
        return math.ceil(w * cos + h * sin), math.ceil(w * sin + h * cos)


def _read_raster(path: Path) -> np.ndarray:
    """Pixels of a P6 file written by the program (``P6\\nW H\\n255\\n`` header)."""
    data = path.read_bytes()
    magic, size, maxval, raster = data.split(b"\n", 3)
    w, h = (int(v) for v in size.split())
    if magic != b"P6" or maxval != b"255" or len(raster) != w * h * 3:
        raise ValueError(f"{path}: unexpected PPM layout")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)


def _same(boxes: list[tuple], expected: list[tuple]) -> bool:
    """Same classes and coordinates; coordinates pass through (x - c) + c, so
    they may differ from the source in the last bit."""
    return len(boxes) == len(expected) and all(
        a[0] == b[0] and all(math.isclose(u, v, abs_tol=1e-9) for u, v in zip(a[1:], b[1:]))
        for a, b in zip(boxes, expected)
    )


def _read_boxes(path: Path) -> list[tuple]:
    boxes = []
    for line in path.read_text().splitlines():
        c, *coords = line.split()
        boxes.append((int(c), *(float(v) for v in coords)))
    return boxes


WORKLOADS = {
    w.name: w
    for w in (
        EnsembleWorkload(
            name="ensemble-sparse",
            why="many images of 8 boxes: per-record JSON, validation and CLI "
                "bookkeeping dominate while fusion and matching kernels idle",
            images=3000, boxes_per_image=8, classes=20, models=3,
            jitter=2.0, drop_rate=0.1, fp_rate=1.0, conf_noise=0.05,
        ),
        EnsembleWorkload(
            name="ensemble-dense",
            why="12 crowded images of ~1850 detections: super-linear fusion and "
                "P x G matching dominate while I/O is small",
            images=12, boxes_per_image=400, classes=20, models=5,
            jitter=2.0, drop_rate=0.1, fp_rate=10.0, conf_noise=0.05,
        ),
        AugmentWorkload(
            name="augment-grid",
            why="numpy pixel kernels and bulk PPM I/O with no JSON, fusion or "
                "matching; every rotation is recomputed per colour/blur/mirror",
            images=2, boxes_per_image=8, classes=20,
            rotations=(0, 30, 90), saturations=(1.0, 1.5), blur_radii=(2,),
        ),
    )
}
