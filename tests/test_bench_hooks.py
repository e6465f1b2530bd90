"""The benchmark's hook points exist and a traced pipeline fills its spans.

``bench/spans.py`` times each layer by replacing functions where the CLI
and the library look them up, by (module, attribute) name. Renaming one of
those functions would break no CLI test, only zero the benchmark's
per-layer readings, so these tests import ``spans.py`` (without changing
it) and check its targets and counts on a small ``synth -> fuse -> eval``
and a small ``augment``.
``evaluation.match_detections`` is not required to record a span:
``evaluate_dataset`` matches through its own sweep and no longer calls it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import detfuse.augment
from detfuse.cli import EXIT_OK, main
from detfuse.evaluation import GroundTruthRecord
from detfuse.geometry import Box
from detfuse.io import save_annotations, write_manifest, write_ppm
from detfuse.synth import random_ground_truth

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _lines(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


def test_every_target_resolves_to_a_callable():
    for module, attr, name, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_traced_pipeline_records_each_layer(tmp_path):
    gts = random_ground_truth(3, 2, 4, seed=0)
    entries = []
    for image_id in sorted({g.image_id for g in gts}):
        ann = tmp_path / f"{image_id}.txt"
        save_annotations(ann, [g for g in gts if g.image_id == image_id])
        entries.append((f"{image_id}.ppm", ann.name))
    manifest = str(tmp_path / "manifest.txt")
    write_manifest(manifest, entries)
    prefix = str(tmp_path / "dets")
    models = [f"{prefix}.model{i}.jsonl" for i in range(2)]
    fused = str(tmp_path / "fused.jsonl")

    tracer = spans.Tracer("hooks")
    with tracer.installed():
        assert main(["synth", manifest, "--models", "2", "--jitter", "2", "--fp-rate", "1",
                     "--seed", "3", "--out", prefix]) == EXIT_OK
        assert main(["fuse", *models, "--out", fused]) == EXIT_OK
        assert main(["eval", fused, manifest, "--out", str(tmp_path / "report")]) == EXIT_OK

    def counts(name, key):
        return [s.counts[key] for s in tracer.spans if s.name == name]

    files = [*models, fused]
    assert counts("io.load_detections", "records") == [_lines(p) for p in files]
    assert counts("io.save_detections", "records") == [_lines(p) for p in files]
    assert sum(counts("fusion.merge_boxes", "dets_in")) == sum(_lines(p) for p in models)
    assert sum(counts("fusion.merge_boxes", "clusters_out")) == _lines(fused)
    assert len(counts("fusion.merge_boxes", "dets_in")) == 3  # one call per image
    assert [s.name for s in tracer.spans].count("evaluation.evaluate_dataset") == 1
    assert _lines(fused) > 0


def test_traced_augment_records_each_kernel(tmp_path):
    # the augment-grid benchmark's grid plus one contrast factor, on two
    # small images: a kernel called other than through its detfuse.augment
    # attribute would record no span here
    entries = []
    rng = np.random.default_rng(0)
    for i in range(2):
        write_ppm(tmp_path / f"im{i}.ppm", rng.integers(0, 256, (12, 16, 3), dtype=np.uint8))
        save_annotations(tmp_path / f"im{i}.txt",
                         [GroundTruthRecord(f"im{i}", 0, Box(2.0, 3.0, 9.0, 8.0))])
        entries.append((f"im{i}.ppm", f"im{i}.txt"))
    write_manifest(tmp_path / "manifest.txt", entries)

    tracer = spans.Tracer("hooks")
    with tracer.installed():
        assert main(["augment", str(tmp_path / "manifest.txt"), "--rotations", "0,30,90",
                     "--saturations", "1.0,1.5", "--mirror", "--blur-radii", "2",
                     "--contrasts", "1.3", "--out", str(tmp_path / "aug")]) == EXIT_OK

    images, colors, radii, right_angles = 2, 2, 2, 2
    canvases = 2  # the source serves 0 and 90 degrees, 30 resamples its own
    turned = images * 3 * colors * radii  # (rotation, colour, radius) per image
    variants = turned * 2 * 2  # each mirrored or not, at contrast 1 and 1.3
    expected = {
        # one resampling per image, then each right angle turns every
        # colour and radius of the source canvas
        "augment.rotate_with_boxes": images + images * colors * radii * right_angles,
        "augment.adjust_color": images * canvases * (colors - 1),
        "augment.blur": images * canvases * colors * (radii - 1),
        "augment.mirror_with_boxes": turned,
        "augment.contrast": variants // 2,
        "io.read_ppm": images,
        "io.write_ppm": variants,
        "io.save_annotations": variants,
    }
    names = [s.name for s in tracer.spans]
    targets = {name for module, _, name, _ in spans.TARGETS if module is detfuse.augment}
    assert targets == set(expected)
    assert {name: names.count(name) for name in targets} == expected
    assert names.count("augment.expand_dataset") == 1
    assert len(list((tmp_path / "aug").glob("*.ppm"))) == variants
