"""Spans around the calls into each detfuse layer, recorded from outside.

A traced pipeline replaces public functions with timing wrappers where the
calling module looks them up (``detfuse.cli.merge_boxes``,
``detfuse.evaluation.match_detections`` as ``evaluate_dataset`` calls it,
``detfuse.augment.rotate_with_boxes`` ...), runs, and puts the originals
back. Spans stay in memory; ``run.py`` writes them out when the run ends.

``geometry.iou`` is deliberately not wrapped: it is called once per box
pair, millions of times per run, so a wrapper would dominate what it
measures. Its cost shows as the self time of ``fusion`` and ``evaluation``.
``yolo_loss`` is not wrapped because no CLI command calls it.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import detfuse.augment
import detfuse.cli
import detfuse.evaluation
import detfuse.synth


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, span name, counts(args, kwargs, result) -> dict)
TARGETS: list[tuple[object, str, str, Callable | None]] = [
    (detfuse.synth, "random_ground_truth", "synth.random_ground_truth", None),
    (detfuse.cli, "load_ground_truth", "io.load_ground_truth",
     lambda a, k, r: {"records": len(r)}),
    (detfuse.cli, "load_detections", "io.load_detections",
     lambda a, k, r: {"records": len(r)}),
    (detfuse.cli, "save_detections", "io.save_detections",
     lambda a, k, r: {"records": len(a[1])}),
    (detfuse.cli, "generate_ensemble", "synth.generate_ensemble",
     lambda a, k, r: {"records": sum(len(s) for s in r)}),
    (detfuse.cli, "merge_boxes", "fusion.merge_boxes",
     lambda a, k, r: {"dets_in": len(a[0]), "clusters_out": len(r)}),
    (detfuse.cli, "evaluate_dataset", "evaluation.evaluate_dataset", None),
    (detfuse.evaluation, "match_detections", "evaluation.match_detections",
     lambda a, k, r: {"pairs": len(a[0]) * len(a[1])}),
    (detfuse.evaluation, "average_precision", "evaluation.average_precision", None),
    (detfuse.cli, "expand_dataset", "augment.expand_dataset",
     lambda a, k, r: {"boxes_dropped": r.boxes_dropped}),
    (detfuse.augment, "rotate_with_boxes", "augment.rotate_with_boxes", None),
    (detfuse.augment, "mirror_with_boxes", "augment.mirror_with_boxes", None),
    (detfuse.augment, "adjust_color", "augment.adjust_color", None),
    (detfuse.augment, "blur", "augment.blur", None),
    (detfuse.augment, "contrast", "augment.contrast", None),
    (detfuse.augment, "read_ppm", "io.read_ppm", None),
    (detfuse.augment, "write_ppm", "io.write_ppm",
     lambda a, k, r: {"mb": a[1].nbytes / 1e6}),
    (detfuse.augment, "save_annotations", "io.save_annotations", None),
]


class Tracer:
    """Records nested spans; ``installed()`` wraps the TARGETS for its duration."""

    def __init__(self, run_id: str) -> None:
        self.spans: list[Span] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._images: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def _wrap(self, fn: Callable, name: str, counts: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            elif name == "augment.rotate_with_boxes":
                span.counts = self._rotation_counts(*args, **kwargs)
            return result
        return traced

    def _rotation_counts(self, src, angle) -> dict:
        """Source image identity and angle of one rotation; the image is held
        until the tracer goes away so that no later image reuses its id."""
        self._images.append(src.image)
        angle = float(angle)
        return {"image": id(src.image), "angle": angle,
                "right": angle.is_integer() and int(angle) % 90 == 0}

    @contextlib.contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        try:
            for (module, attr, name, counts), (_, _, fn) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(fn, name, counts))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


COMMANDS = ("synth", "fuse", "eval", "augment")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pipeline (its spans only)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name: str) -> float:
        return sum((spans[i].duration for i in by_name[name]), 0.0)

    def self_total(name: str) -> float:
        return sum((own[i] for i in by_name[name]), 0.0)

    def count(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in by_name[name])

    m: dict[str, float] = {}
    for fn in ("load_detections", "save_detections", "load_ground_truth"):
        m[f"io.{fn}.s"] = total(f"io.{fn}")
    m["io.load_detections.records"] = count("io.load_detections", "records")
    m["io.save_detections.records"] = count("io.save_detections", "records")
    for fn in ("read_ppm", "write_ppm", "save_annotations"):
        m[f"io.{fn}.s"] = total(f"io.{fn}")
    m["io.write_ppm.mb"] = count("io.write_ppm", "mb")

    m["synth.generate_ensemble.s"] = total("synth.generate_ensemble")
    m["synth.generate_ensemble.records"] = count("synth.generate_ensemble", "records")
    m["synth.random_ground_truth.s"] = total("synth.random_ground_truth")

    merges = by_name["fusion.merge_boxes"]
    call_ms = [spans[i].duration * 1e3 for i in merges] or [0.0]
    dets_in = count("fusion.merge_boxes", "dets_in")
    clusters_out = count("fusion.merge_boxes", "clusters_out")
    m["fusion.merge_boxes.s"] = total("fusion.merge_boxes")
    m["fusion.merge_boxes.calls"] = len(merges)
    m["fusion.merge_boxes.dets_in"] = dets_in
    m["fusion.merge_boxes.clusters_out"] = clusters_out
    m["fusion.merge_boxes.call_ms_p50"] = statistics.median(call_ms)
    m["fusion.merge_boxes.call_ms_max"] = max(call_ms)
    m["fusion.merge_ratio"] = clusters_out / dets_in if dets_in else 0.0

    m["evaluation.match_detections.s"] = total("evaluation.match_detections")
    m["evaluation.match_detections.calls"] = len(by_name["evaluation.match_detections"])
    m["evaluation.match_detections.pairs"] = count("evaluation.match_detections", "pairs")
    m["evaluation.average_precision.s"] = total("evaluation.average_precision")
    m["evaluation.average_precision.calls"] = len(by_name["evaluation.average_precision"])
    m["evaluation.evaluate_dataset.self_s"] = self_total("evaluation.evaluate_dataset")

    rotations = [spans[i] for i in by_name["augment.rotate_with_boxes"]]
    m["augment.rotate_with_boxes.right_s"] = sum(
        (r.duration for r in rotations if r.counts["right"]), 0.0)
    m["augment.rotate_with_boxes.arbitrary_s"] = sum(
        (r.duration for r in rotations if not r.counts["right"]), 0.0)
    m["augment.rotate_with_boxes.calls"] = len(rotations)
    m["augment.rotate_with_boxes.unique_ratio"] = (
        len({(r.counts["image"], r.counts["angle"]) for r in rotations}) / len(rotations)
        if rotations else 0.0)
    for fn in ("adjust_color", "blur", "contrast", "mirror_with_boxes"):
        m[f"augment.{fn}.s"] = total(f"augment.{fn}")
    m["augment.expand_dataset.self_s"] = self_total("augment.expand_dataset")
    m["augment.boxes_dropped"] = count("augment.expand_dataset", "boxes_dropped")

    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = self_total(f"cli.{cmd}")
    return m
