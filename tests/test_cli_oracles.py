"""`detfuse fuse` then `detfuse eval`, checked through their files against the oracles.

Hypothesis draws a small dataset: images whose ids hold quotes,
backslashes and non-ASCII characters, ground truths, and several models'
detections with tied and zero scores, boxes exactly at the IoU threshold
and coordinates near 1e16. The test writes the inputs, runs ``cli.main``,
reloads what the commands wrote and compares it with ``==``:

* each image's records in the fused file against ``replay_merge`` over the
  detections fusion kept, with the drop rule of
  ``test_fusion.check_against_replay``;
* the ``.tsv`` report against ``brute_force_evaluate`` on the reloaded
  fused records.
"""

import os
import tempfile
from collections import defaultdict

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from detfuse import Box, Detection, GroundTruthRecord
from detfuse.cli import EXIT_OK, main
from detfuse.io import load_detections, save_annotations, save_detections, write_manifest

from oracles import brute_force_evaluate, replay_merge
from test_fusion import check_against_replay

# no whitespace (the manifest splits on it) and no path separator
ID_CHARS = st.sampled_from(list("ab09_-.'\"\\é猫"))
image_ids = st.text(ID_CHARS, min_size=1, max_size=6).filter(
    lambda s: s not in (".", "..") and not s.startswith(".")
)

THRESHOLDS = (0.5, 0.25)
SCORES = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def box_tuples(draw):
    """Boxes on a grid of 4 with even sides, at 0 or 1e16: halving a side
    keeps every corner exact, so halves meet a threshold of 0.5 or 0.25
    exactly."""
    offset = draw(st.sampled_from([0.0, 1e16]))
    x1, y1 = (offset + 4 * draw(st.integers(0, 6)) for _ in range(2))
    w, h = (4 * draw(st.integers(0, 4)) for _ in range(2))
    box = (x1, y1, x1 + w, y1 + h)
    shrink = draw(st.sampled_from([(), (2,), (3,), (2, 3)]))
    return tuple(
        box[k] - (box[k] - box[k - 2]) / 2 if k in shrink else box[k] for k in range(4)
    )


@st.composite
def datasets(draw):
    ids = draw(st.lists(image_ids, min_size=1, max_size=6, unique=True))
    classes = st.integers(0, 2)
    gts = {i: draw(st.lists(st.tuples(classes, box_tuples()), max_size=30)) for i in ids}
    n_models = draw(st.integers(1, 4))
    models = [
        [
            Detection(Box(*draw(box_tuples())), draw(classes), draw(SCORES), m, i)
            for i in ids
            for _ in range(draw(st.integers(0, 5)))
        ]
        for m in range(n_models)
    ]
    return gts, models, draw(st.sampled_from(THRESHOLDS)), draw(st.sampled_from([1, 10, 101]))


def _read_report(path):
    """The ``.tsv`` report as brute_force_evaluate's dict."""
    out = {}
    with open(path, encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    assert header == "class_id\tap\ttp\tfp\tfn"
    for row in rows:
        key, *values = row.split("\t")
        if key in ("mAP", "detection_rate"):
            (out[key],) = map(float, values)
        else:
            ap, tp, fp, fn = values
            out[int(key)] = (float(ap), int(tp), int(fp), int(fn))
    return out


# No shrink phase: each example writes files and runs two commands, and
# shrinking a failing dataset took 150 to over 300 s to report it.
@settings(
    max_examples=150,
    derandomize=True,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=datasets())
def test_fuse_and_eval_files_match_the_oracles(data):
    gts, models, iou_threshold, n_blocks = data
    with tempfile.TemporaryDirectory() as tmp:
        entries = []
        for n, (image_id, anns) in enumerate(gts.items()):
            ann_path = os.path.join(tmp, f"ann{n}.txt")
            save_annotations(ann_path, [GroundTruthRecord(image_id, c, Box(*b)) for c, b in anns])
            entries.append((os.path.join(tmp, "images", image_id + ".ppm"), ann_path))
        manifest = os.path.join(tmp, "manifest.txt")
        write_manifest(manifest, entries)
        inputs = [os.path.join(tmp, f"model{m}.jsonl") for m in range(len(models))]
        for path, dets in zip(inputs, models):
            save_detections(path, dets)
        fused_path = os.path.join(tmp, "fused.jsonl")
        report_base = os.path.join(tmp, "report")
        threshold = repr(iou_threshold)
        assert main(["fuse", *inputs, "--iou-fusion", threshold, "--out", fused_path]) == EXIT_OK
        assert (
            main(["eval", fused_path, manifest, "--iou-eval", threshold,
                  "--n-blocks", str(n_blocks), "--out", report_base])
            == EXIT_OK
        )
        fused = load_detections(fused_path)
        report = _read_report(report_base + ".tsv")
        # fuse groups the input records by image in file and line order
        by_image = defaultdict(list)
        for d in (d for path in inputs for d in load_detections(path)):
            by_image[d.image_id].append(d)

    # the fused file holds each image's clusters, images in sorted id order
    expected_fused = []
    for image_id in sorted(by_image):
        dets = by_image[image_id]
        lost = {id(d) for d in check_against_replay(dets, iou_threshold)}
        kept = [d for d in dets if id(d) not in lost]
        expected = replay_merge(
            [(d.box.as_tuple(), d.class_id, d.prob, d.model_id) for d in kept], iou_threshold
        )
        expected_fused += [
            (image_id, box, class_id, prob, -1) for _, (box, prob, class_id, _) in expected
        ]
    got_fused = [(d.image_id, d.box.as_tuple(), d.class_id, d.prob, d.model_id) for d in fused]
    assert got_fused == expected_fused

    expected_report = brute_force_evaluate(
        [(d.image_id, d.class_id, d.box.as_tuple(), d.prob) for d in fused],
        [(image_id, c, b) for image_id, anns in gts.items() for c, b in anns],
        iou_threshold,
        n_blocks,
    )
    assert report == expected_report
