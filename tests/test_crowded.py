"""Crowded images against the oracles.

Each image carries 150-300 predictions over several classes, so a class
holds dozens of clusters during fusion and matching sweeps several blocks
of predictions. Probabilities repeat and boxes sit on a quarter-pixel
grid, so equal probabilities and equal IoUs occur and the tie rules
decide; a box pair at exactly the IoU threshold rides along.
"""

import random

import pytest

from detfuse import (
    PROB_MAX,
    PROB_SCALED_MAX,
    Box,
    Detection,
    GroundTruthRecord,
    evaluate_dataset,
    iou,
    merge_boxes,
    merge_boxes_with_members,
)

from oracles import brute_force_evaluate, replay_merge

PROBS = (0.25, 0.4, 0.5, 0.5, 0.5, 0.6, 0.75, 0.9, 1.0)

# The random boxes stay inside 700 x 520; the fixed cases below sit outside.
#
# IoU of these two boxes is exactly 0.5: fusion merges them (IoU >= t),
# matching does not (IoU > t). A singleton cluster of prob 0.5 keeps its
# box exactly, so the pair also meets the threshold inside fusion.
EDGE_A = Box(700.0, 500.0, 710.0, 510.0)
EDGE_B = Box(700.0, 500.0, 710.0, 505.0)


def _fusion_cases(image_id):
    """The edge pair, and a box with IoU 2/3 to two clusters of equal
    aggregate probability: it must join the one created first."""
    return [
        Detection(EDGE_A, 0, 0.5, 0, image_id),
        Detection(EDGE_B, 0, 0.4, 1, image_id),
        Detection(Box(800.0, 100.0, 810.0, 110.0), 1, 0.9, 0, image_id),
        Detection(Box(804.0, 100.0, 814.0, 110.0), 1, 0.9, 1, image_id),
        Detection(Box(802.0, 100.0, 812.0, 110.0), 1, 0.8, 2, image_id),
    ]


def _matching_cases(image_id):
    """(ground truths, predictions): the edge pair, and a prediction with
    IoU 2/3 to two ground truths, which must take the first so that the
    next prediction finds its exact match free."""
    gts = [
        GroundTruthRecord(image_id, 0, EDGE_A),
        GroundTruthRecord(image_id, 1, Box(900.0, 100.0, 910.0, 110.0)),
        GroundTruthRecord(image_id, 1, Box(904.0, 100.0, 914.0, 110.0)),
    ]
    preds = [
        Detection(EDGE_B, 0, 0.9, 0, image_id),
        Detection(Box(902.0, 100.0, 912.0, 110.0), 1, 0.9, 0, image_id),
        Detection(Box(904.0, 100.0, 914.0, 110.0), 1, 0.8, 0, image_id),
    ]
    return gts, preds


def _q(v):
    return round(v * 4) / 4


def _jitter(rng, box, sigma):
    dx1, dy1, dx2, dy2 = (_q(rng.gauss(0.0, sigma)) for _ in range(4))
    x1, x2 = sorted((box.x1 + dx1, box.x2 + dx2))
    y1, y2 = sorted((box.y1 + dy1, box.y2 + dy2))
    return Box(x1, y1, x2, y2)


def _objects(rng, n, n_classes, image_id):
    """n ground truths, some duplicated (same box, same or other class)."""
    gts = []
    for _ in range(n):
        if gts and rng.random() < 0.1:
            g = rng.choice(gts)
            gts.append(GroundTruthRecord(image_id, rng.randrange(n_classes), g.box))
            continue
        x1, y1 = _q(rng.uniform(0, 600)), _q(rng.uniform(0, 440))
        w, h = _q(rng.uniform(8, 60)), _q(rng.uniform(8, 60))
        gts.append(GroundTruthRecord(image_id, rng.randrange(n_classes), Box(x1, y1, x1 + w, y1 + h)))
    return gts


def _predictions(rng, gts, n, n_classes, image_id, fixed=()):
    """n predictions: the fixed ones, jittered copies of the objects (some
    with the wrong class) and background false positives, shuffled."""
    dets = list(fixed)
    while len(dets) < n:
        model_id = rng.randrange(3)
        prob = rng.choice(PROBS)
        if rng.random() < 0.8:
            g = rng.choice(gts)
            class_id = g.class_id if rng.random() < 0.85 else rng.randrange(n_classes)
            box = g.box if rng.random() < 0.1 else _jitter(rng, g.box, 2.0)
        else:
            class_id = rng.randrange(n_classes)
            x1, y1 = _q(rng.uniform(0, 600)), _q(rng.uniform(0, 440))
            box = Box(x1, y1, x1 + _q(rng.uniform(4, 50)), y1 + _q(rng.uniform(4, 50)))
        dets.append(Detection(box, class_id, prob, model_id, image_id))
    rng.shuffle(dets)
    return dets


def _normalized(dets, got):
    index_of = {id(d): i for i, d in enumerate(dets)}
    return [
        (
            tuple(index_of[id(m)] for m in cluster.members),
            s.box.as_tuple(),
            s.prob,
            s.class_id,
            s.support,
        )
        for cluster, s in got
    ]


def test_edge_pair_sits_on_the_threshold():
    assert iou(EDGE_A, EDGE_B) == 0.5


@pytest.mark.parametrize("prob_mode", [PROB_SCALED_MAX, PROB_MAX])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crowded_fusion_matches_replay(seed, prob_mode):
    rng = random.Random(7000 + seed)
    n_classes = rng.randint(3, 5)
    gts = _objects(rng, 60, n_classes, "crowd")
    n = rng.randint(150, 300)
    dets = _predictions(rng, gts, n, n_classes, "crowd", _fusion_cases("crowd"))
    got = merge_boxes_with_members(dets, 0.5, prob_mode)
    expected = replay_merge(
        [(d.box.as_tuple(), d.class_id, d.prob, d.model_id) for d in dets],
        0.5,
        scaled=prob_mode == PROB_SCALED_MAX,
    )
    assert _normalized(dets, got) == [(m, *s) for m, s in expected]
    # the class buckets filled up; the edge pair merged; the tie went to the first cluster
    per_class = [sum(1 for _, s in got if s.class_id == c) for c in range(n_classes)]
    assert max(per_class) >= 20
    members = {m.box.x1: [n.box.x1 for n in c.members] for c, _ in got for m in c.members}
    assert members[700.0] == [700.0, 700.0]
    assert members[800.0] == [800.0, 802.0]
    assert members[804.0] == [804.0]


def _dataset(rng):
    n_classes = rng.randint(3, 5)
    preds, gts = [], []
    for k in range(2):
        image_id = f"crowd{k}"
        img_gts = _objects(rng, rng.randint(120, 200), n_classes, image_id)
        fixed_gts, fixed_preds = _matching_cases(image_id)
        gts += img_gts + fixed_gts
        n = rng.randint(150, 300)
        preds += _predictions(rng, img_gts, n, n_classes, image_id, fixed_preds)
    # predictions but no ground truth, and ground truth but no predictions
    preds += _predictions(rng, _objects(rng, 30, n_classes, "x"), 80, n_classes, "orphan")
    gts += _objects(rng, 40, n_classes, "missed")
    rng.shuffle(preds)
    return preds, gts


def _check_against_brute_force(preds, gts, iou_threshold):
    report = evaluate_dataset(preds, gts, iou_threshold)
    expected = brute_force_evaluate(
        [(p.image_id, p.class_id, p.box.as_tuple(), p.prob) for p in preds],
        [(g.image_id, g.class_id, g.box.as_tuple()) for g in gts],
        iou_threshold,
    )
    assert sorted(r.class_id for r in report.per_class) == sorted(
        k for k in expected if not isinstance(k, str)
    )
    for r in report.per_class:
        ap, tp, fp, fn = expected[r.class_id]
        assert (r.tp, r.fp, r.fn) == (tp, fp, fn)
        assert abs(r.ap - ap) < 1e-9
    assert abs(report.mean_ap - expected["mAP"]) < 1e-9
    assert report.detection_rate == expected["detection_rate"]
    return report


@pytest.mark.parametrize("iou_threshold", [0.5, 0.3])
@pytest.mark.parametrize("seed", [0, 1])
def test_crowded_evaluation_matches_brute_force(seed, iou_threshold):
    preds, gts = _dataset(random.Random(8000 + seed))
    report = _check_against_brute_force(preds, gts, iou_threshold)
    assert any("'orphan'" in w for w in report.warnings)


@pytest.mark.parametrize("prob_mode", [PROB_SCALED_MAX, PROB_MAX])
def test_crowded_fused_evaluation_matches_brute_force(prob_mode):
    preds, gts = _dataset(random.Random(9000))
    fused = []
    for image_id in sorted({p.image_id for p in preds}):
        image_preds = [p for p in preds if p.image_id == image_id]
        for s in merge_boxes(image_preds, 0.5, prob_mode):
            fused.append(Detection(s.box, s.class_id, s.prob, -1, image_id))
    _check_against_brute_force(fused, gts, 0.5)
