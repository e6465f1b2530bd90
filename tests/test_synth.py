import hashlib
import math
import os

import numpy as np
import pytest

from detfuse import (
    Box,
    ContractError,
    Detection,
    GroundTruthRecord,
    NoiseModel,
    evaluate_dataset,
    generate_ensemble,
    generate_model_detections,
    random_ground_truth,
)
from detfuse.geometry import iou
from detfuse.io import save_detections
from detfuse.synth import FP_CONF_RANGE, MAX_FP_RATE, MAX_MODELS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def five_box_fixture():
    return [
        GroundTruthRecord("alpha", 0, Box(10, 10, 110, 90)),
        GroundTruthRecord("alpha", 1, Box(200, 50, 320, 180)),
        GroundTruthRecord("beta", 0, Box(40, 200, 160, 300)),
        GroundTruthRecord("beta", 2, Box(300, 100, 420, 260)),
        GroundTruthRecord("gamma", 1, Box(500, 300, 620, 460)),
    ]


def test_zero_noise_reproduces_ground_truth():
    gts = five_box_fixture()
    dets = generate_model_detections(gts, NoiseModel())
    assert len(dets) == len(gts)
    by_key = {(d.image_id, d.class_id, d.box.as_tuple()) for d in dets}
    for g in gts:
        assert (g.image_id, g.class_id, g.box.as_tuple()) in by_key
    assert all(d.prob == 1.0 for d in dets)


def test_zero_noise_maps_to_one():
    gts = random_ground_truth(5, 3, 4, seed=100)
    dets = generate_model_detections(gts, NoiseModel())
    report = evaluate_dataset(dets, gts)
    assert report.mean_ap == 1.0
    assert report.detection_rate == 1.0


def test_drop_everything():
    gts = five_box_fixture()
    assert generate_model_detections(gts, NoiseModel(drop_rate=1.0)) == []


def test_determinism():
    gts = five_box_fixture()
    noise = NoiseModel(jitter_sigma=2.0, fp_rate=0.5, drop_rate=0.1,
                       conf_noise=0.05, seed=42)
    a = generate_model_detections(gts, noise)
    b = generate_model_detections(gts, noise)
    assert a == b


def test_matches_golden_file(tmp_path):
    gts = five_box_fixture()
    noise = NoiseModel(jitter_sigma=2.0, fp_rate=0.5, drop_rate=0.1,
                       conf_noise=0.05, seed=42)
    path = tmp_path / "synth.jsonl"
    save_detections(path, generate_model_detections(gts, noise))
    with open(os.path.join(DATA_DIR, "synth_golden.jsonl"), "rb") as f:
        assert path.read_bytes() == f.read()


def test_image_order_does_not_matter():
    # per-image sub-streams: interleaving images differently changes nothing
    gts = five_box_fixture()
    shuffled = [gts[4], gts[0], gts[2], gts[1], gts[3]]  # within-image order kept
    noise = NoiseModel(jitter_sigma=2.0, seed=7)
    a = generate_model_detections(gts, noise)
    b = generate_model_detections(shuffled, noise)
    key = lambda d: (d.image_id, d.class_id, d.box.as_tuple(), d.prob)
    assert sorted(a, key=key) == sorted(b, key=key)


def test_ensemble_single_equals_model_zero():
    gts = five_box_fixture()
    noise = NoiseModel(jitter_sigma=1.0, seed=5)
    sets = generate_ensemble(gts, noise, 1)
    assert sets == [generate_model_detections(gts, noise, model_id=0)]


def test_ensemble_reproducible_and_distinct():
    gts = five_box_fixture()
    noise = NoiseModel(jitter_sigma=2.0, seed=11)
    a = generate_ensemble(gts, noise, 3)
    b = generate_ensemble(gts, noise, 3)
    assert a == b
    for i in range(3):
        for j in range(i + 1, 3):
            assert a[i] != a[j]
        assert all(d.model_id == i for d in a[i])


def test_ensemble_k_validation():
    with pytest.raises(ValueError):
        generate_ensemble(five_box_fixture(), NoiseModel(), 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(drop_rate=1.5)
    with pytest.raises(ValueError):
        NoiseModel(jitter_sigma=-1)
    with pytest.raises(ValueError):
        NoiseModel(conf_noise=-0.1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"jitter_sigma": math.nan}, "jitter_sigma"),
        ({"jitter_sigma": math.inf}, "jitter_sigma"),
        ({"fp_rate": math.nan}, "fp_rate"),
        ({"fp_rate": math.inf}, "fp_rate"),
        ({"fp_rate": MAX_FP_RATE * (1 + 1e-15)}, "fp_rate"),
        ({"conf_noise": -math.inf}, "noise sigma"),
        ({"conf_noise": -1e-300}, "noise sigma"),
        ({"conf_noise": math.nan}, "noise sigma"),
        ({"conf_noise": math.inf}, "noise sigma"),
        ({"drop_rate": math.nan}, "drop_rate"),
        ({"misclass_rate": math.nan}, "misclass_rate"),
        ({"seed": -1}, "seed"),
        # an int compares below math.inf but is too large for a float
        ({"jitter_sigma": 10**400}, "jitter_sigma"),
        ({"conf_noise": 10**400}, "noise sigma"),
    ],
)
def test_noise_model_rejects_non_finite_and_out_of_range(kwargs, message):
    with pytest.raises(ContractError, match=message):
        NoiseModel(**kwargs)


def test_fp_rate_bound_is_inclusive():
    gts = [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))]
    dets = generate_model_detections(gts, NoiseModel(drop_rate=1.0, fp_rate=MAX_FP_RATE))
    assert 800 < len(dets) < 1200


def test_models_bound_is_inclusive():
    gts = [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))]
    assert len(generate_ensemble(gts, NoiseModel(), MAX_MODELS)) == MAX_MODELS
    for k in (0, MAX_MODELS + 1, 10**18):
        with pytest.raises(ContractError, match="k_models"):
            generate_ensemble(gts, NoiseModel(), k)


@pytest.mark.parametrize(
    "size", [(0.0, 10.0), (10.0, -1.0), (math.nan, 10.0), (10.0, math.inf)]
)
def test_image_size_must_be_finite_and_positive(size):
    with pytest.raises(ContractError, match="image_size"):
        generate_model_detections(five_box_fixture(), NoiseModel(), image_size=size)


def test_spurious_confidence_capped():
    gts = five_box_fixture()
    dets = generate_model_detections(gts, NoiseModel(drop_rate=1.0, fp_rate=5.0, seed=3))
    assert dets
    assert all(0.05 <= d.prob <= 0.5 for d in dets)


def test_misclass_changes_labels():
    gts = random_ground_truth(10, 5, 4, seed=200)
    dets = generate_model_detections(gts, NoiseModel(misclass_rate=1.0, seed=1))
    true_labels = {(g.image_id, g.box.as_tuple()): g.class_id for g in gts}
    assert all(d.class_id != true_labels[(d.image_id, d.box.as_tuple())] for d in dets)


def test_monotone_degradation_with_jitter():
    gts = random_ground_truth(8, 3, 3, seed=300)
    mean_maps = []
    for sigma in (0.0, 1.0, 2.0, 4.0, 8.0):
        vals = []
        for seed in range(20):
            noise = NoiseModel(jitter_sigma=sigma, conf_noise=0.02, seed=seed)
            dets = generate_model_detections(gts, noise)
            vals.append(evaluate_dataset(dets, gts).mean_ap)
        mean_maps.append(float(np.mean(vals)))
    # statistical tolerance: small upticks from noise are allowed
    for a, b in zip(mean_maps, mean_maps[1:]):
        assert b <= a + 0.02, mean_maps
    assert mean_maps[-1] < mean_maps[0]


# ---------------------------------------------------------------------------
# Referee: the per-instance loop as it was written with builtin min/max,
# vectorised jitter and geometry.iou. Frozen; never edit it to fit the library.


def reference_model_detections(gts, noise, model_id=0, image_size=(640.0, 480.0)):
    width, height = image_size
    classes = sorted({g.class_id for g in gts})
    by_image = {}
    for g in gts:
        by_image.setdefault(g.image_id, []).append(g)
    out = []
    for image_id in sorted(by_image):
        digest = hashlib.sha256(image_id.encode("utf-8")).digest()
        rng = np.random.default_rng(noise.seed ^ int.from_bytes(digest[:8], "big"))
        for g in by_image[image_id]:
            if rng.random() < noise.drop_rate:
                continue
            jx1, jx2, jy1, jy2 = (rng.standard_normal(4) * noise.jitter_sigma).tolist()
            xa = min(max(g.box.x1 + jx1, 0.0), width)
            xb = min(max(g.box.x2 + jx2, 0.0), width)
            ya = min(max(g.box.y1 + jy1, 0.0), height)
            yb = min(max(g.box.y2 + jy2, 0.0), height)
            box = Box(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))
            quality = iou(box, g.box)
            conf = quality + rng.standard_normal() * noise.conf_noise
            conf = min(max(conf, 0.0), 1.0)
            class_id = g.class_id
            if rng.random() < noise.misclass_rate and len(classes) > 1:
                k = int(rng.integers(len(classes) - 1))
                others = [c for c in classes if c != g.class_id]
                class_id = others[k]
            out.append(Detection(box, class_id, conf, model_id, image_id))
        for _ in range(int(rng.poisson(noise.fp_rate))):
            xa, xb = sorted(rng.uniform(0.0, width, 2).tolist())
            ya, yb = sorted(rng.uniform(0.0, height, 2).tolist())
            conf = float(rng.uniform(*FP_CONF_RANGE))
            class_id = classes[int(rng.integers(len(classes)))] if classes else 0
            out.append(Detection(Box(xa, ya, xb, yb), class_id, conf, model_id, image_id))
    return out


def _bits(dets):
    """Each detection with its floats as hex (so the sign of a zero counts)
    and the type of every coordinate."""
    return [
        (d.image_id, d.model_id, d.class_id, float(d.prob).hex(), type(d.prob),
         *(float(v).hex() for v in d.box.as_tuple()), *map(type, d.box.as_tuple()))
        for d in dets
    ]


def edge_fixture(width=640.0, height=480.0):
    """Boxes at 0, at the image edge, spanning it, signed zeros and tiny ones, over
    many images so each sees many draws."""
    boxes = [
        Box(-0.0, 0.0, 0.0, 1.0),
        Box(0.0, -0.0, 1.0, 0.0),
        Box(0.0, 0.0, 0.0, 0.0),
        Box(0.0, 0.0, 5.0, 5.0),
        Box(width - 5.0, height - 5.0, width, height),
        Box(width, height, width, height),
        Box(0.0, 0.0, width, height),
        Box(3.0, 4.0, 3.0, 9.0),
        Box(1e-200, 1e-200, 2e-200, 2e-200),
        Box(100.25, 50.5, 180.75, 140.0),
    ]
    return [
        GroundTruthRecord(f"edge{i:03d}", (i + k) % 3, box)
        for i in range(40) for k, box in enumerate(boxes)
    ] + random_ground_truth(30, 4, 6, seed=17, image_size=(width, height))


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(),
        NoiseModel(seed=3),
        NoiseModel(jitter_sigma=2.0, drop_rate=0.5, conf_noise=0.05, seed=1),
        NoiseModel(jitter_sigma=40.0, conf_noise=5.0, seed=2),
        NoiseModel(jitter_sigma=1.5, misclass_rate=0.5, fp_rate=3.0, seed=4),
        NoiseModel(jitter_sigma=1e-300, conf_noise=1e-300, seed=5),
        NoiseModel(drop_rate=1.0, fp_rate=3.0, seed=6),
        NoiseModel(jitter_sigma=3, conf_noise=1, seed=7),
    ],
    ids=["exact", "exact-seed3", "drop-half", "conf-noise-5", "misclass-fp",
         "tiny-noise", "drop-all", "integer-sigmas"],
)
@pytest.mark.parametrize("image_size", [(640.0, 480.0), (640, 480)], ids=["float", "int"])
def test_matches_reference_loop_bit_for_bit(noise, image_size):
    gts = edge_fixture(*image_size)
    got = generate_model_detections(gts, noise, model_id=2, image_size=image_size)
    want = reference_model_detections(gts, noise, model_id=2, image_size=image_size)
    assert _bits(got) == _bits(want)


def test_reference_fixture_reaches_signed_zeros_and_both_clamps():
    # the tie rule that decides a zero's sign: a -0.0 corner with zero
    # jitter keeps its sign in some draws and not in others
    dets = reference_model_detections(edge_fixture(), NoiseModel())
    signs = {math.copysign(1.0, d.box.x1) for d in dets if d.box.x1 == 0.0}
    x2_signs = {math.copysign(1.0, d.box.x2) for d in dets if d.box.x2 == 0.0}
    assert signs == x2_signs == {-1.0, 1.0}
    # confidence noise 5 clamps at both ends, and jitter 40 at every edge
    noise = NoiseModel(jitter_sigma=40.0, conf_noise=5.0, seed=2)
    dets = reference_model_detections(edge_fixture(), noise)
    probs = [d.prob for d in dets]
    assert probs.count(0.0) > 0 and probs.count(1.0) > 0
    corners = {v for d in dets for v in d.box.as_tuple()}
    assert {0.0, 640.0, 480.0} <= corners
