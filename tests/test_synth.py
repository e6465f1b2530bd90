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
from detfuse.io import save_detections
from detfuse.synth import MAX_FP_RATE, MAX_MODELS

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
