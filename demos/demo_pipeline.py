"""End-to-end run: synthesize an ensemble, fuse it, and score everything.

Generates ground truth, simulates three imperfect detectors over it,
evaluates each detector alone, then fuses their outputs and shows that
the fused set beats the best single detector (using the plain-max
cluster probability so corroborated boxes rank highest).
"""

from detfuse import (
    Detection,
    NoiseModel,
    PROB_MAX,
    evaluate_dataset,
    generate_ensemble,
    merge_boxes,
    random_ground_truth,
)

gts = random_ground_truth(n_images=20, n_classes=5, boxes_per_image=4, seed=1234)
noise = NoiseModel(jitter_sigma=3.0, drop_rate=0.1, fp_rate=1.0,
                   conf_noise=0.05, seed=0)
ensemble = generate_ensemble(gts, noise, 3)

print("single-model performance:")
best = 0.0
for i, dets in enumerate(ensemble):
    r = evaluate_dataset(dets, gts)
    best = max(best, r.mean_ap)
    print(f"  model {i}: mAP={r.mean_ap:.4f} detection-rate={r.detection_rate:.4f}")

by_image: dict[str, list[Detection]] = {}
for dets in ensemble:
    for d in dets:
        by_image.setdefault(d.image_id, []).append(d)

fused = []
for image_id in sorted(by_image):
    for s in merge_boxes(by_image[image_id], iou_threshold=0.5, prob_mode=PROB_MAX):
        fused.append(Detection(s.box, s.class_id, s.prob, -1, image_id))

r = evaluate_dataset(fused, gts)
print(f"\nfused ensemble: mAP={r.mean_ap:.4f} detection-rate={r.detection_rate:.4f}")
print(f"improvement over best single model: {r.mean_ap - best:+.4f}")
