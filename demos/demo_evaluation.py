"""Walk through the block-interpolated average-precision computation.

We score three predictions against two ground-truth boxes of one class.
Ranked by confidence they come out TP, FP, TP, which produces the
recall/precision points (0.5, 1.0), (0.5, 0.5), (1.0, 2/3) and an AP of
13/15 under ten-block interpolation.
"""

from detfuse import (
    Box,
    Detection,
    GroundTruthRecord,
    PRCurve,
    average_precision,
    evaluate_dataset,
    match_detections,
    precision_recall,
)

gts = [
    GroundTruthRecord("img", 0, Box(0, 0, 10, 10)),
    GroundTruthRecord("img", 0, Box(100, 100, 110, 110)),
]
preds = [
    Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "img"),       # hits the first GT
    Detection(Box(50, 0, 60, 10), 0, 0.8, 0, "img"),      # hits nothing
    Detection(Box(100, 100, 110, 110), 0, 0.7, 0, "img"),  # hits the second GT
]

outcomes, fn = match_detections(preds, gts, iou_threshold=0.5)
print("ranked outcomes:", [o.verdict for o in outcomes], f"(missed GT: {fn})")

# accumulate the curve point by point down the ranking
points = []
tp = fp = 0
for o in outcomes:
    tp += o.verdict == "TP"
    fp += o.verdict == "FP"
    pre, rec = precision_recall(tp, fp, len(gts) - tp)
    points.append((rec, pre))
    print(f"  after {tp + fp} predictions: precision={pre:.4f} recall={rec:.4f}")

ap = average_precision(PRCurve(points), n_blocks=10)
print(f"\nAP over 10 recall blocks = {ap!r}  (13/15 = {13 / 15!r})")

report = evaluate_dataset(preds, gts)
print(f"dataset mAP = {report.mean_ap!r}, detection rate = {report.detection_rate!r}")
