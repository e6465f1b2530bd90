import math
import random

import pytest

from detfuse import (
    Box,
    ContractError,
    Detection,
    GroundTruthRecord,
    PRCurve,
    average_precision,
    evaluate_dataset,
    match_detections,
    mean_ap,
    precision_recall,
)
from detfuse.evaluation import MAX_N_BLOCKS, APResult

from oracles import brute_force_evaluate


def det(box, class_id=0, prob=0.5, image_id="img"):
    return Detection(Box(*box), class_id, prob, 0, image_id)


def gt(box, class_id=0, image_id="img"):
    return GroundTruthRecord(image_id, class_id, Box(*box))


class TestMatching:
    def test_exact_match_is_tp(self):
        outcomes, fn = match_detections([det((0, 0, 10, 10))], [gt((0, 0, 10, 10))])
        assert outcomes[0].verdict == "TP"
        assert fn == 0

    def test_no_gt_is_fp(self):
        outcomes, fn = match_detections([det((0, 0, 10, 10))], [])
        assert outcomes[0].verdict == "FP"
        assert fn == 0

    def test_greedy_by_confidence(self):
        # higher-conf pred with worse IoU takes the single GT first
        g = gt((0, 0, 10, 10))
        medium = det((0, 2, 10, 12), prob=0.9)  # IoU = 80/120 ~ 0.67
        better = det((0, 1, 10, 11), prob=0.8)  # IoU = 90/110 ~ 0.82
        outcomes, fn = match_detections([medium, better], [g])
        assert outcomes[0].verdict == "TP"  # conf 0.9 matched first
        assert outcomes[1].verdict == "FP"
        assert fn == 0

    def test_strictly_greater_than_threshold(self):
        # IoU exactly 0.5 is NOT a match for evaluation
        g = gt((0, 0, 10, 10))
        p = det((0, 0, 10, 5), prob=0.9)
        outcomes, fn = match_detections([p], [g], iou_threshold=0.5)
        assert outcomes[0].verdict == "FP"
        assert fn == 1

    def test_gt_matched_at_most_once(self):
        g = gt((0, 0, 10, 10))
        p1 = det((0, 0, 10, 10), prob=0.9)
        p2 = det((0, 0, 10, 10), prob=0.8)
        outcomes, fn = match_detections([p1, p2], [g])
        assert [o.verdict for o in outcomes] == ["TP", "FP"]
        assert outcomes[0].matched_gt is g

    def test_class_must_match(self):
        outcomes, fn = match_detections(
            [det((0, 0, 10, 10), class_id=1)], [gt((0, 0, 10, 10), class_id=2)]
        )
        assert outcomes[0].verdict == "FP"
        assert fn == 1

    def test_mixed_images_rejected(self):
        with pytest.raises(ContractError):
            match_detections([det((0, 0, 1, 1), image_id="a")], [gt((0, 0, 1, 1), image_id="b")])

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.0, 1.5, float("nan")])
    def test_threshold_outside_open_unit_interval_rejected(self, threshold):
        # the rule and message fusion applies to its own threshold
        with pytest.raises(ContractError, match=r"iou_threshold must be in \(0, 1\)"):
            match_detections([det((0, 0, 10, 10))], [gt((0, 0, 10, 10))], threshold)
        with pytest.raises(ContractError, match=r"iou_threshold must be in \(0, 1\)"):
            evaluate_dataset([det((0, 0, 10, 10))], [gt((0, 0, 10, 10))], threshold)

    def test_underflowing_boxes_match(self):
        # both areas underflow to 0; the IoU of identical boxes is still 1
        tiny = (0.0, 0.0, 1.3279261924115152e-168, 2.6408222023612193e-157)
        outcomes, fn = match_detections([det(tiny)], [gt(tiny)])
        assert outcomes[0].verdict == "TP"
        assert evaluate_dataset([det(tiny)], [gt(tiny)]).detection_rate == 1.0


class TestPrecisionRecall:
    @pytest.mark.parametrize(
        "tp,fp,fn,pre,rec",
        [(3, 1, 0, 0.75, 1.0), (0, 0, 5, 0.0, 0.0), (2, 2, 2, 0.5, 0.5)],
    )
    def test_ratios(self, tp, fp, fn, pre, rec):
        assert precision_recall(tp, fp, fn) == (pre, rec)

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractError):
            precision_recall(-1, 0, 0)


class TestAveragePrecision:
    def test_perfect_curve(self):
        curve = PRCurve([(0.5, 1.0), (1.0, 1.0)])
        assert average_precision(curve, 10) == 1.0

    def test_no_tp(self):
        curve = PRCurve([(0.0, 0.0), (0.0, 0.0)])
        assert average_precision(curve, 10) == 0.0

    def test_empty_curve(self):
        assert average_precision(PRCurve([]), 10) == 0.0

    def test_worked_example(self):
        # 2 GT, ranked TP, FP, TP: blocks 1-6 see precision 1, blocks 7-10 see 2/3
        curve = PRCurve([(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)])
        assert average_precision(curve, 10) == pytest.approx(13 / 15, abs=1e-9)

    @pytest.mark.parametrize("n_blocks", [-1, 0, MAX_N_BLOCKS + 1, 10**9])
    def test_n_blocks_outside_range_rejected(self, n_blocks):
        # one check for both entry points; 10**9 blocks would otherwise run for hours
        with pytest.raises(ContractError, match=r"n_blocks must be in \[1, 10000\]"):
            average_precision(PRCurve([(0.5, 1.0)]), n_blocks)
        with pytest.raises(ContractError, match=r"n_blocks must be in \[1, 10000\]"):
            evaluate_dataset([det((0, 0, 10, 10))], [gt((0, 0, 10, 10))], 0.5, n_blocks)

    def test_recall_monotonicity_enforced(self):
        with pytest.raises(ContractError):
            PRCurve([(0.5, 1.0), (0.4, 1.0)])

    def test_nan_recall_rejected(self):
        # a NaN compares false both ways, so it must not pass as "not decreasing"
        with pytest.raises(ContractError):
            PRCurve([(0.5, 1.0), (float("nan"), 1.0), (0.3, 1.0)])

    @pytest.mark.parametrize(
        "point",
        [
            (0.5, 3.0), (0.5, -1.0), (0.5, math.nan), (0.5, math.inf), (0.5, 1.0000000000000002),
            (2.0, 0.5), (math.inf, 0.5), (math.nan, 0.5), (-0.1, 0.5), (0.5, -5e-324),
        ],
    )
    def test_point_outside_unit_square_rejected(self, point):
        # (0.5, 3.0) used to give AP 1.8, (0.5, -1.0) AP -0.6 and (0.5, nan) AP nan
        with pytest.raises(ContractError, match="outside"):
            PRCurve([point])
        with pytest.raises(ContractError, match="outside"):
            PRCurve([(0.0, 1.0), point, (1.0, 1.0)])

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (-0.0, -0.0)])
    def test_unit_square_corners_accepted(self, point):
        assert 0.0 <= average_precision(PRCurve([point]), 4) <= 1.0

    def test_returns_a_float(self):
        assert type(average_precision(PRCurve([(0.5, 1.0)]), 4)) is float
        assert type(average_precision(PRCurve([]), 4)) is float

    def test_large_n_converges_to_curve_area(self):
        rng = random.Random(5)
        for _ in range(20):
            npos = rng.randint(1, 6)
            verdicts = [rng.random() < 0.6 for _ in range(rng.randint(1, 12))]
            tp = fp = 0
            points = []
            for v in verdicts:
                tp += v
                fp += not v
                tp_eff = min(tp, npos)
                points.append((tp_eff / npos, tp_eff / (tp_eff + fp)))
            curve = PRCurve(points)
            area = _step_area(points)
            ap = average_precision(curve, 10_000)
            assert abs(ap - area) < 1e-3


def _step_area(points):
    """Exact integral of the right-max interpolated precision over [0, 1]."""
    if not points:
        return 0.0
    breaks = sorted({r for r, _ in points})
    total = 0.0
    prev = 0.0
    for r in breaks:
        p = max(pre for rec, pre in points if rec >= r)
        total += (r - prev) * p
        prev = r
    return total


class TestMeanAP:
    def test_single(self):
        assert mean_ap([APResult(0, 1.0, 10, 1, 0, 0)]) == 1.0

    def test_pair(self):
        assert mean_ap([APResult(0, 1.0, 10, 1, 0, 0), APResult(1, 0.0, 10, 0, 1, 1)]) == 0.5

    def test_arithmetic_mean(self):
        results = [APResult(i, v, 10, 0, 0, 0) for i, v in enumerate([0.8667, 0.75, 1.0])]
        assert mean_ap(results) == pytest.approx((0.8667 + 0.75 + 1.0) / 3)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            mean_ap([])

    def test_identical_aps(self):
        results = [APResult(i, 0.625, 10, 0, 0, 0) for i in range(4)]
        assert mean_ap(results) == 0.625


class TestEvaluateDataset:
    def test_perfect_predictions(self):
        gts = [
            gt((0, 0, 10, 10), 0, "a"),
            gt((20, 20, 40, 40), 1, "a"),
            gt((5, 5, 25, 25), 0, "b"),
        ]
        preds = [Detection(g.box, g.class_id, 1.0, 0, g.image_id) for g in gts]
        report = evaluate_dataset(preds, gts)
        assert report.mean_ap == 1.0
        assert report.detection_rate == 1.0

    def test_empty_predictions(self):
        gts = [gt((0, 0, 10, 10), 0, "a"), gt((0, 0, 10, 10), 1, "b")]
        report = evaluate_dataset([], gts)
        assert report.mean_ap == 0.0
        assert report.detection_rate == 0.0
        assert [r.fn for r in report.per_class] == [1, 1]

    def test_tp_plus_fn_equals_gt_count(self):
        preds, gts = _random_fixture(random.Random(31))
        report = evaluate_dataset(preds, gts)
        gt_per_class = {}
        for g in gts:
            gt_per_class[g.class_id] = gt_per_class.get(g.class_id, 0) + 1
        for r in report.per_class:
            assert r.tp + r.fn == gt_per_class[r.class_id]

    def test_pred_for_unknown_image_warns_and_counts_fp(self):
        gts = [gt((0, 0, 10, 10), 0, "a")]
        preds = [det((0, 0, 10, 10), 0, 0.9, "a"), det((0, 0, 10, 10), 0, 0.9, "ghost")]
        report = evaluate_dataset(preds, gts)
        assert any("ghost" in w for w in report.warnings)
        assert report.per_class[0].fp == 1

    def test_class_without_gt_listed(self):
        gts = [gt((0, 0, 10, 10), 0)]
        preds = [det((0, 0, 10, 10), 0, 0.9), det((50, 50, 60, 60), 7, 0.9)]
        report = evaluate_dataset(preds, gts)
        assert report.classes_without_gt == [7]
        assert [r.class_id for r in report.per_class] == [0]

    def test_confidence_rescaling_invariance(self):
        preds, gts = _random_fixture(random.Random(37))
        base = evaluate_dataset(preds, gts)
        rescaled = [
            Detection(p.box, p.class_id, p.prob**2, p.model_id, p.image_id)
            for p in preds  # strictly monotone on [0, 1]
        ]
        other = evaluate_dataset(rescaled, gts)
        assert [r.ap for r in base.per_class] == [r.ap for r in other.per_class]
        assert base.mean_ap == other.mean_ap

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(25):
            preds, gts = _random_fixture(rng)
            report = evaluate_dataset(preds, gts)
            expected = brute_force_evaluate(
                [(p.image_id, p.class_id, p.box.as_tuple(), p.prob) for p in preds],
                [(g.image_id, g.class_id, g.box.as_tuple()) for g in gts],
            )
            for r in report.per_class:
                ap, tp, fp, fn = expected[r.class_id]
                assert (r.tp, r.fp, r.fn) == (tp, fp, fn)
                assert r.ap == pytest.approx(ap, abs=1e-9)
            assert report.mean_ap == pytest.approx(expected["mAP"], abs=1e-9)
            assert report.detection_rate == pytest.approx(expected["detection_rate"], abs=1e-12)


def _random_fixture(rng, n_images=4, max_boxes=8, n_classes=3):
    gts = []
    preds = []
    for i in range(n_images):
        image_id = f"im{i}"
        for _ in range(rng.randint(0, max_boxes)):
            x1, y1 = rng.uniform(0, 80), rng.uniform(0, 80)
            w, h = rng.uniform(5, 20), rng.uniform(5, 20)
            gts.append(gt((x1, y1, x1 + w, y1 + h), rng.randint(0, n_classes - 1), image_id))
        for _ in range(rng.randint(0, max_boxes)):
            x1, y1 = rng.uniform(0, 80), rng.uniform(0, 80)
            w, h = rng.uniform(5, 20), rng.uniform(5, 20)
            preds.append(
                det(
                    (x1, y1, x1 + w, y1 + h),
                    rng.randint(0, n_classes - 1),
                    round(rng.uniform(0.05, 1.0), 6),
                    image_id,
                )
            )
        # partially-overlapping copies of some GT boxes make TPs likely
        for g in gts[-3:]:
            if g.image_id != image_id:
                continue
            dx = rng.uniform(-2, 2)
            preds.append(
                det(
                    (g.box.x1 + dx, g.box.y1, g.box.x2 + dx, g.box.y2),
                    g.class_id,
                    round(rng.uniform(0.05, 1.0), 6),
                    image_id,
                )
            )
    return preds, gts
