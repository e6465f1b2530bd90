"""Detection-to-ground-truth matching, precision/recall, AP and mAP.

Matching is greedy by descending confidence with the strict IoU rule
(IoU > threshold counts as a localization hit), for a threshold in (0, 1).
AP uses block interpolation: recall is split into n equal closed blocks and
each block contributes the maximum of the right-max interpolated precision
over it; ``average_precision`` returns that AP as a float, and
``evaluate_dataset`` adds the class's TP, FP and FN counts in ``APResult``.

Each image is matched in one sweep over its predictions that serves both
the class-aware rule (AP) and the class-agnostic rule (detection rate).
IoU rows are computed with numpy for a fixed block of consecutive
predictions at a time, with the float operations of ``geometry.iou``, so
the values are the same bits; a block bounds memory on crowded images,
where a full prediction x ground-truth matrix would not. The pairs of a
block whose IoU exceeds the threshold are sorted once, by prediction, then
descending IoU, then ground-truth index, which gives each prediction a short
list of candidates; both rules scan that list in Python, so a prediction
costs nothing beyond its candidates and the tie rule (first ground truth in
input order) is the sort's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ._record import Record
from .errors import ContractError
from .fusion import Detection
from .geometry import MIN_NORMAL, Box, area, check_iou_threshold, iou


@dataclass(frozen=True, init=False)
class GroundTruthRecord(Record):
    """One labeled object instance in one image."""

    __slots__ = ("image_id", "class_id", "box")
    image_id: str
    class_id: int
    box: Box

    def __init__(self, image_id: str, class_id: int, box: Box) -> None:
        if class_id < 0:
            raise ContractError(f"class_id must be non-negative, got {class_id}")
        _set_gt_image_id(self, image_id)
        _set_gt_class_id(self, class_id)
        _set_gt_box(self, box)


_set_gt_image_id, _set_gt_class_id, _set_gt_box = (
    getattr(GroundTruthRecord, n).__set__ for n in GroundTruthRecord.__slots__
)


@dataclass
class MatchOutcome:
    """Verdict for one detection: true positive or false positive."""

    detection: object
    verdict: str  # "TP" or "FP"
    matched_gt: GroundTruthRecord | None = None


@dataclass
class PRCurve:
    """Ordered (recall, precision) points in [0, 1] x [0, 1], one per ranked detection."""

    points: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        last = 0.0
        for r, p in self.points:
            if not (0.0 <= r <= 1.0 and 0.0 <= p <= 1.0):  # NaN fails too
                raise ContractError(f"PR point {(r, p)} outside [0, 1] x [0, 1]")
            if r < last:
                raise ContractError("recall must be non-decreasing along the curve")
            last = r


@dataclass(frozen=True)
class APResult:
    class_id: int
    ap: float
    n_blocks: int
    tp: int
    fp: int
    fn: int


@dataclass
class EvaluationReport:
    """Per-class AP, overall mAP and the class-agnostic localization rate."""

    per_class: list[APResult]
    mean_ap: float
    detection_rate: float
    iou_threshold: float
    n_blocks: int
    classes_without_gt: list[int] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


# Largest accepted recall-block count. AP takes one Python step per block
# and class, so a count far past any curve's resolution only costs time.
MAX_N_BLOCKS = 10_000

# Predictions per IoU block: enough rows to amortize numpy's per-call cost,
# few enough that a block of a crowded image stays a small fraction of memory.
_BLOCK = 64


def _iou_block(boxes: list[Box], gts: list[GroundTruthRecord], g: np.ndarray) -> np.ndarray:
    """IoU of each box (rows) with each ground truth (columns).

    ``g`` holds the ground truths' x1, y1, x2, y2 and area as columns. Every
    entry is geometry.iou(box, gt.box) computed with the same float
    operations; entries whose union underflows are computed by geometry.iou
    itself, and an overflowed (NaN) union reads 0, which never matches.
    """
    p = np.array([b.as_tuple() for b in boxes], dtype=float)
    px1, py1, px2, py2 = (p[:, k : k + 1] for k in range(4))
    # huge coordinates overflow to inf and NaN exactly as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(px2, g[:, 2]) - np.maximum(px1, g[:, 0])
        ih = np.minimum(py2, g[:, 3]) - np.maximum(py1, g[:, 1])
        overlap = (iw > 0) & (ih > 0)
        inter = np.where(overlap, iw * ih, 0.0)
        union = ((px2 - px1) * (py2 - py1) + g[:, 4]) - inter
        out = np.divide(inter, union, out=np.zeros_like(inter), where=union >= MIN_NORMAL)
    for r, c in zip(*np.nonzero(overlap & (union < MIN_NORMAL))):
        out[r, c] = iou(boxes[r], gts[c].box)
    return out


def _sweep(
    preds: list, gts: list[GroundTruthRecord], iou_threshold: float
) -> tuple[list[int], int]:
    """Greedy matching of one image, class-aware and class-agnostic at once.

    Predictions are taken in descending confidence (ties: input order); under
    each rule a prediction grabs the available ground truth with the highest
    IoU (first in input order on ties), provided that IoU strictly exceeds
    the threshold. Both rules read one candidate list per prediction: the
    ground truths whose IoU with it exceeds the threshold, sorted by
    descending IoU, then ascending index. Under the class-agnostic rule a
    prediction takes its first candidate not yet matched; under the
    class-aware rule, its first candidate of its class not yet matched.

    Returns the index of the ground truth each prediction matched under the
    class-aware rule (-1 for none), in input order, and the number of
    ground truths matched under the class-agnostic rule.
    """
    matched_gt = [-1] * len(preds)
    if not preds or not gts:
        return matched_gt, 0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].prob, i))
    g = np.array([(*gt.box.as_tuple(), area(gt.box)) for gt in gts], dtype=float)
    gt_class = [gt.class_id for gt in gts]
    taken = [False] * len(gts)  # matched under the class-aware rule
    agnostic_taken = [False] * len(gts)
    agnostic_hits = 0
    for start in range(0, len(order), _BLOCK):
        rows = order[start : start + _BLOCK]
        block = _iou_block([preds[i].box for i in rows], gts, g)
        r, c = np.nonzero(block > iou_threshold)
        # candidate pairs by row, then descending IoU, then ground-truth index
        k = np.lexsort((c, -block[r, c], r))
        row = -1
        for a, j in zip(r[k].tolist(), c[k].tolist()):
            if a != row:
                row = a
                i = rows[a]
                class_id = preds[i].class_id
                aware = agnostic = True  # still looking under each rule
            if aware and not taken[j] and gt_class[j] == class_id:
                taken[j] = True
                matched_gt[i] = j
                aware = False
            if agnostic and not agnostic_taken[j]:
                agnostic_taken[j] = True
                agnostic_hits += 1
                agnostic = False
    return matched_gt, agnostic_hits


def match_detections(
    preds: list,
    gts: list[GroundTruthRecord],
    iou_threshold: float = 0.5,
) -> tuple[list[MatchOutcome], int]:
    """Match one image's predictions against its ground truths.

    Accepts Detection or ClusterSummary objects (anything with box, class_id
    and prob). Returns one MatchOutcome per prediction, in input order, plus
    the false-negative count (ground truths left unmatched).
    """
    check_iou_threshold(iou_threshold)
    image_ids = {p.image_id for p in preds if hasattr(p, "image_id")}
    image_ids |= {g.image_id for g in gts}
    if len(image_ids) > 1:
        raise ContractError(f"records span multiple images: {sorted(image_ids)}")
    matched_gt, _ = _sweep(preds, gts, iou_threshold)
    outcomes = [
        MatchOutcome(p, "TP", gts[j]) if j >= 0 else MatchOutcome(p, "FP")
        for p, j in zip(preds, matched_gt)
    ]
    fn = len(gts) - sum(1 for j in matched_gt if j >= 0)
    return outcomes, fn


def _check_n_blocks(n_blocks: int) -> None:
    if not 1 <= n_blocks <= MAX_N_BLOCKS:
        raise ContractError(f"n_blocks must be in [1, {MAX_N_BLOCKS}], got {n_blocks}")


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """Precision and recall from counts; 0 when the denominator is 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ContractError("counts must be non-negative")
    pre = tp / (tp + fp) if tp + fp > 0 else 0.0
    rec = tp / (tp + fn) if tp + fn > 0 else 0.0
    return pre, rec


def average_precision(curve: PRCurve, n_blocks: int = 10) -> float:
    """Block-interpolated average precision of one class's curve.

    Recall is divided into ``n_blocks`` equal closed blocks
    [(i-1)/n, i/n]; each contributes the max of the right-max interpolated
    precision (the best precision at recall >= r) over the block. Since
    that is a non-increasing step function, the max is its value at the
    block's left endpoint. An empty curve yields AP = 0. Raises
    ContractError unless 1 <= n_blocks <= MAX_N_BLOCKS.
    """
    _check_n_blocks(n_blocks)
    pts = curve.points
    if not pts:
        return 0.0
    # PRCurve holds recall non-decreasing, so the points are in recall order
    recalls = np.array([r for r, _ in pts])
    # suffix max: best precision at recall >= recalls[k]
    p_suffix = np.maximum.accumulate(np.array([p for _, p in pts])[::-1])[::-1]

    total = 0.0
    for i in range(1, n_blocks + 1):
        lo = (i - 1) / n_blocks
        k = int(np.searchsorted(recalls, lo, side="left"))
        total += float(p_suffix[k]) if k < len(recalls) else 0.0
    return total / n_blocks


def mean_ap(per_class: list[APResult]) -> float:
    """Arithmetic mean of per-class APs. Raises on an empty list."""
    if not per_class:
        raise ContractError("mean over zero classes is undefined")
    return sum(r.ap for r in per_class) / len(per_class)


def evaluate_dataset(
    preds: list[Detection],
    gts: list[GroundTruthRecord],
    iou_threshold: float = 0.5,
    n_blocks: int = 10,
) -> EvaluationReport:
    """Evaluate a multi-image prediction set against ground truth.

    Matches per image, pools outcomes per class across images, ranks each
    class's detections globally by confidence (ties: input order), and
    computes block-interpolated AP per class and their mean. Classes with no
    ground-truth instances get no AP entry but are listed in the report.
    Also reports the class-agnostic localization rate: the fraction of
    ground-truth instances matched by any prediction at the IoU threshold.
    Raises ContractError unless 0 < iou_threshold < 1 and
    1 <= n_blocks <= MAX_N_BLOCKS.
    """
    check_iou_threshold(iou_threshold)
    _check_n_blocks(n_blocks)
    warnings: list[str] = []
    preds_by_image: dict[str, list[int]] = defaultdict(list)
    by_class: dict[int, list[int]] = defaultdict(list)
    for idx, d in enumerate(preds):
        preds_by_image[d.image_id].append(idx)
        by_class[d.class_id].append(idx)
    gts_by_image: dict[str, list[GroundTruthRecord]] = defaultdict(list)
    gt_counts: dict[int, int] = defaultdict(int)
    for g in gts:
        gts_by_image[g.image_id].append(g)
        gt_counts[g.class_id] += 1

    is_tp = [False] * len(preds)
    agnostic_hits = 0
    for image_id in sorted(set(preds_by_image) | set(gts_by_image)):
        items = preds_by_image.get(image_id, [])
        if items and image_id not in gts_by_image:
            warnings.append(
                f"image {image_id!r} has predictions but no ground truth; all counted as FP"
            )
        matched_gt, hits = _sweep(
            [preds[idx] for idx in items], gts_by_image.get(image_id, []), iou_threshold
        )
        for idx, j in zip(items, matched_gt):
            is_tp[idx] = j >= 0
        agnostic_hits += hits

    per_class: list[APResult] = []
    for class_id in sorted(gt_counts):
        npos = gt_counts[class_id]
        indices = sorted(
            by_class.get(class_id, []), key=lambda i: (-preds[i].prob, i)
        )
        points: list[tuple[float, float]] = []
        cum_tp = 0
        cum_fp = 0
        for i in indices:
            if is_tp[i]:
                cum_tp += 1
            else:
                cum_fp += 1
            points.append((cum_tp / npos, cum_tp / (cum_tp + cum_fp)))
        ap = average_precision(PRCurve(points), n_blocks)
        per_class.append(APResult(class_id, ap, n_blocks, cum_tp, cum_fp, npos - cum_tp))

    classes_without_gt = sorted(set(by_class) - set(gt_counts))
    if per_class:
        overall = mean_ap(per_class)
    else:
        overall = 0.0
        warnings.append("no class has ground-truth instances; mAP reported as 0")
    total_gt = len(gts)
    detection_rate = agnostic_hits / total_gt if total_gt > 0 else 0.0
    return EvaluationReport(
        per_class=per_class,
        mean_ap=overall,
        detection_rate=detection_rate,
        iou_threshold=iou_threshold,
        n_blocks=n_blocks,
        classes_without_gt=classes_without_gt,
        warnings=warnings,
    )
