"""Greedy clustering of multi-model detections and cluster summaries.

Detections are assigned one by one to the existing same-class cluster whose
aggregate box overlaps them best (by aggregate probability among clusters
above the IoU threshold); a detection with no match seeds a new cluster,
unless its probability is 0: it has no weight to place a box with, so it
is dropped. A probability-0 detection that does match joins its cluster,
so every cluster holds a member of positive probability. A cluster is
summarized by the probability-weighted average of its member boxes, the
max member probability divided by the cluster size, and the shared class.

Clusters are kept in per-class buckets, in creation order, so a detection
scans only the clusters of its own class and ties still go to the cluster
created first. Each cluster carries its aggregate as plain floats; the
summary objects are built once, when clustering ends. Each member's
probability p and products p*x1, p*y1, p*x2, p*y2 are stored when it joins;
after an insertion the aggregate is ``sum()`` of those lists, the same sums
``summarize`` takes, not updated from running totals: ``sum()``
of floats rounds differently from repeated ``+=`` on Python 3.12 and later
(it compensates), and the aggregate must equal the direct formula bit for
bit on every supported Python.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ._record import Record
from .errors import ContractError
from .geometry import MIN_NORMAL, Box, check_iou_threshold, iou

# Aggregate probability of a cluster: max member probability divided by the
# cluster size (the default), or the plain max (for experimentation; the
# scaled form penalizes corroborated boxes).
PROB_SCALED_MAX = "scaled-max"
PROB_MAX = "max"
PROB_MODES = (PROB_SCALED_MAX, PROB_MAX)


class Detection(Record):
    """One model's prediction: a box, a class, a probability and a source tag."""

    __slots__ = ("box", "class_id", "prob", "model_id", "image_id")
    box: Box
    class_id: int
    prob: float
    model_id: int
    image_id: str

    def __init__(
        self, box: Box, class_id: int, prob: float, model_id: int = 0, image_id: str = ""
    ) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ContractError(f"prob must be in [0, 1], got {prob}")
        if class_id < 0:
            raise ContractError(f"class_id must be non-negative, got {class_id}")
        _set_det_box(self, box)
        _set_det_class_id(self, class_id)
        _set_det_prob(self, prob)
        _set_det_model_id(self, model_id)
        _set_det_image_id(self, image_id)


_set_det_box, _set_det_class_id, _set_det_prob, _set_det_model_id, _set_det_image_id = (
    getattr(Detection, n).__set__ for n in Detection.__slots__
)


@dataclass
class Cluster:
    """Non-empty group of same-class detections, in insertion order."""

    members: list[Detection] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.members:
            raise ContractError("cluster must be non-empty")
        c = self.members[0].class_id
        if any(m.class_id != c for m in self.members):
            raise ContractError("cluster members must share one class_id")

    @property
    def class_id(self) -> int:
        return self.members[0].class_id


class ClusterSummary(Record):
    """Aggregate box, probability and class of a cluster, plus member count."""

    __slots__ = ("box", "prob", "class_id", "support")
    box: Box
    prob: float
    class_id: int
    support: int

    def __init__(self, box: Box, prob: float, class_id: int, support: int) -> None:
        _set_sum_box(self, box)
        _set_sum_prob(self, prob)
        _set_sum_class_id(self, class_id)
        _set_sum_support(self, support)


_set_sum_box, _set_sum_prob, _set_sum_class_id, _set_sum_support = (
    getattr(ClusterSummary, n).__set__ for n in ClusterSummary.__slots__
)


def _check_prob_mode(prob_mode: str) -> None:
    if prob_mode not in PROB_MODES:
        raise ContractError(f"unknown prob_mode {prob_mode!r}")


def _aggregate(
    p: list[float],
    px1: list[float],
    py1: list[float],
    px2: list[float],
    py2: list[float],
    prob_mode: str,
) -> tuple[float, float, float, float, float]:
    """(x1, y1, x2, y2, prob) of a cluster from its members' probabilities
    ``p`` and probability-weighted corners ``p * x1`` ..., in member order."""
    total = sum(p)
    if total <= 0.0:
        raise ContractError("all member probabilities are zero")
    peak = max(p)
    prob = peak / len(p) if prob_mode == PROB_SCALED_MAX else peak
    return sum(px1) / total, sum(py1) / total, sum(px2) / total, sum(py2) / total, prob


def summarize(cluster: Cluster, prob_mode: str = PROB_SCALED_MAX) -> ClusterSummary:
    """Compute the aggregate (box, probability, class) of a cluster.

    The aggregate box is the per-coordinate average of member boxes weighted
    by member probability; the aggregate probability is the max member
    probability divided by the cluster size (or the plain max, see
    ``prob_mode``). Raises ContractError when all member probabilities are
    zero; no cluster ``merge_boxes`` builds is such a cluster.
    """
    _check_prob_mode(prob_mode)
    ms = cluster.members
    x1, y1, x2, y2, prob = _aggregate(
        [m.prob for m in ms],
        [m.prob * m.box.x1 for m in ms],
        [m.prob * m.box.y1 for m in ms],
        [m.prob * m.box.x2 for m in ms],
        [m.prob * m.box.y2 for m in ms],
        prob_mode,
    )
    return ClusterSummary(Box(x1, y1, x2, y2), prob, cluster.class_id, len(ms))


class _Open:
    """A cluster being built: its members, their weighted corners and the aggregate."""

    __slots__ = ("x1", "y1", "x2", "y2", "area", "prob", "members", "p", "px1", "py1", "px2", "py2")

    def __init__(self) -> None:
        self.members: list[Detection] = []
        self.p: list[float] = []
        self.px1: list[float] = []
        self.py1: list[float] = []
        self.px2: list[float] = []
        self.py2: list[float] = []

    def add(self, det: Detection, prob_mode: str) -> None:
        p, b = det.prob, det.box
        self.members.append(det)
        self.p.append(p)
        self.px1.append(p * b.x1)
        self.py1.append(p * b.y1)
        self.px2.append(p * b.x2)
        self.py2.append(p * b.y2)
        x1, y1, x2, y2, self.prob = _aggregate(
            self.p, self.px1, self.py1, self.px2, self.py2, prob_mode
        )
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2
        self.area = (x2 - x1) * (y2 - y1)


def _merge(
    detections: list[Detection], iou_threshold: float, prob_mode: str
) -> list[tuple[list[Detection], ClusterSummary]]:
    """Member lists and summaries of one image's clusters, in merge_boxes order."""
    check_iou_threshold(iou_threshold)
    _check_prob_mode(prob_mode)
    if not detections:
        return []
    if len({d.image_id for d in detections}) > 1:
        raise ContractError("merge_boxes requires detections from a single image")

    order = sorted(
        range(len(detections)),
        key=lambda i: (-detections[i].prob, detections[i].model_id, i),
    )
    created: list[_Open] = []
    buckets: dict[int, list[_Open]] = defaultdict(list)
    for i in order:
        det = detections[i]
        b = det.box
        bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
        b_area = (bx2 - bx1) * (by2 - by1)
        bucket = buckets[det.class_id]
        best: _Open | None = None
        for c in bucket:
            # iou(cluster box, det box) with geometry.iou's operations, where
            # min(u, v) is `v if v < u else u`. No overlap means IoU 0, which
            # is below every allowed threshold.
            iw = (bx2 if bx2 < c.x2 else c.x2) - (bx1 if bx1 > c.x1 else c.x1)
            if iw <= 0:
                continue
            ih = (by2 if by2 < c.y2 else c.y2) - (by1 if by1 > c.y1 else c.y1)
            if ih <= 0:
                continue
            inter = iw * ih
            union = c.area + b_area - inter
            if union < MIN_NORMAL:
                v = iou(Box(c.x1, c.y1, c.x2, c.y2), b)
            else:
                v = inter / union
            if v < iou_threshold:
                continue
            if best is None or c.prob > best.prob:
                best = c
        if best is None:
            if det.prob == 0.0:
                continue  # no weight to place a box with
            best = _Open()
            created.append(best)
            bucket.append(best)
        best.add(det, prob_mode)

    summaries = [
        ClusterSummary(Box(c.x1, c.y1, c.x2, c.y2), c.prob, c.members[0].class_id, len(c.members))
        for c in created
    ]
    ranked = sorted(
        range(len(summaries)),
        key=lambda k: (-summaries[k].prob, -summaries[k].support, k),
    )
    return [(created[k].members, summaries[k]) for k in ranked]


def merge_boxes_with_members(
    detections: list[Detection],
    iou_threshold: float = 0.5,
    prob_mode: str = PROB_SCALED_MAX,
) -> list[tuple[Cluster, ClusterSummary]]:
    """Like merge_boxes, but also returns each cluster's member list."""
    return [(Cluster(m), s) for m, s in _merge(detections, iou_threshold, prob_mode)]


def merge_boxes(
    detections: list[Detection],
    iou_threshold: float = 0.5,
    prob_mode: str = PROB_SCALED_MAX,
) -> list[ClusterSummary]:
    """Cluster one image's detections and return the cluster summaries.

    Detections are processed in descending probability (ties: ascending
    model_id, then input order). Each joins the same-class cluster with the
    highest current aggregate probability among clusters whose aggregate box
    has IoU >= iou_threshold with it, else it seeds a new cluster. A
    detection of probability 0 that joins no cluster is dropped, since it
    has no weight to place a box with; one that joins a cluster leaves its
    box unchanged and lowers its scaled-max probability. Summaries are
    recomputed after every insertion and returned sorted by descending
    aggregate probability, ties broken by descending support then cluster
    creation order.
    """
    return [s for _, s in _merge(detections, iou_threshold, prob_mode)]
