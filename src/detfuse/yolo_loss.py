"""Reference implementation of the YOLO-style sum-of-squares detection loss.

A pure numerical oracle over an explicit grid layout: the grid is a sequence
of cells, each cell a sequence of box predictions with a congruent target
layout. Intended to verify external training code and to unit-test gradient
implementations; no network, no decoding.

The total is
    lambda_coord * (err_center + err_wh) + err_class + err_conf
where err_center/err_wh are squared center and square-root width/height
errors over responsible boxes, err_class is the squared one-hot class error
in cells holding a responsible box, and err_conf combines the responsible
confidence error with the non-responsible one weighted by lambda_noobj.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError


@dataclass(frozen=True)
class CellBoxPrediction:
    """One predicted box inside a grid cell (cell-relative center coords)."""

    x: float
    y: float
    w: float
    h: float
    conf: float
    class_probs: tuple[float, ...] = ()


@dataclass(frozen=True)
class CellBoxTarget:
    """Training target for one predictor slot.

    ``responsible`` marks the slot assigned to a ground-truth object; only
    then are the geometry and class fields meaningful. ``target_conf`` is
    the IoU of the true box with the prediction when an object exists
    (supplied by the caller), else 0.
    """

    x: float = 0.0
    y: float = 0.0
    w: float = 0.0
    h: float = 0.0
    responsible: bool = False
    target_conf: float = 0.0
    target_class: int | None = None

    def __post_init__(self) -> None:
        if self.responsible:
            if self.target_class is None:
                raise ContractError("responsible target requires target_class")
            if not (self.w > 0 and self.h > 0):  # NaN fails too
                raise ContractError("responsible target requires positive w, h")


@dataclass(frozen=True)
class LossWeights:
    lambda_coord: float = 5.0
    lambda_noobj: float = 0.5

    def __post_init__(self) -> None:
        if not (0 <= self.lambda_coord < math.inf and 0 <= self.lambda_noobj < math.inf):
            raise ContractError("loss weights must be finite and non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    err_center: float
    err_wh: float
    err_class: float
    err_conf: float
    total: float


@dataclass(frozen=True)
class PredictionGradient:
    """Partial derivatives of the total loss w.r.t. one prediction's fields."""

    x: float
    y: float
    w: float
    h: float
    conf: float
    class_probs: tuple[float, ...]


Grid = Sequence[Sequence[CellBoxPrediction]]
TargetGrid = Sequence[Sequence[CellBoxTarget]]


def _check_layout(grid: Grid, targets: TargetGrid) -> None:
    """Congruent cells, one class count across the grid, finite float
    fields, and a responsible target's class among the predicted ones."""
    if len(grid) != len(targets):
        raise ContractError(
            f"prediction grid has {len(grid)} cells, targets {len(targets)}"
        )
    n_classes = None
    for ci, (preds, tgts) in enumerate(zip(grid, targets)):
        if len(preds) != len(tgts):
            raise ContractError(
                f"cell {ci}: {len(preds)} predictions vs {len(tgts)} targets"
            )
        for p, t in zip(preds, tgts):
            if n_classes is None:
                n_classes = len(p.class_probs)
            elif len(p.class_probs) != n_classes:
                raise ContractError(
                    f"cell {ci}: {len(p.class_probs)} class probabilities, "
                    f"expected {n_classes} as in the first prediction"
                )
            if not all(map(math.isfinite, (p.x, p.y, p.w, p.h, p.conf, *p.class_probs))):
                raise ContractError(f"cell {ci}: non-finite field in {p!r}")
            if not all(map(math.isfinite, (t.x, t.y, t.w, t.h, t.target_conf))):
                raise ContractError(f"cell {ci}: non-finite field in {t!r}")
            if t.responsible and not 0 <= t.target_class < n_classes:
                raise ContractError(
                    f"cell {ci}: target_class {t.target_class} outside the "
                    f"{n_classes} predicted classes"
                )


def yolo_loss(
    grid: Grid, targets: TargetGrid, weights: LossWeights = LossWeights()
) -> LossBreakdown:
    """Compute the loss decomposition over a grid of box predictions.

    Raises ContractError on a layout or class-count mismatch, on a NaN or
    infinite float field of a prediction or target, and when a responsible
    prediction has a negative width or height (square root undefined).
    """
    _check_layout(grid, targets)
    err_center = 0.0
    err_wh = 0.0
    err_class = 0.0
    conf_obj = 0.0
    conf_noobj = 0.0
    for preds, tgts in zip(grid, targets):
        for p, t in zip(preds, tgts):
            if t.responsible:
                if p.w < 0 or p.h < 0:
                    raise ContractError("responsible prediction has negative width/height")
                err_center += (p.x - t.x) ** 2 + (p.y - t.y) ** 2
                err_wh += (math.sqrt(p.w) - math.sqrt(t.w)) ** 2
                err_wh += (math.sqrt(p.h) - math.sqrt(t.h)) ** 2
                for c, pc in enumerate(p.class_probs):
                    hot = 1.0 if c == t.target_class else 0.0
                    err_class += (pc - hot) ** 2
                conf_obj += (p.conf - t.target_conf) ** 2
            else:
                conf_noobj += (p.conf - t.target_conf) ** 2
    err_conf = conf_obj + weights.lambda_noobj * conf_noobj
    total = weights.lambda_coord * (err_center + err_wh) + err_class + err_conf
    return LossBreakdown(err_center, err_wh, err_class, err_conf, total)


def yolo_loss_grad(
    grid: Grid, targets: TargetGrid, weights: LossWeights = LossWeights()
) -> list[list[PredictionGradient]]:
    """Analytic gradient of the total loss w.r.t. every prediction field.

    Every float field must be finite, as in ``yolo_loss``. Width/height
    gradients require w > 0 and h > 0 on responsible predictions (the
    square-root term is not differentiable at 0).
    """
    _check_layout(grid, targets)
    out: list[list[PredictionGradient]] = []
    lc = weights.lambda_coord
    ln = weights.lambda_noobj
    for preds, tgts in zip(grid, targets):
        row: list[PredictionGradient] = []
        for p, t in zip(preds, tgts):
            if t.responsible:
                if p.w <= 0 or p.h <= 0:
                    raise ContractError(
                        "gradient undefined at w <= 0 or h <= 0 for a responsible box"
                    )
                gx = lc * 2.0 * (p.x - t.x)
                gy = lc * 2.0 * (p.y - t.y)
                gw = lc * (1.0 - math.sqrt(t.w) / math.sqrt(p.w))
                gh = lc * (1.0 - math.sqrt(t.h) / math.sqrt(p.h))
                gconf = 2.0 * (p.conf - t.target_conf)
                gclass = tuple(
                    2.0 * (pc - (1.0 if c == t.target_class else 0.0))
                    for c, pc in enumerate(p.class_probs)
                )
            else:
                gx = gy = gw = gh = 0.0
                gconf = ln * 2.0 * (p.conf - t.target_conf)
                gclass = tuple(0.0 for _ in p.class_probs)
            row.append(PredictionGradient(gx, gy, gw, gh, gconf, gclass))
        out.append(row)
    return out
