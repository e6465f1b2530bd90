import dataclasses
import math
import random

import pytest

from detfuse import (
    CellBoxPrediction,
    CellBoxTarget,
    ContractError,
    LossWeights,
    yolo_loss,
    yolo_loss_grad,
)


def matched_pair():
    """2x2-cell grid, 2 predictors per cell, predictions equal to targets."""
    grid = []
    targets = []
    rng = random.Random(3)
    for ci in range(4):
        preds = []
        tgts = []
        for j in range(2):
            responsible = ci == 0 and j == 0
            x, y = rng.uniform(0, 1), rng.uniform(0, 1)
            w, h = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
            if responsible:
                conf = 0.7  # matches target_conf below
                preds.append(CellBoxPrediction(x, y, w, h, conf, (0.0, 1.0, 0.0)))
                tgts.append(CellBoxTarget(x, y, w, h, True, conf, 1))
            else:
                preds.append(CellBoxPrediction(x, y, w, h, 0.0, (0.0, 0.0, 0.0)))
                tgts.append(CellBoxTarget())
        grid.append(preds)
        targets.append(tgts)
    return grid, targets


def test_zero_loss_fixed_point():
    grid, targets = matched_pair()
    out = yolo_loss(grid, targets)
    assert out.err_center == 0.0
    assert out.err_wh == 0.0
    assert out.err_class == 0.0
    assert out.err_conf == 0.0
    assert out.total == 0.0


def test_center_error_hand_case():
    grid = [[CellBoxPrediction(0.5, 0.5, 1.0, 1.0, 0.6, (1.0,))]]
    targets = [[CellBoxTarget(0.2, 0.1, 1.0, 1.0, True, 0.6, 0)]]
    out = yolo_loss(grid, targets)
    assert out.err_center == pytest.approx(0.3**2 + 0.4**2, abs=1e-15)
    assert out.total == pytest.approx(5 * 0.25, abs=1e-12)


def test_noobj_confidence_hand_case():
    grid = [[CellBoxPrediction(0, 0, 1, 1, 0.4, ())]]
    targets = [[CellBoxTarget()]]
    out = yolo_loss(grid, targets)
    assert out.err_conf == pytest.approx(0.5 * 0.16, abs=1e-15)
    assert out.total == pytest.approx(0.08, abs=1e-15)


def test_default_weights():
    w = LossWeights()
    assert w.lambda_coord == 5.0
    assert w.lambda_noobj == 0.5


def test_components_non_negative():
    rng = random.Random(9)
    for _ in range(50):
        grid, targets = random_config(rng)
        out = yolo_loss(grid, targets)
        assert out.err_center >= 0
        assert out.err_wh >= 0
        assert out.err_class >= 0
        assert out.err_conf >= 0


def test_sum_decomposition():
    rng = random.Random(15)
    for _ in range(50):
        grid, targets = random_config(rng)
        weights = LossWeights(rng.uniform(0, 10), rng.uniform(0, 2))
        out = yolo_loss(grid, targets, weights)
        recomputed = (
            weights.lambda_coord * (out.err_center + out.err_wh)
            + out.err_class
            + out.err_conf
        )
        assert abs(out.total - recomputed) < 1e-12


def test_lambda_coord_scaling_linear():
    rng = random.Random(21)
    grid, targets = random_config(rng)
    base = yolo_loss(grid, targets, LossWeights(1.0, 0.5))
    for s in (2.0, 5.0, 0.25):
        scaled = yolo_loss(grid, targets, LossWeights(s, 0.5))
        coord = base.err_center + base.err_wh
        assert abs((scaled.total - base.total) - (s - 1.0) * coord) < 1e-12
        assert scaled.err_class == base.err_class
        assert scaled.err_conf == base.err_conf


def test_layout_mismatch_rejected():
    grid = [[CellBoxPrediction(0, 0, 1, 1, 0, ())]]
    with pytest.raises(ContractError):
        yolo_loss(grid, [])
    with pytest.raises(ContractError):
        yolo_loss(grid, [[CellBoxTarget(), CellBoxTarget()]])


@pytest.mark.parametrize("fn", [yolo_loss, yolo_loss_grad])
def test_mixed_class_counts_rejected(fn):
    grid = [
        [CellBoxPrediction(0, 0, 1, 1, 0, (0.5, 0.5))],
        [CellBoxPrediction(0, 0, 1, 1, 0, (1.0,))],
    ]
    targets = [[CellBoxTarget()], [CellBoxTarget()]]
    with pytest.raises(ContractError, match="class probabilities"):
        fn(grid, targets)


@pytest.mark.parametrize("fn", [yolo_loss, yolo_loss_grad])
@pytest.mark.parametrize("probs, target_class", [((0.9, 0.1), 5), ((0.9, 0.1), -1), ((), 0)])
def test_target_class_outside_predicted_classes_rejected(fn, probs, target_class):
    # target_class 5 of two classes used to count as no hot class (err_class 0.82)
    grid = [[CellBoxPrediction(0, 0, 1, 1, 0.5, probs)]]
    targets = [[CellBoxTarget(0, 0, 1, 1, True, 0.5, target_class)]]
    with pytest.raises(ContractError, match="target_class"):
        fn(grid, targets)


def test_target_class_ignored_on_non_responsible_slot():
    grid = [[CellBoxPrediction(0, 0, 1, 1, 0.5, (0.9, 0.1))]]
    targets = [[CellBoxTarget(target_class=5)]]
    assert yolo_loss(grid, targets).err_class == 0.0
    assert yolo_loss_grad(grid, targets)[0][0].class_probs == (0.0, 0.0)


def test_negative_wh_rejected():
    grid = [[CellBoxPrediction(0, 0, -0.5, 1, 0, (1.0,))]]
    targets = [[CellBoxTarget(0, 0, 1, 1, True, 0.5, 0)]]
    with pytest.raises(ContractError):
        yolo_loss(grid, targets)
    with pytest.raises(ContractError):
        yolo_loss_grad(grid, targets)


def test_zero_wh_has_a_loss_but_no_gradient():
    # sqrt(0) is defined, its derivative is not
    for wh in [(0.0, 1.0), (1.0, 0.0)]:
        grid = [[CellBoxPrediction(0, 0, *wh, 0, (1.0,))]]
        targets = [[CellBoxTarget(0, 0, 1, 1, True, 0.5, 0)]]
        assert yolo_loss(grid, targets).err_wh == 1.0
        with pytest.raises(ContractError):
            yolo_loss_grad(grid, targets)


def test_negative_height_rejected():
    grid = [[CellBoxPrediction(0, 0, 1, -0.5, 0, (1.0,))]]
    targets = [[CellBoxTarget(0, 0, 1, 1, True, 0.5, 0)]]
    with pytest.raises(ContractError):
        yolo_loss(grid, targets)
    with pytest.raises(ContractError):
        yolo_loss_grad(grid, targets)


def test_negative_weights_rejected():
    with pytest.raises(ContractError):
        LossWeights(lambda_coord=-1.0)
    with pytest.raises(ContractError):
        LossWeights(lambda_noobj=-0.5)


@pytest.mark.parametrize("field", ["lambda_coord", "lambda_noobj"])
def test_nan_weights_rejected(field):
    with pytest.raises(ContractError, match="finite"):
        LossWeights(**{field: math.nan})


@pytest.mark.parametrize("field", ["lambda_coord", "lambda_noobj"])
def test_infinite_weights_rejected(field):
    with pytest.raises(ContractError, match="finite"):
        LossWeights(**{field: math.inf})


@pytest.mark.parametrize("wh", [(math.nan, 1.0), (1.0, math.nan)])
def test_nan_wh_rejected(wh):
    with pytest.raises(ContractError):
        CellBoxTarget(0, 0, *wh, True, 0.5, 0)
    grid = [[CellBoxPrediction(0, 0, *wh, 0, (1.0,))]]
    targets = [[CellBoxTarget(0, 0, 1, 1, True, 0.5, 0)]]
    with pytest.raises(ContractError):
        yolo_loss(grid, targets)
    with pytest.raises(ContractError):
        yolo_loss_grad(grid, targets)


PRED_FIELDS = {"x": 0.5, "y": 0.5, "w": 1.0, "h": 1.0, "conf": 0.5, "class_probs": (0.2, 0.8)}
TARGET_FIELDS = {"x": 0.5, "y": 0.5, "w": 1.0, "h": 1.0, "target_conf": 0.5}


@pytest.mark.parametrize("fn", [yolo_loss, yolo_loss_grad])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("responsible", [True, False])
@pytest.mark.parametrize(
    "side, field", [("pred", f) for f in PRED_FIELDS] + [("target", f) for f in TARGET_FIELDS]
)
def test_non_finite_fields_rejected(fn, bad, responsible, side, field):
    # before the check, a responsible x = nan gave total = nan, a target or
    # prediction w = inf gave err_wh = inf, and a non-responsible conf = nan
    # gave err_conf = nan
    pred, target = dict(PRED_FIELDS), dict(TARGET_FIELDS)
    if side == "pred":
        pred[field] = (bad, 0.8) if field == "class_probs" else bad
    else:
        target[field] = bad
    if responsible and side == "target" and field in ("w", "h") and not bad > 0:
        with pytest.raises(ContractError, match="positive w, h"):
            CellBoxTarget(**target, responsible=True, target_class=1)
        return
    grid = [[CellBoxPrediction(**pred)]]
    targets = [[CellBoxTarget(**target, responsible=responsible, target_class=1)]]
    with pytest.raises(ContractError, match="non-finite"):
        fn(grid, targets)


def test_responsible_target_validation():
    with pytest.raises(ContractError):
        CellBoxTarget(0, 0, 1, 1, True, 0.5, None)
    with pytest.raises(ContractError):
        CellBoxTarget(0, 0, 0, 1, True, 0.5, 0)


def test_finite_difference_gradient():
    rng = random.Random(27)
    step = 1e-5
    for _ in range(30):
        grid, targets = random_config(rng)
        weights = LossWeights(5.0, 0.5)
        analytic = yolo_loss_grad(grid, targets, weights)
        for ci in range(len(grid)):
            for j in range(len(grid[ci])):
                g = analytic[ci][j]
                for fld in ("x", "y", "w", "h", "conf"):
                    fd = _central_diff(grid, targets, weights, ci, j, fld, step)
                    an = getattr(g, fld)
                    assert abs(fd - an) <= 1e-9 + 1e-6 * abs(an), (fld, fd, an)
                for c in range(len(g.class_probs)):
                    fd = _central_diff(grid, targets, weights, ci, j, ("class_probs", c), step)
                    an = g.class_probs[c]
                    assert abs(fd - an) <= 1e-9 + 1e-6 * abs(an)


def _perturb(grid, ci, j, fld, delta):
    new_grid = [list(cell) for cell in grid]
    p = new_grid[ci][j]
    if isinstance(fld, tuple):
        _, c = fld
        probs = list(p.class_probs)
        probs[c] += delta
        p = dataclasses.replace(p, class_probs=tuple(probs))
    else:
        p = dataclasses.replace(p, **{fld: getattr(p, fld) + delta})
    new_grid[ci][j] = p
    return new_grid


def _central_diff(grid, targets, weights, ci, j, fld, step):
    hi = yolo_loss(_perturb(grid, ci, j, fld, step), targets, weights).total
    lo = yolo_loss(_perturb(grid, ci, j, fld, -step), targets, weights).total
    return (hi - lo) / (2 * step)


def random_config(rng, cells=4, per_cell=2, n_classes=3):
    """Random grid with w, h kept away from the square-root boundary."""
    grid = []
    targets = []
    for ci in range(cells):
        preds = []
        tgts = []
        for j in range(per_cell):
            preds.append(
                CellBoxPrediction(
                    rng.uniform(-1, 1),
                    rng.uniform(-1, 1),
                    rng.uniform(0.1, 2.0),
                    rng.uniform(0.1, 2.0),
                    rng.uniform(0, 1),
                    tuple(rng.uniform(0, 1) for _ in range(n_classes)),
                )
            )
            if rng.random() < 0.5:
                tgts.append(
                    CellBoxTarget(
                        rng.uniform(-1, 1),
                        rng.uniform(-1, 1),
                        rng.uniform(0.1, 2.0),
                        rng.uniform(0.1, 2.0),
                        True,
                        rng.uniform(0, 1),
                        rng.randrange(n_classes),
                    )
                )
            else:
                tgts.append(CellBoxTarget())
        grid.append(preds)
        targets.append(tgts)
    return grid, targets
