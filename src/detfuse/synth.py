"""Synthetic multi-model detection generation from ground truth.

Stands in for an ensemble of trained detectors: each synthetic model
perturbs the ground truth with corner jitter, dropped instances, spurious
boxes and confidence noise. Confidence is the localization quality (the
IoU with the ground-truth box) plus noise, so probability-weighted fusion
has signal to work with. Everything is deterministic given the seed; per-image
sub-streams are derived by XOR-ing the seed with a stable hash of the
image id, so per-image generation order never affects results.

The order of the draws from an image's stream is part of the output bytes.
Each ground-truth instance, in input order, takes one uniform (the drop);
a kept instance then takes five standard normals in one call (the jitter of
x1, x2, y1 and y2, then the confidence noise) and one uniform (the
misclassification), plus one integer when its label flips. After the
instances come one Poisson count of spurious boxes and, per spurious box,
two uniform x, two uniform y, one uniform confidence and one integer class.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from .evaluation import GroundTruthRecord
from .fusion import Detection
from .geometry import MIN_NORMAL, Box, iou

# spurious boxes stay low-confidence so ranking can suppress them
FP_CONF_RANGE = (0.05, 0.5)

# Largest mean number of spurious boxes per image and model. The Poisson draw
# allocates that many boxes, so an unbounded rate could exhaust memory.
MAX_FP_RATE = 1000.0

# Most detection sets one generate_ensemble call makes; synth writes one file
# per model, so an unbounded count could exhaust memory and the disk.
MAX_MODELS = 1000


def _finite_float(v: float) -> bool:
    """Whether ``float(v)`` is finite; an int too large for a float is not."""
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


@dataclass(frozen=True)
class NoiseModel:
    """Error model of one synthetic detector.

    The reported confidence of a detected instance is
    clamp(IoU(jittered, gt) + N(0, 1) * conf_noise, 0, 1), so a large
    conf_noise clamps many confidences to exactly 0 (``merge_boxes`` drops
    such a detection unless it overlaps a cluster). Every parameter must be
    finite, fp_rate at most MAX_FP_RATE and the seed non-negative.
    """

    jitter_sigma: float = 0.0
    drop_rate: float = 0.0
    fp_rate: float = 0.0
    conf_noise: float = 0.0
    misclass_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ContractError("drop_rate must be in [0, 1]")
        if not 0.0 <= self.misclass_rate <= 1.0:
            raise ContractError("misclass_rate must be in [0, 1]")
        if not (self.jitter_sigma >= 0.0 and _finite_float(self.jitter_sigma)):
            raise ContractError(
                f"jitter_sigma must be finite and non-negative, got {self.jitter_sigma}"
            )
        if not 0.0 <= self.fp_rate <= MAX_FP_RATE:
            raise ContractError(f"fp_rate must be in [0, {MAX_FP_RATE}], got {self.fp_rate}")
        if not (self.conf_noise >= 0.0 and _finite_float(self.conf_noise)):
            raise ContractError(
                f"confidence noise sigma must be finite and non-negative, got {self.conf_noise}"
            )
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")


def _image_stream(seed: int, image_id: str) -> np.random.Generator:
    digest = hashlib.sha256(image_id.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(seed ^ sub)


def generate_model_detections(
    gts: list[GroundTruthRecord],
    noise: NoiseModel,
    model_id: int = 0,
    image_size: tuple[float, float] = (640.0, 480.0),
) -> list[Detection]:
    """Generate one synthetic model's detections for a ground-truth set.

    Per instance: drop with drop_rate, jitter every box corner with
    N(0, jitter_sigma), report confidence as in ``NoiseModel``, and
    flip the class label to a random wrong one with misclass_rate (no-op
    when only one class exists). Per image, Poisson(fp_rate) spurious
    uniform boxes are added with confidence uniform in [0.05, 0.5]. The
    output is fully deterministic given the noise seed. The image size must
    be finite and positive.
    """
    width, height = image_size
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise ContractError(f"image_size must be finite and positive, got {width}x{height}")
    classes = sorted({g.class_id for g in gts})
    by_image: dict[str, list[GroundTruthRecord]] = defaultdict(list)
    for g in gts:
        by_image[g.image_id].append(g)

    sigma = float(noise.jitter_sigma)
    conf_noise = float(noise.conf_noise)
    out: list[Detection] = []
    for image_id in sorted(by_image):
        rng = _image_stream(noise.seed, image_id)
        for g in by_image[image_id]:
            if rng.random() < noise.drop_rate:
                continue
            # Python floats, not np.float64 scalars: the same IEEE operations,
            # several times cheaper. The clamps, min/max and IoU below are
            # written out with builtin min/max's tie rule: max(a, b) is a
            # unless b > a, and min(a, b) is a unless b < a, which decides the
            # sign of a zero.
            n1, n2, n3, n4, n5 = rng.standard_normal(5).tolist()
            b = g.box
            gx1, gy1, gx2, gy2 = b.x1, b.y1, b.x2, b.y2
            xa = gx1 + n1 * sigma
            xa = 0.0 if 0.0 > xa else xa
            xa = width if width < xa else xa
            xb = gx2 + n2 * sigma
            xb = 0.0 if 0.0 > xb else xb
            xb = width if width < xb else xb
            ya = gy1 + n3 * sigma
            ya = 0.0 if 0.0 > ya else ya
            ya = height if height < ya else ya
            yb = gy2 + n4 * sigma
            yb = 0.0 if 0.0 > yb else yb
            yb = height if height < yb else yb
            x1 = xb if xb < xa else xa
            x2 = xb if xb > xa else xa
            y1 = yb if yb < ya else ya
            y2 = yb if yb > ya else ya
            box = Box(x1, y1, x2, y2)
            # geometry.iou(box, b), which itself computes an underflowing union
            iw = (gx2 if gx2 < x2 else x2) - (gx1 if gx1 > x1 else x1)
            ih = (gy2 if gy2 < y2 else y2) - (gy1 if gy1 > y1 else y1)
            inter = iw * ih if (iw > 0 and ih > 0) else 0.0
            union = (x2 - x1) * (y2 - y1) + (gx2 - gx1) * (gy2 - gy1) - inter
            quality = iou(box, b) if union < MIN_NORMAL else inter / union
            conf = quality + n5 * conf_noise
            conf = 0.0 if 0.0 > conf else conf
            conf = 1.0 if 1.0 < conf else conf
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


def generate_ensemble(
    gts: list[GroundTruthRecord],
    base_noise: NoiseModel,
    k_models: int,
    image_size: tuple[float, float] = (640.0, 480.0),
) -> list[list[Detection]]:
    """k independent detection sets, 1 <= k <= MAX_MODELS; model i uses seed
    base_seed + i."""
    if not 1 <= k_models <= MAX_MODELS:
        raise ContractError(f"k_models must be in [1, {MAX_MODELS}], got {k_models}")
    return [
        generate_model_detections(
            gts, replace(base_noise, seed=base_noise.seed + i), model_id=i,
            image_size=image_size,
        )
        for i in range(k_models)
    ]


def random_ground_truth(
    n_images: int,
    n_classes: int,
    boxes_per_image: int,
    seed: int = 0,
    image_size: tuple[float, float] = (640.0, 480.0),
    size_range: tuple[float, float] = (60.0, 150.0),
) -> list[GroundTruthRecord]:
    """Random ground-truth fixture: fixed-count boxes per image, random classes."""
    width, height = image_size
    rng = np.random.default_rng(seed)
    out: list[GroundTruthRecord] = []
    for i in range(n_images):
        image_id = f"img{i:04d}"
        for _ in range(boxes_per_image):
            bw = rng.uniform(*size_range)
            bh = rng.uniform(*size_range)
            x1 = rng.uniform(0.0, width - bw)
            y1 = rng.uniform(0.0, height - bh)
            class_id = int(rng.integers(n_classes))
            out.append(
                GroundTruthRecord(image_id, class_id, Box(x1, y1, x1 + bw, y1 + bh))
            )
    return out
