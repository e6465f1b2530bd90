"""Detection-ensemble box fusion, mAP evaluation, loss oracle and augmentation."""

from .errors import ContractError, DetfuseError, ParseError
from .geometry import Box, area, iou
from .fusion import (
    PROB_MAX,
    PROB_SCALED_MAX,
    Cluster,
    ClusterSummary,
    Detection,
    merge_boxes,
    merge_boxes_with_members,
    summarize,
)
from .evaluation import (
    APResult,
    EvaluationReport,
    GroundTruthRecord,
    MatchOutcome,
    PRCurve,
    average_precision,
    evaluate_dataset,
    match_detections,
    mean_ap,
    precision_recall,
)
from .yolo_loss import (
    CellBoxPrediction,
    CellBoxTarget,
    LossBreakdown,
    LossWeights,
    PredictionGradient,
    yolo_loss,
    yolo_loss_grad,
)
from .augment import (
    AnnotatedImage,
    AugmentSpec,
    adjust_color,
    blur,
    contrast,
    expand_dataset,
    mirror_with_boxes,
    rotate_with_boxes,
)
from .synth import (
    NoiseModel,
    generate_ensemble,
    generate_model_detections,
    random_ground_truth,
)

__version__ = "0.1.0"

__all__ = [
    "APResult",
    "AnnotatedImage",
    "AugmentSpec",
    "Box",
    "CellBoxPrediction",
    "CellBoxTarget",
    "Cluster",
    "ClusterSummary",
    "ContractError",
    "Detection",
    "DetfuseError",
    "EvaluationReport",
    "GroundTruthRecord",
    "LossBreakdown",
    "LossWeights",
    "MatchOutcome",
    "NoiseModel",
    "PRCurve",
    "PROB_MAX",
    "PROB_SCALED_MAX",
    "ParseError",
    "PredictionGradient",
    "adjust_color",
    "area",
    "average_precision",
    "blur",
    "contrast",
    "evaluate_dataset",
    "expand_dataset",
    "generate_ensemble",
    "generate_model_detections",
    "iou",
    "match_detections",
    "mean_ap",
    "merge_boxes",
    "merge_boxes_with_members",
    "mirror_with_boxes",
    "precision_recall",
    "random_ground_truth",
    "rotate_with_boxes",
    "summarize",
    "yolo_loss",
    "yolo_loss_grad",
]
