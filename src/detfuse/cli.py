"""Command-line pipeline: fuse, eval, augment, synth.

Exit codes: 0 success, 2 file parse error, 3 I/O error, 4 input-contract
violation.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from .augment import AugmentSpec, expand_dataset
from .errors import ContractError, ParseError
from .evaluation import EvaluationReport, evaluate_dataset
from .fusion import PROB_MODES, PROB_SCALED_MAX, Detection, merge_boxes
from .io import (
    atomic_output,
    load_detections,
    load_ground_truth,
    outputs_or_none,
    save_detections,
)
from .synth import NoiseModel, generate_ensemble

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_CONTRACT = 4

EPILOG = "exit codes: 0 success, 2 parse error, 3 I/O error, 4 contract violation."


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def cmd_fuse(args: argparse.Namespace) -> int:
    by_image: dict[str, list[Detection]] = defaultdict(list)
    for path in args.inputs:
        for d in load_detections(path):
            by_image[d.image_id].append(d)
    fused: list[Detection] = []
    for image_id in sorted(by_image):
        # popped, so each image's inputs are freed once its clusters are built
        detections = by_image.pop(image_id)
        summaries = merge_boxes(detections, args.iou_fusion, args.prob_mode)
        print(f"{image_id}: {len(detections)} detections -> {len(summaries)} clusters")
        for s in summaries:
            fused.append(Detection(s.box, s.class_id, s.prob, model_id=-1, image_id=image_id))
    save_detections(args.out, fused)
    return EXIT_OK


def _format_report(report: EvaluationReport) -> str:
    lines = ["detection evaluation report", ""]
    lines.append(f"iou threshold: {report.iou_threshold!r}")
    lines.append(f"recall blocks: {report.n_blocks}")
    lines.append("")
    lines.append(f"{'class':>8} {'AP':>12} {'TP':>6} {'FP':>6} {'FN':>6}")
    for r in report.per_class:
        lines.append(f"{r.class_id:>8} {r.ap:>12.6f} {r.tp:>6} {r.fp:>6} {r.fn:>6}")
    lines.append("")
    lines.append(f"mAP: {report.mean_ap!r}")
    lines.append(
        "detection-rate (class-agnostic localization): "
        f"{report.detection_rate!r}"
    )
    if report.classes_without_gt:
        lines.append(f"classes predicted but absent from ground truth: {report.classes_without_gt}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    lines.append("")
    return "\n".join(lines)


def _format_table(report: EvaluationReport) -> str:
    lines = ["class_id\tap\ttp\tfp\tfn"]
    for r in report.per_class:
        lines.append(f"{r.class_id}\t{r.ap!r}\t{r.tp}\t{r.fp}\t{r.fn}")
    lines.append(f"mAP\t{report.mean_ap!r}")
    lines.append(f"detection_rate\t{report.detection_rate!r}")
    lines.append("")
    return "\n".join(lines)


def cmd_eval(args: argparse.Namespace) -> int:
    preds = load_detections(args.preds)
    gts = load_ground_truth(args.gts)
    report = evaluate_dataset(preds, gts, args.iou_eval, args.n_blocks)
    outputs = [(args.out + ".txt", _format_report(report)),
               (args.out + ".tsv", _format_table(report))]
    with outputs_or_none() as done:
        for path, text in outputs:
            with atomic_output(path) as f:
                f.write(text)
            done.append(path)
    print(f"mAP: {report.mean_ap!r}")
    print(f"detection-rate: {report.detection_rate!r}")
    return EXIT_OK


def cmd_augment(args: argparse.Namespace) -> int:
    spec = AugmentSpec(
        rotations=args.rotations,
        saturation_factors=args.saturations,
        exposure_factors=args.exposures,
        mirror=args.mirror,
        blur_radii=args.blur_radii,
        contrast_factors=args.contrasts,
    )
    result = expand_dataset(args.manifest, spec, args.out)
    print(f"wrote {len(result.entries)} derived images to {args.out}")
    print(f"boxes: {result.boxes_emitted} emitted, {result.boxes_dropped} dropped by clipping")
    for e in result.errors:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    gts = load_ground_truth(args.gts)
    noise = NoiseModel(
        jitter_sigma=args.jitter,
        drop_rate=args.drop_rate,
        fp_rate=args.fp_rate,
        conf_noise=args.conf_noise,
        misclass_rate=args.misclass_rate,
        seed=args.seed,
    )
    w, h = args.image_size
    sets = generate_ensemble(gts, noise, args.models, image_size=(w, h))
    with outputs_or_none() as done:
        for i, dets in enumerate(sets):
            path = f"{args.out}.model{i}.jsonl"
            save_detections(path, dets)
            done.append(path)
            print(f"model {i}: {len(dets)} detections -> {path}")
    return EXIT_OK


def _size(text: str) -> tuple[float, float]:
    w, h = text.lower().split("x")
    return float(w), float(h)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="detfuse", epilog=EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="merge multi-model detections per image", epilog=EPILOG)
    p.add_argument("inputs", nargs="+", help="detection record files (JSON lines)")
    p.add_argument("--iou-fusion", type=float, default=0.5)
    p.add_argument("--prob-mode", choices=PROB_MODES, default=PROB_SCALED_MAX)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="evaluate detections against ground truth", epilog=EPILOG)
    p.add_argument("preds", help="detection record file")
    p.add_argument("gts", help="annotation manifest (image_path annotation_path per line)")
    p.add_argument("--iou-eval", type=float, default=0.5)
    p.add_argument("--n-blocks", type=int, default=10)
    p.add_argument("--out", required=True, help="report base path; writes .txt and .tsv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("augment", help="expand a dataset with the transform grid", epilog=EPILOG)
    p.add_argument("manifest")
    p.add_argument("--rotations", type=_float_list, default=(0.0,))
    p.add_argument("--saturations", type=_float_list, default=(1.0,))
    p.add_argument("--exposures", type=_float_list, default=(1.0,))
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--blur-radii", type=_int_list, default=())
    p.add_argument("--contrasts", type=_float_list, default=())
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("synth", help="generate synthetic model detections", epilog=EPILOG)
    p.add_argument("gts", help="annotation manifest")
    p.add_argument("--models", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--fp-rate", type=float, default=0.0)
    p.add_argument("--conf-noise", type=float, default=0.0)
    p.add_argument("--misclass-rate", type=float, default=0.0)
    p.add_argument("--image-size", type=_size, default=(640.0, 480.0), metavar="WxH")
    p.add_argument("--out", required=True, help="output prefix; writes <out>.model<i>.jsonl")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
