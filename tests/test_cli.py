import errno
import os

import numpy as np
import pytest

from detfuse import Box, Detection, GroundTruthRecord
from detfuse.cli import EXIT_CONTRACT, EXIT_IO, EXIT_OK, EXIT_PARSE, main
from detfuse.io import (
    load_detections,
    read_manifest,
    save_annotations,
    save_detections,
    write_manifest,
    write_ppm,
)


def make_gts(tmp_path, records):
    by_image = {}
    for r in records:
        by_image.setdefault(r.image_id, []).append(r)
    entries = []
    for image_id, anns in sorted(by_image.items()):
        img = tmp_path / f"{image_id}.ppm"
        ann = tmp_path / f"{image_id}.txt"
        write_ppm(img, np.zeros((4, 4, 3), np.uint8))
        save_annotations(ann, anns)
        entries.append((str(img), str(ann)))
    manifest = tmp_path / "gts_manifest.txt"
    write_manifest(manifest, entries)
    return str(manifest)


def test_fuse_merges_across_models(tmp_path, capsys):
    f1 = tmp_path / "m1.jsonl"
    f2 = tmp_path / "m2.jsonl"
    save_detections(f1, [Detection(Box(0, 0, 10, 10), 1, 0.9, 0, "a")])
    save_detections(f2, [Detection(Box(0, 0, 10, 10), 1, 0.7, 1, "a")])
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", str(f1), str(f2), "--out", str(out)]) == EXIT_OK
    fused = load_detections(out)
    assert len(fused) == 1
    assert fused[0].model_id == -1
    assert fused[0].prob == pytest.approx(0.45)
    assert "a: 2 detections -> 1 clusters" in capsys.readouterr().out


def test_fuse_singleton_probability_unchanged(tmp_path):
    f1 = tmp_path / "m1.jsonl"
    save_detections(
        f1,
        [
            Detection(Box(0, 0, 10, 10), 1, 0.9, 0, "a"),
            Detection(Box(50, 50, 60, 60), 1, 0.4, 0, "a"),
        ],
    )
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", str(f1), "--out", str(out)]) == EXIT_OK
    fused = load_detections(out)
    assert sorted(d.prob for d in fused) == [0.4, 0.9]


def test_fuse_writes_images_in_sorted_order(tmp_path):
    f1 = tmp_path / "m1.jsonl"
    save_detections(f1, [
        Detection(Box(0, 0, 10, 10), 1, 0.9, 0, "b"),
        Detection(Box(0, 0, 10, 10), 1, 0.8, 0, "a"),
    ])
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", str(f1), "--out", str(out)]) == EXIT_OK
    assert [d.image_id for d in load_detections(out)] == ["a", "b"]


def test_fuse_empty_input(tmp_path):
    f1 = tmp_path / "m1.jsonl"
    f1.write_text("")
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", str(f1), "--out", str(out)]) == EXIT_OK
    assert load_detections(out) == []


def test_fuse_parse_error_exit_code(tmp_path, capsys):
    f1 = tmp_path / "m1.jsonl"
    f1.write_text("garbage\n")
    assert main(["fuse", str(f1), "--out", str(tmp_path / "o.jsonl")]) == EXIT_PARSE
    assert ":1:" in capsys.readouterr().err


def test_fuse_missing_file_exit_code(tmp_path):
    assert main(["fuse", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == EXIT_IO


def test_eval_perfect_predictions(tmp_path, capsys):
    gts = [
        GroundTruthRecord("a", 0, Box(0, 0, 10, 10)),
        GroundTruthRecord("b", 1, Box(5, 5, 25, 25)),
    ]
    manifest = make_gts(tmp_path, gts)
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(g.box, g.class_id, 1.0, 0, g.image_id) for g in gts])
    out = tmp_path / "report"
    assert main(["eval", str(preds), manifest, "--out", str(out)]) == EXIT_OK
    table = (tmp_path / "report.tsv").read_text().splitlines()
    assert table[0] == "class_id\tap\ttp\tfp\tfn"
    assert "mAP\t1.0" in table
    assert "mAP: 1.0" in capsys.readouterr().out
    assert os.path.exists(str(out) + ".txt")


def test_eval_worked_example_n_blocks(tmp_path):
    # 2 GT of one class, ranked TP FP TP: AP = 13/15
    gts = [
        GroundTruthRecord("a", 0, Box(0, 0, 10, 10)),
        GroundTruthRecord("a", 0, Box(100, 100, 110, 110)),
    ]
    manifest = make_gts(tmp_path, gts)
    preds = tmp_path / "preds.jsonl"
    save_detections(
        preds,
        [
            Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a"),
            Detection(Box(50, 0, 60, 10), 0, 0.8, 0, "a"),
            Detection(Box(100, 100, 110, 110), 0, 0.7, 0, "a"),
        ],
    )
    out = tmp_path / "report"
    assert main(["eval", str(preds), manifest, "--n-blocks", "10", "--out", str(out)]) == EXIT_OK
    row = (tmp_path / "report.tsv").read_text().splitlines()[1].split("\t")
    assert abs(float(row[1]) - 13 / 15) < 1e-4


def test_eval_missing_annotation_fatal(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("img.ppm missing.txt\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("")
    assert main(["eval", str(preds), str(manifest), "--out", str(tmp_path / "r")]) == EXIT_IO


def test_augment_cli_grid(tmp_path):
    img = tmp_path / "pic.ppm"
    ann = tmp_path / "pic.txt"
    write_ppm(img, np.random.default_rng(0).integers(0, 256, (10, 12, 3), dtype=np.uint8))
    save_annotations(ann, [GroundTruthRecord("pic", 0, Box(1, 1, 8, 6))])
    manifest = tmp_path / "m.txt"
    write_manifest(manifest, [(str(img), str(ann))])
    out_dir = tmp_path / "out"
    code = main(
        [
            "augment",
            str(manifest),
            "--rotations",
            "0,45,90,180",
            "--saturations",
            "1.0,1.2,1.5,1.8",
            "--out",
            str(out_dir),
        ]
    )
    assert code == EXIT_OK
    assert len([f for f in os.listdir(out_dir) if f.endswith(".ppm")]) == 16


def test_synth_cli_deterministic(tmp_path):
    gts = [
        GroundTruthRecord("a", 0, Box(10, 10, 100, 100)),
        GroundTruthRecord("b", 1, Box(50, 50, 200, 180)),
    ]
    manifest = make_gts(tmp_path, gts)
    args = [
        "synth", manifest, "--models", "3", "--seed", "9",
        "--jitter", "2.0", "--fp-rate", "1.0",
    ]
    assert main(args + ["--out", str(tmp_path / "run1")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "run2")]) == EXIT_OK
    for i in range(3):
        a = (tmp_path / f"run1.model{i}.jsonl").read_bytes()
        b = (tmp_path / f"run2.model{i}.jsonl").read_bytes()
        assert a == b
        assert a  # non-empty


def test_pipeline_fuse_eval_round(tmp_path):
    gts = [
        GroundTruthRecord("a", 0, Box(10, 10, 100, 100)),
        GroundTruthRecord("b", 1, Box(50, 50, 200, 180)),
    ]
    manifest = make_gts(tmp_path, gts)
    assert main(["synth", manifest, "--models", "2", "--seed", "1",
                 "--out", str(tmp_path / "dets")]) == EXIT_OK
    assert main(["fuse", str(tmp_path / "dets.model0.jsonl"),
                 str(tmp_path / "dets.model1.jsonl"),
                 "--out", str(tmp_path / "fused.jsonl")]) == EXIT_OK
    assert main(["eval", str(tmp_path / "fused.jsonl"), manifest,
                 "--out", str(tmp_path / "report")]) == EXIT_OK
    assert (tmp_path / "report.tsv").exists()


def test_fuse_bad_iou_threshold_exit_code(tmp_path, capsys):
    f1 = tmp_path / "m1.jsonl"
    save_detections(f1, [Detection(Box(0, 0, 10, 10), 1, 0.9, 0, "a")])
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", str(f1), "--iou-fusion", "1.5", "--out", str(out)]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "iou_threshold" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_bad_n_blocks_exit_code(tmp_path, capsys):
    gts = [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))]
    manifest = make_gts(tmp_path, gts)
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a")])
    out = tmp_path / "report"
    # below 1 and above MAX_N_BLOCKS (10 000); unchecked, 10**9 blocks run for hours
    for value in ["0", "10001", "1000000000"]:
        argv = ["eval", str(preds), manifest, "--n-blocks", value, "--out", str(out)]
        assert main(argv) == EXIT_CONTRACT
        err = capsys.readouterr().err
        assert "n_blocks" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()
        assert not (tmp_path / "report.tsv").exists()


@pytest.mark.parametrize("value", ["-1", "0", "1", "nan", "1.5"])
def test_eval_bad_iou_threshold_exit_code(tmp_path, capsys, value):
    gts = [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))]
    manifest = make_gts(tmp_path, gts)
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a")])
    out = tmp_path / "report"
    assert main(["eval", str(preds), manifest, f"--iou-eval={value}", "--out", str(out)]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "iou_threshold must be in (0, 1)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.txt").exists()
    assert not (tmp_path / "report.tsv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--models", "0"], "k_models"),
        (["--drop-rate", "2"], "drop_rate"),
        (["--jitter", "nan"], "jitter_sigma"),
        (["--conf-noise=-1"], "noise sigma"),
        (["--conf-noise", "inf"], "noise sigma"),
        (["--fp-rate", "inf"], "fp_rate"),
        (["--fp-rate", "1e300"], "fp_rate"),
        (["--seed", "-1"], "seed"),
        (["--image-size", "infx10", "--fp-rate", "1"], "image_size"),
        (["--image-size", "0x0"], "image_size"),
        (["--image-size", "nanx10"], "image_size"),
        (["--models", "1001"], "k_models"),
    ],
)
def test_synth_bad_argument_exit_code(tmp_path, capsys, flags, message):
    manifest = make_gts(tmp_path, [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))])
    out = tmp_path / "dets"
    assert main(["synth", manifest, *flags, "--out", str(out)]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "dets.model0.jsonl").exists()


def _augment_manifest(tmp_path):
    img = tmp_path / "a.ppm"
    ann = tmp_path / "a.txt"
    write_ppm(img, np.zeros((6, 8, 3), np.uint8))
    save_annotations(ann, [GroundTruthRecord("a", 0, Box(1, 1, 5, 4))])
    manifest = tmp_path / "m.txt"
    write_manifest(manifest, [(str(img), str(ann))])
    return str(manifest)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rotations", "400"], "rotation"),
        (["--saturations", "0"], "positive"),
        (["--rotations", "30,30.2"], "collision: a_r030_s100_e100"),
        (["--contrasts", "nan"], "finite"),
        (["--contrasts", "inf"], "finite"),
        (["--saturations", "nan"], "finite"),
        (["--exposures", "inf"], "finite"),
        (["--contrasts", "1e300"], "longer than 255 bytes"),
        (["--rotations="], "non-empty"),
        (["--saturations="], "non-empty"),
        (["--exposures="], "non-empty"),
    ],
)
def test_augment_bad_argument_exit_code(tmp_path, capsys, flags, message):
    manifest = _augment_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["augment", manifest, *flags, "--out", str(out_dir)]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("dims", [b"-1 -1", b"0 5"])
def test_augment_nonpositive_ppm_is_recorded(tmp_path, capsys, dims):
    manifest = _augment_manifest(tmp_path)
    (tmp_path / "a.ppm").write_bytes(b"P6\n" + dims + b"\n255\n" + bytes(3))
    out_dir = tmp_path / "out"
    assert main(["augment", manifest, "--rotations", "0,30", "--out", str(out_dir)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "a.ppm" in err and "dimensions" in err
    assert "Traceback" not in err
    assert read_manifest(out_dir / "manifest.txt") == []
    assert sorted(os.listdir(out_dir)) == ["manifest.txt", "provenance.txt"]


def _duplicate_stem_manifest(tmp_path):
    entries = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_ppm(tmp_path / sub / "img.ppm", np.zeros((4, 4, 3), np.uint8))
        save_annotations(tmp_path / sub / "img.txt", [GroundTruthRecord("img", 0, Box(0, 0, 2, 2))])
        entries.append((f"{sub}/img.ppm", f"{sub}/img.txt"))
    manifest = tmp_path / "m.txt"
    write_manifest(manifest, entries)
    return str(manifest)


@pytest.mark.parametrize("command", ["eval", "synth"])
def test_duplicate_stem_exit_code(tmp_path, capsys, command):
    manifest = _duplicate_stem_manifest(tmp_path)
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 2, 2), 0, 0.9, 0, "img")])
    before = set(os.listdir(tmp_path))
    argv = ["eval", str(preds), manifest] if command == "eval" else ["synth", manifest]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "'img'" in err and os.path.join("a", "img.ppm") in err and os.path.join("b", "img.ppm") in err
    assert "Traceback" not in err
    assert set(os.listdir(tmp_path)) == before


@pytest.mark.parametrize(
    "content, where",
    [(b"\xff\xfe\n", "UTF-8"), (b"[" * 100_000 + b"\n", ":1:"), (b'{"image_id": 5}\n', ":1:")],
    ids=["invalid-utf8", "deep-nesting", "bad-record"],
)
def test_fuse_hostile_input_exit_code(tmp_path, capsys, content, where):
    f1 = tmp_path / "m1.jsonl"
    f1.write_bytes(content)
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", str(f1), "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(f1) in err and where in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["m1.jsonl"]


def test_eval_undecodable_annotation_exit_code(tmp_path, capsys):
    manifest = make_gts(tmp_path, [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))])
    (tmp_path / "a.txt").write_bytes(b"0 0 0 10 10\n\xff\n")
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a")])
    assert main(["eval", str(preds), manifest, "--out", str(tmp_path / "report")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "a.txt" in err and "UTF-8" in err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("line", ["1_0 1_0.5 2.0 3e1_0 40", "\u0663 0 0 10 10",
                                  "0 0 0 10 10\u00a0", "\x850 0 0 10 10",
                                  "0 0 0 10 10\u2003", "\u30000 0 0 10 10"])
@pytest.mark.parametrize("command", ["eval", "synth"])
def test_python_only_annotation_numbers_exit_code(tmp_path, capsys, command, line):
    manifest = make_gts(tmp_path, [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))])
    (tmp_path / "a.txt").write_text(f"{line}\n", encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a")])
    before = set(os.listdir(tmp_path))
    argv = ["eval", str(preds), manifest] if command == "eval" else ["synth", manifest]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "a.txt:1:" in err and "only ASCII" in err
    assert "Traceback" not in err
    assert set(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("line", ["0\x1c1 2\x1f3 4", "0 \x1c1 2 3 4", "0\x0b1 2 3 4"])
@pytest.mark.parametrize("command", ["eval", "synth"])
def test_annotation_control_characters_exit_code(tmp_path, capsys, command, line):
    manifest = make_gts(tmp_path, [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))])
    (tmp_path / "a.txt").write_text(f"{line}\n", encoding="ascii")
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a")])
    before = set(os.listdir(tmp_path))
    argv = ["eval", str(preds), manifest] if command == "eval" else ["synth", manifest]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "a.txt:1:" in err and "control character" in err
    assert "Traceback" not in err
    assert set(os.listdir(tmp_path)) == before


def test_eval_failing_write_leaves_no_report(tmp_path, monkeypatch):
    gts = [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))]
    manifest = make_gts(tmp_path, gts)
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a")])
    before = set(os.listdir(tmp_path))

    def disk_full(report):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("detfuse.cli._format_table", disk_full)
    assert main(["eval", str(preds), manifest, "--out", str(tmp_path / "report")]) == EXIT_IO
    assert set(os.listdir(tmp_path)) == before


def test_fuse_drops_isolated_zero_score(tmp_path, capsys):
    f1 = tmp_path / "m1.jsonl"
    save_detections(f1, [
        Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a"),
        Detection(Box(50, 50, 60, 60), 0, 0.0, 0, "a"),
    ])
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", str(f1), "--out", str(out)]) == EXIT_OK
    assert load_detections(out) == [Detection(Box(0, 0, 10, 10), 0, 0.9, -1, "a")]
    assert "a: 2 detections -> 1 clusters" in capsys.readouterr().out


def test_synth_clamped_zero_scores_fuse(tmp_path):
    manifest = make_gts(tmp_path, [
        GroundTruthRecord("a", 0, Box(0, 0, 10, 10)),
        GroundTruthRecord("a", 1, Box(20, 20, 40, 40)),
    ])
    prefix = str(tmp_path / "dets")
    argv = ["synth", manifest, "--models", "1", "--conf-noise", "5", "--seed", "1"]
    assert main([*argv, "--out", prefix]) == EXIT_OK
    dets = load_detections(prefix + ".model0.jsonl")
    assert any(d.prob == 0.0 for d in dets)
    out = tmp_path / "fused.jsonl"
    assert main(["fuse", prefix + ".model0.jsonl", "--out", str(out)]) == EXIT_OK
    assert [d.box for d in load_detections(out)] == [d.box for d in dets if d.prob > 0.0]


def test_augment_relative_out_is_readable(tmp_path, monkeypatch):
    manifest = _augment_manifest(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["augment", manifest, "--rotations", "0,90", "--out", "aug"]) == EXIT_OK
    entries = read_manifest("aug/manifest.txt")
    assert len(entries) == 2
    assert all(os.path.isabs(p) and os.path.isfile(p) for pair in entries for p in pair)
    assert main(["synth", "aug/manifest.txt", "--out", "dets"]) == EXIT_OK
    assert len(load_detections("dets.model0.jsonl")) == 2


@pytest.mark.parametrize("earlier", [False, True], ids=["first-run", "second-run"])
def test_augment_failing_provenance_replace_leaves_the_group(tmp_path, monkeypatch, capsys,
                                                            earlier):
    manifest = _augment_manifest(tmp_path)
    out_dir = tmp_path / "out"
    if earlier:
        assert main(["augment", manifest, "--out", str(out_dir)]) == EXIT_OK
    group = [out_dir / "manifest.txt", out_dir / "provenance.txt"]
    before = [path.read_bytes() if path.exists() else None for path in group]

    def replace(src, dst, _replace=os.replace):
        if os.path.basename(dst) == "provenance.txt":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        _replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    argv = ["augment", manifest, "--rotations", "0,90", "--out", str(out_dir)]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    assert not [name for name in os.listdir(out_dir) if name.endswith(".tmp")]
    after = [path.read_bytes() if path.exists() else None for path in group]
    # the manifest of this run is removed rather than left beside the
    # provenance of the earlier one
    assert after[1] == before[1]
    assert after[0] in (None, before[0])


def test_augment_whitespace_out_leaves_no_file(tmp_path, monkeypatch, capsys):
    manifest = _augment_manifest(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    assert main(["augment", manifest, "--out", "my out"]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "whitespace" in err and "Traceback" not in err
    assert set(os.listdir(tmp_path)) == before


def test_augment_whitespace_source_leaves_no_file(tmp_path, monkeypatch, capsys):
    # relative manifest entries resolve against the manifest's directory, so
    # the source paths, and their provenance lines, contain its space
    src = tmp_path / "sp ace"
    src.mkdir()
    write_ppm(src / "a.ppm", np.zeros((6, 8, 3), np.uint8))
    save_annotations(src / "a.txt", [GroundTruthRecord("a", 0, Box(1, 1, 5, 4))])
    (src / "m.txt").write_text("a.ppm a.txt\n")
    monkeypatch.chdir(src)
    before = set(os.listdir(tmp_path))
    assert main(["augment", "m.txt", "--out", str(tmp_path / "out")]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "source image path contains whitespace" in err and "Traceback" not in err
    assert set(os.listdir(tmp_path)) == before


def _negative_class_manifest(tmp_path):
    manifest = make_gts(tmp_path, [GroundTruthRecord("a", 0, Box(0, 0, 10, 10))])
    (tmp_path / "a.txt").write_text("-1 0 0 10 10\n")
    return manifest


@pytest.mark.parametrize("command", ["eval", "synth"])
def test_negative_annotation_class_exit_code(tmp_path, capsys, command):
    manifest = _negative_class_manifest(tmp_path)
    preds = tmp_path / "preds.jsonl"
    save_detections(preds, [Detection(Box(0, 0, 10, 10), 0, 0.9, 0, "a")])
    before = set(os.listdir(tmp_path))
    argv = ["eval", str(preds), manifest] if command == "eval" else ["synth", manifest]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "a.txt:1:" in err and "class_id must be non-negative" in err
    assert "Traceback" not in err
    assert set(os.listdir(tmp_path)) == before


def test_augment_records_negative_annotation_class(tmp_path, capsys):
    manifest = _negative_class_manifest(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["augment", manifest, "--out", str(out_dir)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "a.ppm" in err and "class_id must be non-negative" in err
    assert read_manifest(out_dir / "manifest.txt") == []
