"""Boundary guard: every numeric flag of every subcommand, at extreme values.

Each case runs one command with one flag set to one of VALUES, passed as
``--flag=value`` so argparse does not read ``-inf`` as an option
(``--image-size`` gets ``VxV``). A case passes when the exit code is 0, 2, 3
or 4 (argparse's ``SystemExit(2)`` counts as 2), no exception escapes
``cli.main``, and a non-zero exit leaves the files and directories under
the working directory as they were.

Each integer flag also gets LARGE_INT, which argparse accepts, so the
command's own bound (or its lack) decides the exit. The count-like synth
flags run in a child process whose address space is capped, so a lost
bound fails the test instead of exhausting memory.
"""

import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detfuse
from detfuse import Box, Detection, GroundTruthRecord
from detfuse.cli import _int_list, build_parser, main
from detfuse.io import save_annotations, save_detections, write_manifest, write_ppm

VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"]
LARGE_INT = "1000000000"
ALLOWED_EXITS = {0, 2, 3, 4}
COUNT_LIKE = {("synth", "--fp-rate"), ("synth", "--models")}
CHILD_ADDRESS_SPACE = 1 << 30  # bytes; numpy imports in well under this
SRC = str(Path(detfuse.__file__).resolve().parent.parent)
CHILD_MAIN = "import sys; from detfuse.cli import main; sys.exit(main(sys.argv[1:]))"


def _numeric_actions():
    """(command, action) for every option of every subcommand that converts its value."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action)
        for command, p in sub.choices.items()
        for action in p._actions
        if action.option_strings and action.type is not None
    ]


def _numeric_flags():
    return [(command, action.option_strings[0]) for command, action in _numeric_actions()]


INT_FLAGS = {
    (command, action.option_strings[0])
    for command, action in _numeric_actions()
    if action.type in (int, _int_list)
}
CASES = [(c, f, v) for c, f in _numeric_flags() for v in VALUES] + [
    (c, f, LARGE_INT) for c, f in _numeric_flags() if (c, f) in INT_FLAGS
]


def _inputs(tmp_path):
    """A two-image 8x6 dataset and one detection file; returns the manifest and detections."""
    entries = []
    for i in range(2):
        image_id = f"img{i}"
        write_ppm(tmp_path / f"{image_id}.ppm", np.full((6, 8, 3), 40 * i, np.uint8))
        box = GroundTruthRecord(image_id, i, Box(1, 1, 6, 5))
        save_annotations(tmp_path / f"{image_id}.txt", [box])
        entries.append((f"{image_id}.ppm", f"{image_id}.txt"))
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, entries)
    dets = tmp_path / "dets.jsonl"
    save_detections(dets, [
        Detection(Box(1, 1, 6, 5), 0, 0.9, 0, "img0"),
        Detection(Box(1.5, 1, 6, 5), 0, 0.6, 1, "img0"),
        Detection(Box(0, 0, 3, 3), 1, 0.4, 0, "img1"),
    ])
    return str(manifest), str(dets)


def _argv(command, flag, value, tmp_path):
    manifest, dets = _inputs(tmp_path)
    if flag == "--image-size":
        value = f"{value}x{value}"
    out = str(tmp_path / "out")
    positional = {
        "fuse": [dets, dets],
        "eval": [dets, manifest],
        "augment": [manifest],
        "synth": [manifest],
    }[command]
    return [command, *positional, f"{flag}={value}", "--out", out]


def _paths(root):
    return {
        os.path.join(d, name) for d, dirs, files in os.walk(root) for name in dirs + files
    }


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _run_child(argv, cwd):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_MAIN, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space,
    )
    return proc.returncode, proc.stderr


def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejected the value
        code = e.code
    return code, capsys.readouterr().err


def test_every_numeric_flag_is_driven():
    # the cases come from the parser; the count notices a flag that drops out
    # of them (its type= removed)
    assert len(_numeric_flags()) == 16
    assert COUNT_LIKE <= set(_numeric_flags())
    assert INT_FLAGS == {("eval", "--n-blocks"), ("augment", "--blur-radii"),
                         ("synth", "--models"), ("synth", "--seed")}


@pytest.mark.parametrize("command, flag, value", CASES, ids=[f"{c}{f}={v}" for c, f, v in CASES])
def test_extreme_flag_value(tmp_path, capsys, command, flag, value):
    argv = _argv(command, flag, value, tmp_path)
    before = _paths(tmp_path)
    if (command, flag) in COUNT_LIKE:
        code, err = _run_child(argv, tmp_path)
    else:
        code, err = _run_in_process(argv, capsys)
    assert code in ALLOWED_EXITS, err
    assert "Traceback" not in err
    if code != 0:
        assert _paths(tmp_path) == before, err
