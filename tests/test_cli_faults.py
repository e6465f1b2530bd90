"""Fault injection: each write of ``synth``, ``fuse`` and ``eval`` fails in turn.

For N = 1, 2, ... the N-th write-mode ``open``, file ``write`` or
``os.replace`` in ``detfuse.io`` raises ``OSError(ENOSPC)``, until the
command succeeds. Every failing run must exit 3 without a traceback, leave
each output absent or byte-equal to what was there before, and leave no
temporary file.
"""

import builtins
import errno
import os

import pytest

import detfuse.io
from detfuse import Box, Detection, GroundTruthRecord
from detfuse.cli import EXIT_IO, EXIT_OK, main
from detfuse.io import save_annotations, save_detections, write_manifest

# the sweep stops here if the command never succeeds
MAX_FAULTS = 200
EARLIER = b"an earlier run's output\n"


class _Disk:
    """Counts write-mode opens, writes and replaces; the ``fail_at``-th raises."""

    def __init__(self, fail_at: int) -> None:
        self.fail_at = fail_at
        self.calls = 0

    def tick(self) -> None:
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open(self, file, mode="r", *args, **kwargs):
        if not any(c in mode for c in "wxa+"):
            return builtins.open(file, mode, *args, **kwargs)
        self.tick()
        return _File(self, builtins.open(file, mode, *args, **kwargs))

    def replace(self, src, dst, _replace=os.replace):
        self.tick()
        _replace(src, dst)


class _File:
    """A file whose writes count against its ``_Disk``."""

    def __init__(self, disk: _Disk, f) -> None:
        self._disk = disk
        self._f = f

    def write(self, data):
        self._disk.tick()
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _ground_truth(tmp_path):
    entries = []
    for image_id in ("a", "b"):
        ann = tmp_path / f"{image_id}.txt"
        save_annotations(ann, [
            GroundTruthRecord(image_id, 0, Box(1, 2, 30, 40)),
            GroundTruthRecord(image_id, 1, Box(50, 60, 90, 100)),
        ])
        entries.append((str(tmp_path / f"{image_id}.ppm"), str(ann)))
    manifest = tmp_path / "gts.txt"
    write_manifest(manifest, entries)
    return str(manifest)


def _synth(tmp_path):
    out = tmp_path / "dets"
    argv = ["synth", _ground_truth(tmp_path), "--models", "3", "--jitter", "2",
            "--out", str(out)]
    return argv, [tmp_path / f"dets.model{i}.jsonl" for i in range(3)]


def _detections(tmp_path):
    inputs = []
    for m in range(2):
        path = tmp_path / f"in{m}.jsonl"
        save_detections(path, [
            Detection(Box(1 + m, 2, 30, 40), 0, 0.9 - m / 10, m, "a"),
            Detection(Box(50, 60, 90, 100 + m), 1, 0.5, m, "b"),
        ])
        inputs.append(str(path))
    return inputs


def _fuse(tmp_path):
    out = tmp_path / "fused.jsonl"
    return ["fuse", *_detections(tmp_path), "--out", str(out)], [out]


def _eval(tmp_path):
    preds = _detections(tmp_path)[0]
    argv = ["eval", preds, _ground_truth(tmp_path), "--out", str(tmp_path / "report")]
    return argv, [tmp_path / "report.txt", tmp_path / "report.tsv"]


def _read(path):
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("earlier", [False, True], ids=["no-earlier-output", "earlier-output"])
@pytest.mark.parametrize("setup", [_synth, _fuse, _eval], ids=["synth", "fuse", "eval"])
def test_each_failing_write_leaves_outputs_as_they_were(tmp_path, monkeypatch, capsys,
                                                        setup, earlier):
    argv, outputs = setup(tmp_path)
    before = {path: EARLIER if earlier else None for path in outputs}
    for fail_at in range(1, MAX_FAULTS + 1):
        for path, data in before.items():
            if data is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(data)
        disk = _Disk(fail_at)
        with monkeypatch.context() as m:
            m.setattr(detfuse.io, "open", disk.open, raising=False)
            m.setattr(os, "replace", disk.replace)
            code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        if disk.calls < fail_at:
            break  # no fault was injected
        assert code == EXIT_IO, (fail_at, err)
        assert "No space left on device" in err
        for path in outputs:
            assert _read(path) in (None, before[path]), (fail_at, path.name)
    else:
        pytest.fail(f"{argv[0]} still failed after {MAX_FAULTS} faults")
    assert code == EXIT_OK
    # one open, at least one write and one replace per output
    assert fail_at > 3 * len(outputs)
    assert all(_read(path) not in (None, EARLIER) for path in outputs)
