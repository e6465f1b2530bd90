r"""File formats: detection record files, annotation files, manifests, PPM.

Detection record files are JSON Lines. The writer emits one line per
detection, with the keys in this order and nothing else::

    {"bbox": [x1, y1, x2, y2], "class_id": C, "image_id": "ID", "model_id": M, "score": S}\n

This is the line ``json.dumps(record, sort_keys=True) + "\n"`` gives when
the coordinates and score are floats. Coordinates and score are written
as shortest round-trip float reprs (``1.0``, ``-0.0``, ``1e+16``,
``5e-324``; an integer coordinate becomes ``10.0``), class_id and model_id
as decimal integers, and image_id as a JSON string with non-ASCII
characters escaped.

The reader takes any UTF-8 file of such objects, one per line, in any key
order and spacing; blank lines and extra keys are ignored. It requires
image_id to be a string, class_id and model_id to be integers (not
``1.0`` or ``true``), bbox to be a list of four numbers and score a
number (integers or reals, not strings or booleans). The box must be
finite with x1 <= x2 and y1 <= y2, score must lie in [0, 1] and class_id
must be non-negative. Anything else raises ParseError naming the file and
the line (for text that is not UTF-8, the last line read before it).

Annotation files carry one ``class_id x1 y1 x2 y2`` record per line. A
manifest lists ``image_path annotation_path`` pairs, resolved relative to
the manifest's directory; ``load_ground_truth`` requires the image stems of
one manifest to be distinct. Images are binary PPM (P6, maxval 255, width
and height at least 1, ``#`` comments in the header). ``check_image`` holds
``write_ppm`` and the transforms of ``detfuse.augment`` to (h, w, 3) uint8
arrays with h, w >= 1, so every image written reads back.

Detection files, manifests and evaluation reports are written to a
temporary file beside the target and moved into place when complete, so a
failing writer leaves the previous file, or none, rather than a partial one.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import stat
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ContractError, ParseError
from .evaluation import GroundTruthRecord
from .fusion import Detection
from .geometry import Box

@contextlib.contextmanager
def atomic_output(path: str | os.PathLike) -> Iterator[TextIO]:
    """Open a UTF-8 text file that appears at ``path`` only once it is complete.

    Writes go to a temporary file in the target's directory, which replaces
    the target when the block ends and is deleted when the block raises.
    A symbolic link is followed, so its target is replaced and the link
    kept. A path naming something other than a regular file, such as
    ``/dev/null`` or a pipe, is written directly: it holds no file to leave
    half-written, and replacing it would remove it.
    """
    try:
        special = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        special = False
    if special:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            yield f
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a UTF-8 file."""
    lineno = 0
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: invalid UTF-8 after line {lineno}: {e.reason}") from None


def save_detections(path: str | os.PathLike, detections: Iterable[Detection]) -> None:
    """Write detections as JSON Lines, in the layout the module docstring gives."""
    quoted: dict[str, str] = {}  # image_id -> its JSON string
    with atomic_output(path) as f:
        write = f.write
        for d in detections:
            image_id = quoted.get(d.image_id)
            if image_id is None:
                image_id = quoted[d.image_id] = json.dumps(d.image_id)
            b = d.box
            # float() because numpy 2 reprs np.float64 as "np.float64(...)"
            write(
                f'{{"bbox": [{float(b.x1)!r}, {float(b.y1)!r}, {float(b.x2)!r}, '
                f'{float(b.y2)!r}], "class_id": {d.class_id:d}, "image_id": {image_id}, '
                f'"model_id": {d.model_id:d}, "score": {float(d.prob)!r}}}\n'
            )


def _real(v: object) -> float:
    if type(v) is float:
        return v
    if type(v) is not int:  # bool is a subclass of int, not int itself
        raise ValueError(f"bbox entries and score must be numbers, got {v!r}")
    return float(v)


def _record_to_detection(rec: object) -> Detection:
    if type(rec) is not dict:
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    try:
        image_id = rec["image_id"]
        model_id = rec["model_id"]
        class_id = rec["class_id"]
        bbox = rec["bbox"]
        score = rec["score"]
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    if type(image_id) is not str:
        raise ValueError(f"image_id must be a string, got {image_id!r}")
    if type(model_id) is not int or type(class_id) is not int:
        raise ValueError(f"model_id and class_id must be integers, got {model_id!r}, {class_id!r}")
    if type(bbox) is not list or len(bbox) != 4:
        raise ValueError(f"bbox must be a list of 4 numbers, got {bbox!r}")
    x1, y1, x2, y2 = bbox
    if not (
        type(x1) is float and type(y1) is float and type(x2) is float
        and type(y2) is float and type(score) is float
    ):
        x1, y1, x2, y2, score = (_real(v) for v in (x1, y1, x2, y2, score))
    return Detection(Box(x1, y1, x2, y2), class_id, score, model_id, image_id)


def load_detections(path: str | os.PathLike) -> list[Detection]:
    """Read a detection record file; see the module docstring for what it accepts."""
    out: list[Detection] = []
    for lineno, line in _lines(path):
        try:
            out.append(_record_to_detection(json.loads(line)))
        except (ValueError, OverflowError, RecursionError) as e:
            raise ParseError(f"{path}:{lineno}: bad detection record: {e}") from e
    return out


def save_annotations(path: str | os.PathLike, anns: Iterable[GroundTruthRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for a in anns:
            b = a.box
            # float() because numpy 2 reprs np.float64 as "np.float64(...)"
            f.write(
                f"{a.class_id} {float(b.x1)!r} {float(b.y1)!r} {float(b.x2)!r} {float(b.y2)!r}\n"
            )


def load_annotations(path: str | os.PathLike, image_id: str) -> list[GroundTruthRecord]:
    out: list[GroundTruthRecord] = []
    for lineno, line in _lines(path):
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        class_id, x1, y1, x2, y2 = parts
        try:
            box = Box(float(x1), float(y1), float(x2), float(y2))
            out.append(GroundTruthRecord(image_id, int(class_id), box))
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: bad annotation record: {e}") from e
    return out


def image_id_from_path(image_path: str) -> str:
    """Image key used throughout: the file name without its extension."""
    return os.path.splitext(os.path.basename(image_path))[0]


def read_manifest(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Read ``image_path annotation_path`` pairs, resolved against the manifest dir."""
    base = os.path.dirname(os.path.abspath(path))
    out: list[tuple[str, str]] = []
    for lineno, line in _lines(path):
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 paths, got {len(parts)}")
        out.append(tuple(p if os.path.isabs(p) else os.path.join(base, p) for p in parts))
    return out


def write_manifest(path: str | os.PathLike, entries: Iterable[tuple[str, str]]) -> None:
    """Write one ``first second`` line per pair, atomically."""
    with atomic_output(path) as f:
        for image_path, ann_path in entries:
            f.write(f"{image_path} {ann_path}\n")


def load_ground_truth(manifest_path: str | os.PathLike) -> list[GroundTruthRecord]:
    """Load every annotation file named by a manifest.

    Records are keyed by image stem, so two entries with one stem (such as
    ``a/img.ppm`` and ``b/img.ppm``) raise ContractError rather than merge.
    """
    out: list[GroundTruthRecord] = []
    seen: dict[str, str] = {}  # stem -> image path
    for image_path, ann_path in read_manifest(manifest_path):
        stem = image_id_from_path(image_path)
        if stem in seen:
            raise ContractError(
                f"{manifest_path}: image stem {stem!r} is listed twice "
                f"({seen[stem]} and {image_path})"
            )
        seen[stem] = image_path
        out.extend(load_annotations(ann_path, stem))
    return out


# ---------------------------------------------------------------------------
# PPM (P6, 8-bit)


# after the magic, three tokens (width, height, maxval): each is the run of
# non-whitespace after any whitespace and '#' comments running to end of line
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*)*(\S*)" * 3)


def check_image(img: np.ndarray) -> None:
    """Raise ``ContractError`` unless ``img`` is an (h, w, 3) uint8 array
    with h, w >= 1, the images this module writes and reads."""
    if not (isinstance(img, np.ndarray) and img.dtype == np.uint8 and img.ndim == 3
            and img.shape[2] == 3 and img.size):
        raise ContractError(
            "expected an (h, w, 3) uint8 image with h, w >= 1, got"
            f" {getattr(img, 'shape', type(img).__name__)} {getattr(img, 'dtype', '')}"
        )


def read_ppm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PPM into an (h, w, 3) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ParseError(f"{path}: not a P6 PPM file")
    tokens: list[int] = []
    for token in header.groups():  # an empty token means the file ended
        if not token:
            raise ParseError(f"{path}: truncated PPM header")
        try:
            tokens.append(int(token))
        except ValueError as e:
            raise ParseError(f"{path}: bad PPM header token: {e}") from e
    pos = header.end() + 1  # single whitespace after maxval
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise ParseError(f"{path}: PPM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 is supported, got {maxval}")
    n = width * height * 3
    # the raster is read in place from the file's bytes, so the peak holds
    # two copies of it: those bytes and the array returned
    have = max(0, min(n, len(data) - pos))
    if have != n:
        raise ParseError(f"{path}: raster has {have} bytes, expected {n}")
    return np.frombuffer(data, np.uint8, n, pos).reshape(height, width, 3).copy()


def write_ppm(path: str | os.PathLike, img: np.ndarray) -> None:
    """Write an image that ``check_image`` accepts as a binary PPM."""
    check_image(img)
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(img).data)  # no copy of a contiguous raster
