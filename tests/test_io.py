import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detfuse import Box, ContractError, Detection, GroundTruthRecord, ParseError
from detfuse.io import (
    _json_value,
    atomic_output,
    load_annotations,
    load_detections,
    load_ground_truth,
    read_manifest,
    read_ppm,
    save_annotations,
    save_detections,
    write_manifest,
    write_ppm,
)


def sample_detections():
    return [
        Detection(Box(1.5, 2.25, 10.125, 20.0), 3, 0.875, 1, "img_a"),
        Detection(Box(0.1, 0.2, 0.30000000000000004, 7.0), 0, 0.123456789, -1, "img_b"),
    ]


def test_detection_roundtrip_exact(tmp_path):
    path = tmp_path / "dets.jsonl"
    dets = sample_detections()
    save_detections(path, dets)
    assert load_detections(path) == dets


def test_detection_rewrite_byte_identical(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_detections(p1, sample_detections())
    save_detections(p2, load_detections(p1))
    assert p1.read_bytes() == p2.read_bytes()


def record(d):
    """The detection-file record of one detection, as a dict (test oracle)."""
    return {
        "image_id": d.image_id,
        "model_id": d.model_id,
        "class_id": d.class_id,
        "bbox": [d.box.x1, d.box.y1, d.box.x2, d.box.y2],
        "score": d.prob,
    }


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-7, 0.1, 1.0]
coords = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
image_ids = st.one_of(st.sampled_from(['a"b', "back\\slash", "papillon-é", "蝶", "\n\t", ""]), st.text())


@st.composite
def detections(draw):
    xs = sorted([draw(coords), draw(coords)])
    ys = sorted([draw(coords), draw(coords)])
    if draw(st.booleans()):
        xs, ys = [np.float64(v) for v in xs], [np.float64(v) for v in ys]
    prob = draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 1.0]), st.floats(0.0, 1.0)))
    return Detection(
        Box(xs[0], ys[0], xs[1], ys[1]),
        draw(st.integers(0, 2**40)),
        prob,
        draw(st.integers(-(2**40), 2**40)),
        draw(image_ids),
    )


@settings(max_examples=200, deadline=None)
@given(dets=st.lists(detections(), max_size=5))
def test_save_matches_json_dumps_and_round_trips(tmp_path_factory, dets):
    path = tmp_path_factory.getbasetemp() / "prop_dets.jsonl"
    save_detections(path, dets)
    expected = "".join(json.dumps(record(d), sort_keys=True) + "\n" for d in dets)
    assert path.read_bytes() == expected.encode("ascii")
    assert load_detections(path) == dets


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id": "a", "model_id": 0, "class_id": 1, "bbox": [0,0,1,1], "score": 0.5}\nnot json\n')
    with pytest.raises(ParseError, match=":2:"):
        load_detections(path)


def test_missing_key_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id": "a", "class_id": 1, "bbox": [0,0,1,1], "score": 0.5}\n')
    with pytest.raises(ParseError, match="model_id"):
        load_detections(path)


def test_invalid_score_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id": "a", "model_id": 0, "class_id": 1, "bbox": [0,0,1,1], "score": 1.5}\n')
    with pytest.raises(ParseError):
        load_detections(path)


GOOD = {"image_id": "a", "model_id": 0, "class_id": 1, "bbox": [0.0, 0.0, 1.0, 1.0], "score": 0.5}


@pytest.mark.parametrize(
    "field, value",
    [
        ("class_id", 1.7),
        ("class_id", 1.0),
        ("class_id", True),
        ("class_id", "1"),
        ("model_id", 2.5),
        ("model_id", False),
        ("image_id", 5),
        ("image_id", None),
        ("bbox", [0.0, "0", 1.0, 1.0]),
        ("bbox", [0.0, 0.0, True, 1.0]),
        ("bbox", [0.0, 0.0, 1.0]),
        ("bbox", "0 0 1 1"),
        ("bbox", [0.0, 0.0, 1.0, 10**400]),
        ("score", "0.5"),
        ("score", True),
        ("score", None),
    ],
)
def test_wrong_record_types_rejected(tmp_path, field, value):
    path = tmp_path / "bad.jsonl"
    rec = dict(GOOD, **{field: value})
    path.write_text(json.dumps(GOOD) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match=r"bad\.jsonl:2:"):
        load_detections(path)


def test_integer_coordinates_and_score_accepted(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text(json.dumps(dict(GOOD, bbox=[0, 1, 2, 3], score=1)) + "\n")
    [d] = load_detections(path)
    assert d.box.as_tuple() == (0.0, 1.0, 2.0, 3.0) and d.prob == 1.0
    assert all(type(v) is float for v in (*d.box.as_tuple(), d.prob))


def test_non_object_line_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match=":1:.*JSON object"):
        load_detections(path)


def test_deep_nesting_is_parse_error(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps(GOOD) + "\n" + "[" * 100_000 + "\n")
    with pytest.raises(ParseError, match=":2:"):
        load_detections(path)


@pytest.mark.parametrize("load", [load_detections, lambda p: load_annotations(p, "x"), read_manifest])
def test_invalid_utf8_is_parse_error(tmp_path, load):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ParseError, match="bin.txt.*UTF-8"):
        load(path)


def test_failed_save_leaves_no_file(tmp_path):
    def failing():
        yield from sample_detections()
        raise RuntimeError("detector crashed")

    with pytest.raises(RuntimeError):
        save_detections(tmp_path / "out.jsonl", failing())
    assert os.listdir(tmp_path) == []


def test_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "out.jsonl"
    save_detections(path, sample_detections())
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        save_detections(path, [*sample_detections(), "not a detection"])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_save_through_symlink_keeps_link(tmp_path):
    (tmp_path / "real.jsonl").write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to("real.jsonl")
    save_detections(link, sample_detections())
    assert link.is_symlink()
    assert load_detections(tmp_path / "real.jsonl") == sample_detections()
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "real.jsonl"]


def test_save_to_fifo_writes_through(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with atomic_output(fifo) as f:
        f.write("through the pipe\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"through the pipe\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=10,
)
near_records = st.fixed_dictionaries(
    {},
    optional={
        "image_id": st.one_of(st.text(max_size=5), json_values),
        "model_id": st.one_of(st.integers(-3, 3), json_values),
        "class_id": st.one_of(st.integers(-3, 3), json_values),
        "bbox": st.one_of(st.lists(st.one_of(st.floats(), st.integers()), min_size=3, max_size=5), json_values),
        "score": st.one_of(st.floats(), json_values),
    },
)
detection_lines = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(near_records, json_values).map(json.dumps), max_size=4).map(
        lambda lines: "\n".join(lines).encode("utf-8")
    ),
)


def _decoded(parse, text):
    """The value ``parse`` returns for ``text`` (by repr, so NaN and -0.0
    compare), or the type, message and position of what it raises."""
    try:
        return repr(parse(text))
    except (ValueError, RecursionError) as e:
        return type(e), str(e), getattr(e, "pos", None)


# JSON whitespace, other Unicode whitespace (which json rejects and
# str.strip removes), a BOM, and bits of JSON to truncate or append
_NEAR_JSON_BITS = ["", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\u2028", "\xa0", "\ufeff",
                   "x", "1", "{}", "[", "]", ",", '"', "NaN", "-Infinity", "Infinity", "nul"]
near_json_text = st.builds(
    lambda head, body, cut, tail: head + body[: len(body) - cut] + tail,
    st.sampled_from(_NEAR_JSON_BITS),
    st.one_of(json_values.map(json.dumps), near_records.map(json.dumps)),
    st.integers(0, 3),
    st.sampled_from(_NEAR_JSON_BITS),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=40), near_json_text))
def test_json_value_equals_json_loads(text):
    assert _decoded(_json_value, text) == _decoded(json.loads, text)


@pytest.mark.parametrize(
    "text",
    [
        '{"a": 1}', '\ufeff{"a": 1}', ' {"a": 1}', '{"a": 1} ', '\t[1]\r\n', "\x0b[1]", "[1]\x1c",
        "\u2028[1]", "[1]\u2028", "[1] [2]", "[1]]", "1 x", "1x", "", " ", "\ufeff", "NaN",
        "[NaN, Infinity, -Infinity]", "-0.0", "1e400", '"\\ud800"', "[" * 100 + "]" * 100,
        "[" * 100_000, "{" * 100_000 + "}" * 100_000, '{"a": [1, 2} ', "nul",
    ],
)
def test_json_value_equals_json_loads_on_edges(text):
    assert _decoded(_json_value, text) == _decoded(json.loads, text)


def test_json_value_rejects_a_bom_and_trailing_data_as_json_loads_does():
    with pytest.raises(json.JSONDecodeError, match="Unexpected UTF-8 BOM") as e:
        _json_value('\ufeff{"a": 1}')
    assert e.value.pos == 0
    with pytest.raises(json.JSONDecodeError, match="Extra data") as e:
        _json_value("[1]  2")
    assert e.value.pos == 5


def _load_or_parse_error(load, path):
    try:
        return load(path)
    except ParseError:
        return None


@settings(max_examples=200, deadline=None)
@given(data=detection_lines)
def test_detection_loader_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_d.jsonl"
    path.write_bytes(data)
    result = _load_or_parse_error(load_detections, path)
    assert result is None or all(isinstance(d, Detection) for d in result)


annotation_lines = st.one_of(
    st.binary(max_size=200),
    st.lists(
        st.lists(
            st.one_of(st.sampled_from(["0", "-1", "1.5", "nan", "inf", "1e400", "٣", "x"]), st.text(max_size=4)),
            max_size=6,
        ).map(" ".join),
        max_size=4,
    ).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
)


@settings(max_examples=200, deadline=None)
@given(data=annotation_lines)
def test_annotation_loader_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_a.txt"
    path.write_bytes(data)
    result = _load_or_parse_error(lambda p: load_annotations(p, "img"), path)
    assert result is None or all(isinstance(a, GroundTruthRecord) for a in result)


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), st.text(max_size=60).map(lambda t: t.encode("utf-8", "surrogatepass"))))
def test_manifest_reader_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_m.txt"
    path.write_bytes(data)
    result = _load_or_parse_error(read_manifest, path)
    assert result is None or all(len(e) == 2 for e in result)


def test_annotation_roundtrip(tmp_path):
    path = tmp_path / "ann.txt"
    anns = [
        GroundTruthRecord("pic", 0, Box(1.25, 2.5, 10.0, 20.75)),
        GroundTruthRecord("pic", 4, Box(0, 0, 5, 5)),
    ]
    save_annotations(path, anns)
    assert load_annotations(path, "pic") == anns


def test_annotation_roundtrip_numpy_scalars(tmp_path):
    # numpy 2 reprs np.float64(1.5) as "np.float64(1.5)", which the loader rejects
    path = tmp_path / "ann.txt"
    x1, y1, x2, y2 = (np.float64(v) for v in (1.5, -0.0, 10.1, 5e-324))
    save_annotations(path, [GroundTruthRecord("pic", np.int64(3), Box(x1, y1, x2, y2))])
    assert path.read_text() == "3 1.5 -0.0 10.1 5e-324\n"
    assert load_annotations(path, "pic") == [GroundTruthRecord("pic", 3, Box(1.5, -0.0, 10.1, 5e-324))]


def test_annotation_bad_field_count(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("0 1 2 3\n")
    with pytest.raises(ParseError, match=":1:"):
        load_annotations(path, "pic")


@pytest.mark.parametrize(
    "line",
    ["1_0 1_0.5 2.0 3e1_0 40", "0 1 2 3 4_0", "\u0663 1 2 3 4", "0 1 2 3 \uff14",
     "0\u30001 2 3 4", "0 1 2 3 4 \u00b2", "0 1 2 3 4\u00a0", "\x850 1 2 3 4",
     "0 1 2 3 4\u2003", "\u30000 1 2 3 4"],
    ids=["separators", "separator-last", "arabic-indic", "fullwidth", "ideographic-space",
         "superscript", "trailing-no-break-space", "leading-next-line", "trailing-em-space",
         "leading-ideographic-space"],
)
def test_annotation_python_only_number_forms_rejected(tmp_path, line):
    path = tmp_path / "ann.txt"
    path.write_text(f"0 1 2 3 4\n{line}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2: bad annotation record: only ASCII"):
        load_annotations(path, "pic")


@pytest.mark.parametrize(
    "line",
    ["0\x1c1 2\x1f3 4", "0 \x1c1 2 3 4", "0\x0b1 2 3 4", "0 1\x0c2 3 4", "0 1 2 3\x004",
     "0 1 2 3 4\x7f1"],
    ids=["file-and-unit-separators", "group-separator", "vertical-tab", "form-feed", "nul",
         "delete"],
)
def test_annotation_control_characters_rejected(tmp_path, line):
    # str.split() splits on \x0b, \x0c and \x1c-\x1f and float() strips them
    path = tmp_path / "ann.txt"
    path.write_text(f"0 1 2 3 4\n{line}\n", encoding="ascii")
    with pytest.raises(ParseError, match=":2: bad annotation record: control character"):
        load_annotations(path, "pic")


def test_annotation_tab_separates_fields(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("0\t1 2\t3 4\r\n", encoding="ascii")
    assert load_annotations(path, "pic") == [GroundTruthRecord("pic", 0, Box(1, 2, 3, 4))]


@pytest.mark.parametrize("space", ["\u00a0", "\x85", "\u2003", "\u3000", "\x0b", "\x1c"],
                         ids=["no-break", "next-line", "em", "ideographic", "vertical-tab",
                              "file-separator"])
def test_other_files_strip_any_whitespace_at_line_edges(tmp_path, space):
    # detection and manifest lines lose every str.strip() whitespace at
    # their edges, and a line of whitespace alone is blank in every file
    dets = tmp_path / "dets.jsonl"
    save_detections(dets, sample_detections())
    lines = dets.read_text().splitlines()
    dets.write_text("".join(f"{space}{line}{space}\n{space}\n" for line in lines))
    assert load_detections(dets) == sample_detections()
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{space}a.ppm a.txt{space}\n{space}# comment\n{space}\n")
    assert read_manifest(manifest) == [(str(tmp_path / "a.ppm"), str(tmp_path / "a.txt"))]
    ann = tmp_path / "ann.txt"
    ann.write_text(f"0 1 2 3 4\n{space}\n")
    assert load_annotations(ann, "pic") == [GroundTruthRecord("pic", 0, Box(1, 2, 3, 4))]


def test_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "sub").mkdir()
    m = tmp_path / "sub" / "manifest.txt"
    m.write_text("a.ppm a.txt\n# comment\n\n")
    entries = read_manifest(m)
    assert entries == [(str(tmp_path / "sub" / "a.ppm"), str(tmp_path / "sub" / "a.txt"))]


def test_load_ground_truth(tmp_path):
    write_ppm(tmp_path / "img1.ppm", np.zeros((2, 2, 3), np.uint8))
    save_annotations(tmp_path / "img1.txt", [GroundTruthRecord("img1", 2, Box(0, 0, 1, 1))])
    write_manifest(tmp_path / "m.txt", [("img1.ppm", "img1.txt")])
    gts = load_ground_truth(tmp_path / "m.txt")
    assert gts == [GroundTruthRecord("img1", 2, Box(0, 0, 1, 1))]


def test_load_ground_truth_rejects_duplicate_stems(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        save_annotations(tmp_path / sub / "img.txt", [GroundTruthRecord("img", 0, Box(0, 0, 1, 1))])
    write_manifest(tmp_path / "m.txt", [("a/img.ppm", "a/img.txt"), ("b/img.ppm", "b/img.txt")])
    with pytest.raises(ContractError, match="'img'") as info:
        load_ground_truth(tmp_path / "m.txt")
    assert str(tmp_path / "a" / "img.ppm") in str(info.value)
    assert str(tmp_path / "b" / "img.ppm") in str(info.value)


def test_write_manifest_failing_midway_leaves_no_file(tmp_path):
    def entries():
        yield ("a.ppm", "a.txt")
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError):
        write_manifest(tmp_path / "m.txt", entries())
    assert list(tmp_path.iterdir()) == []


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_write_ppm_strided_view(tmp_path):
    img = np.random.default_rng(1).integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    view = img[::2, ::-1]
    write_ppm(tmp_path / "x.ppm", view)
    assert (tmp_path / "x.ppm").read_bytes() == b"P6\n7 3\n255\n" + view.tobytes()


@pytest.mark.parametrize(
    "img", [np.zeros((4, 4), np.uint8), np.zeros((4, 4, 4), np.uint8), np.zeros((4, 4, 3)),
            np.zeros((0, 5, 3), np.uint8), np.zeros((5, 0, 3), np.uint8), [[[0, 0, 0]]]],
    ids=["2d", "4-channel", "float64", "no-rows", "no-columns", "list"],
)
def test_write_ppm_rejects_non_rgb8(tmp_path, img):
    with pytest.raises(ContractError, match="uint8 image"):
        write_ppm(tmp_path / "x.ppm", img)
    assert not (tmp_path / "x.ppm").exists()


def test_ppm_with_comments(tmp_path):
    path = tmp_path / "c.ppm"
    raster = bytes(range(2 * 1 * 3))
    path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + raster)
    img = read_ppm(path)
    assert img.shape == (1, 2, 3)
    assert img.tobytes() == raster


@pytest.mark.parametrize(
    "header, outcome",
    [(b"P6\r2\v1\f255\n", (1, 2, 3)), (b"P6\t2\r\n1 255\r", (1, 2, 3)),
     (b"P62 1 255 ", (1, 2, 3)), (b"P6 2#c\n1 255\n", "bad PPM header token"),
     (b"P6 #c\r9 9\n2 1 255\n", (1, 2, 3)), (b"P6 2 1 # no newline", "truncated"),
     (b"P6 2\n#\n#c 9\n1 255\n", (1, 2, 3)), (b"P6 +2 01 255\n", (1, 2, 3)),
     (b"P6\n1_0 1\n2_55\n", "bad PPM header token"),
     (b"P6 2 1 25_5\n", "bad PPM header token"), (b"P6 _2 1 255\n", "bad PPM header token")],
    ids=["cr-vt-ff", "tab-crlf", "no-space-after-magic", "comment-inside-token",
         "comment-to-newline-only", "comment-at-end", "comment-lines", "signs-and-zeros",
         "digit-separators", "separator-in-maxval", "leading-underscore"],
)
def test_ppm_header_tokens(tmp_path, header, outcome):
    path = tmp_path / "h.ppm"
    path.write_bytes(header + bytes(6))
    if isinstance(outcome, str):
        with pytest.raises(ParseError, match=outcome):
            read_ppm(path)
    else:
        assert read_ppm(path).shape == outcome


def test_ppm_truncated_raster(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
    with pytest.raises(ParseError, match="raster"):
        read_ppm(path)


@pytest.mark.parametrize(
    "data, have, n",
    [(b"P6\n2 2\n255\n\x00\x00", 2, 12), (b"P6\n2 2\n255\n", 0, 12),
     (b"P6\n2 2\n255", 0, 12), (b"P6 1 1 255 " + bytes(2), 2, 3)],
    ids=["short", "empty", "no-separator", "spaces"],
)
def test_ppm_short_raster_message(tmp_path, data, have, n):
    path = tmp_path / "t.ppm"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        read_ppm(path)
    assert str(info.value) == f"{path}: raster has {have} bytes, expected {n}"


def test_ppm_read_holds_two_rasters(tmp_path):
    # tracemalloc peak of read_ppm on 640 x 480, in raster bytes: 3.0 with
    # a bytes slice of the raster between the file's bytes and the array
    img = np.random.default_rng(2).integers(0, 256, size=(480, 640, 3), dtype=np.uint8)
    path = tmp_path / "big.ppm"
    write_ppm(path, img)
    tracemalloc.start()
    try:
        got = read_ppm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, img) and got.flags.writeable
    assert peak <= 2.05 * img.nbytes, peak / img.nbytes


def test_ppm_wrong_magic(tmp_path):
    path = tmp_path / "w.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ParseError, match="P6"):
        read_ppm(path)


@pytest.mark.parametrize("dims", [b"-1 -1", b"0 5", b"5 0", b"-2 3"])
def test_ppm_nonpositive_dimensions(tmp_path, dims):
    path = tmp_path / "d.ppm"
    path.write_bytes(b"P6\n" + dims + b"\n255\n" + bytes(3))
    with pytest.raises(ParseError, match="dimensions"):
        read_ppm(path)


ppm_tokens = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["-0", "+2", "00", "256", "65535", "1" + "0" * 30, "9" * 5000, "1.5", "x", "\u0663",
                     "1_0", "2_55", "_1", "1_"]),
)
ppm_separators = st.sampled_from([b" ", b"\n", b"\t", b"\n# comment\n", b"#", b""])


@st.composite
def near_ppm_files(draw):
    """A P6 header of three tokens, then a raster near the size they name."""
    tokens = [draw(ppm_tokens), draw(ppm_tokens), draw(st.one_of(st.just("255"), ppm_tokens))]
    header = draw(st.sampled_from([b"P6", b"P3", b"P"]))
    for token in tokens:
        header += draw(ppm_separators) + token.encode("utf-8")
    header += draw(ppm_separators)
    try:
        expected = max(0, int(tokens[0]) * int(tokens[1]) * 3)
    except ValueError:
        expected = 0
    size = min(draw(st.sampled_from([expected, expected - 1, expected + 1, 0])), 200)
    return header + bytes(max(size, 0))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=60), near_ppm_files()))
def test_ppm_reader_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ppm"
    path.write_bytes(data)
    img = _load_or_parse_error(read_ppm, path)
    if img is not None:
        assert img.dtype == np.uint8 and img.ndim == 3
        assert img.shape[0] >= 1 and img.shape[1] >= 1 and img.shape[2] == 3
