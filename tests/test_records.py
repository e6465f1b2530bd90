"""The slotted records against frozen dataclasses with the same fields.

``Box``, ``Detection``, ``ClusterSummary`` and ``GroundTruthRecord`` must
behave as the frozen dataclasses they replace: the same ``==``, ``hash``,
``repr``, ``FrozenInstanceError`` on assignment and error messages. Each
reference below is such a dataclass, with the old validation, built under
the same class name so that reprs and messages compare as strings.
"""

import copy
import dataclasses
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from detfuse import Box, ClusterSummary, ContractError, Detection, GroundTruthRecord


def _box_post_init(self):
    x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
    if not (math.isfinite(x1) and math.isfinite(y1) and math.isfinite(x2) and math.isfinite(y2)):
        raise ContractError(f"box coordinates must be finite: {self!r}")
    if x2 < x1 or y2 < y1:
        raise ContractError(f"box corners out of order: {self!r}")


def _detection_post_init(self):
    if not 0.0 <= self.prob <= 1.0:
        raise ContractError(f"prob must be in [0, 1], got {self.prob}")
    if self.class_id < 0:
        raise ContractError(f"class_id must be non-negative, got {self.class_id}")


RefBox = dataclasses.make_dataclass(
    "Box", ["x1", "y1", "x2", "y2"], namespace={"__post_init__": _box_post_init}, frozen=True
)
RefDetection = dataclasses.make_dataclass(
    "Detection",
    ["box", "class_id", "prob", ("model_id", int, 0), ("image_id", str, "")],
    namespace={"__post_init__": _detection_post_init},
    frozen=True,
)
RefClusterSummary = dataclasses.make_dataclass(
    "ClusterSummary", ["box", "prob", "class_id", "support"], frozen=True
)
RefGroundTruthRecord = dataclasses.make_dataclass(
    "GroundTruthRecord", ["image_id", "class_id", "box"], frozen=True
)

# kind -> (slotted class, reference); a field named "box" is drawn as a box tuple
KINDS = {
    "Box": (Box, RefBox),
    "Detection": (Detection, RefDetection),
    "ClusterSummary": (ClusterSummary, RefClusterSummary),
    "GroundTruthRecord": (GroundTruthRecord, RefGroundTruthRecord),
}
FIELDS = {name: [f.name for f in dataclasses.fields(ref)] for name, (_, ref) in KINDS.items()}


def build(kind: str, values: tuple, reference: bool):
    """A record of ``kind`` (its slotted class or its reference) from raw values."""
    cls = KINDS[kind][reference]
    box = RefBox if reference else Box
    if kind == "Box":
        return cls(*values)
    return cls(*(box(*v) if f == "box" else v for f, v in zip(FIELDS[kind], values)))


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 0.1, 1.0]
coords = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
unit = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))


@st.composite
def boxes(draw):
    xs = sorted([draw(coords), draw(coords)])
    ys = sorted([draw(coords), draw(coords)])
    return (xs[0], ys[0], xs[1], ys[1])


small_ints = st.integers(0, 3)
values_of = {
    "Box": boxes(),
    "Detection": st.tuples(boxes(), small_ints, unit, st.integers(-2, 2), st.sampled_from(["", "a"])),
    # ClusterSummary.prob is not validated: it may be NaN
    "ClusterSummary": st.tuples(
        boxes(), st.one_of(unit, st.just(math.nan), st.floats()), small_ints, st.integers(1, 3)
    ),
    "GroundTruthRecord": st.tuples(st.sampled_from(["", "a", "é"]), small_ints, boxes()),
}


def pair_of(kind: str):
    """Two value tuples, equal half of the time."""
    v = values_of[kind]
    return st.one_of(st.tuples(v, v), v.map(lambda a: (a, a)))


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eq_hash_repr_match_the_dataclass(kind, data):
    a, b = data.draw(pair_of(kind))
    new_a, new_b = build(kind, a, False), build(kind, b, False)
    ref_a, ref_b = build(kind, a, True), build(kind, b, True)
    assert (new_a == new_b) == (ref_a == ref_b)
    assert (new_b == new_a) == (ref_b == ref_a)
    assert (new_a != new_b) == (ref_a != ref_b)
    assert new_a == new_a
    assert new_a != ref_a and ref_a != new_a
    assert not (new_a == ref_a or ref_a == new_a)
    assert hash(new_a) == hash(ref_a)
    assert repr(new_a) == repr(ref_a)


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_frozen_and_without_dict(kind, data):
    rec = build(kind, data.draw(values_of[kind]), False)
    assert not hasattr(rec, "__dict__")
    for name in [*FIELDS[kind], "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pickle_and_copy_round_trip(kind, data):
    rec = build(kind, data.draw(values_of[kind]), False)
    # a NaN compares unequal to, and hashes apart from, its unpickled copy
    has_nan = kind == "ClusterSummary" and math.isnan(rec.prob)
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is type(rec)
        assert repr(clone) == repr(rec)
        if not has_nan:
            assert clone == rec
            assert hash(clone) == hash(rec)


bad_coords = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), coords)


@settings(max_examples=200, deadline=None)
@given(x1=bad_coords, y1=bad_coords, x2=bad_coords, y2=bad_coords)
def test_box_rejects_bad_values_with_the_old_message(x1, y1, x2, y2):
    try:
        RefBox(x1, y1, x2, y2)
    except ContractError as e:
        with pytest.raises(ContractError) as got:
            Box(x1, y1, x2, y2)
        assert str(got.value) == str(e)
    else:
        Box(x1, y1, x2, y2)


@settings(max_examples=200, deadline=None)
@given(
    class_id=st.integers(-3, 3),
    prob=st.one_of(st.sampled_from([math.nan, math.inf, -0.0, -5e-324, 1.0000000000000002]), st.floats()),
)
def test_detection_rejects_bad_values_with_the_old_message(class_id, prob):
    try:
        RefDetection(RefBox(0, 0, 1, 1), class_id, prob)
    except ContractError as e:
        with pytest.raises(ContractError) as got:
            Detection(Box(0, 0, 1, 1), class_id, prob)
        assert str(got.value) == str(e)
    else:
        Detection(Box(0, 0, 1, 1), class_id, prob)


def test_ground_truth_rejects_a_negative_class_as_detection_does():
    with pytest.raises(ContractError) as expected:
        Detection(Box(0, 0, 1, 1), -1, 0.5)
    with pytest.raises(ContractError) as got:
        GroundTruthRecord("a", -1, Box(0, 0, 1, 1))
    assert str(got.value) == str(expected.value)


def test_detection_keyword_defaults():
    d = Detection(box=Box(0, 0, 1, 1), class_id=2, prob=0.5)
    assert (d.model_id, d.image_id) == (0, "")
    assert d == Detection(Box(0, 0, 1, 1), 2, 0.5, 0, "")


def test_records_allocate_less_than_dataclasses():
    # Measured on CPython 3.11, per Detection(Box(...)) with its list slot and
    # without the floats: 144.5 B slotted, 225 B as frozen dataclasses.
    n = 10_000
    values = [(float(i), i + 0.5, i + 1.25, i + 2.5, i / (2 * n)) for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dets = [Detection(Box(x1, y1, x2, y2), 1, p) for x1, y1, x2, y2, p in values]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(dets) == n
    assert used / n <= 180
