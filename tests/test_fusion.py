import random

import pytest

from detfuse import (
    Box,
    Cluster,
    ClusterSummary,
    ContractError,
    Detection,
    PROB_MAX,
    merge_boxes,
    merge_boxes_with_members,
    summarize,
)

from oracles import iou_ref, replay_merge


def det(box, class_id=0, prob=0.5, model_id=0, image_id="img"):
    return Detection(Box(*box), class_id, prob, model_id, image_id)


def test_detection_validation():
    with pytest.raises(ContractError, match="prob"):
        Detection(Box(0, 0, 1, 1), 0, 1.5)
    with pytest.raises(ContractError, match="prob"):
        Detection(Box(0, 0, 1, 1), 0, float("nan"))
    with pytest.raises(ContractError, match="class_id"):
        Detection(Box(0, 0, 1, 1), -1, 0.5)


class TestSummarize:
    def test_singleton_identity(self):
        s = summarize(Cluster([det((0, 0, 10, 10), 3, 0.8)]))
        assert s.box == Box(0, 0, 10, 10)
        assert s.prob == 0.8
        assert s.class_id == 3
        assert s.support == 1

    def test_weighted_pair(self):
        s = summarize(
            Cluster([det((0, 0, 10, 10), 3, 0.8), det((2, 2, 12, 12), 3, 0.2)])
        )
        assert s.box.as_tuple() == pytest.approx((0.4, 0.4, 10.4, 10.4), abs=1e-12)
        assert s.prob == pytest.approx(0.4, abs=1e-15)
        assert s.class_id == 3

    def test_equal_probs_identical_boxes(self):
        s = summarize(Cluster([det((1, 2, 3, 4), 1, 0.6), det((1, 2, 3, 4), 1, 0.6)]))
        assert s.box == Box(1, 2, 3, 4)
        assert s.prob == pytest.approx(0.3)

    def test_zero_weights_rejected(self):
        with pytest.raises(ContractError, match="all member probabilities are zero"):
            summarize(Cluster([det((0, 0, 1, 1), prob=0.0)]))

    def test_prob_mode_max(self):
        s = summarize(
            Cluster([det((0, 0, 10, 10), 3, 0.8), det((0, 0, 10, 10), 3, 0.2)]),
            prob_mode=PROB_MAX,
        )
        assert s.prob == 0.8

    def test_prob_never_exceeds_member_max(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            members = [det((0, 0, 10, 10), 1, rng.uniform(0.01, 1.0)) for _ in range(n)]
            s = summarize(Cluster(members))
            assert s.prob <= max(m.prob for m in members) + 1e-15

    def test_support_monotonicity(self):
        # fixed max member probability: aggregate prob strictly decreases with size
        peak = 0.9
        probs = []
        for n in range(1, 6):
            members = [det((0, 0, 10, 10), 1, peak)] + [
                det((0, 0, 10, 10), 1, 0.5) for _ in range(n - 1)
            ]
            s = summarize(Cluster(members))
            assert s.prob == peak / n
            probs.append(s.prob)
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_cluster_class_purity_enforced(self):
        with pytest.raises(ContractError):
            Cluster([det((0, 0, 1, 1), 1, 0.5), det((0, 0, 1, 1), 2, 0.5)])
        with pytest.raises(ContractError):
            Cluster([])


class TestMergeBoxes:
    def test_empty(self):
        assert merge_boxes([]) == []

    def test_identical_boxes_merge(self):
        out = merge_boxes(
            [det((0, 0, 10, 10), 1, 0.9), det((0, 0, 10, 10), 1, 0.7)]
        )
        assert len(out) == 1
        assert out[0].box == Box(0, 0, 10, 10)
        assert out[0].prob == pytest.approx(0.45)
        assert out[0].support == 2

    def test_classes_never_merge(self):
        out = merge_boxes(
            [det((0, 0, 10, 10), 1, 0.9), det((0, 0, 10, 10), 2, 0.9)]
        )
        assert len(out) == 2
        assert {s.class_id for s in out} == {1, 2}

    def test_disjoint_box_seeds_new_cluster(self):
        out = merge_boxes(
            [
                det((0, 0, 10, 10), 1, 0.9),
                det((1, 1, 11, 11), 1, 0.8),
                det((50, 50, 60, 60), 1, 0.6),
            ]
        )
        assert len(out) == 2
        assert sorted(s.support for s in out) == [1, 2]

    def test_mixed_image_ids_rejected(self):
        with pytest.raises(ContractError):
            merge_boxes([det((0, 0, 1, 1), image_id="a"), det((0, 0, 1, 1), image_id="b")])

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            merge_boxes([det((0, 0, 1, 1))], iou_threshold=0.0)
        with pytest.raises(ValueError):
            merge_boxes([det((0, 0, 1, 1))], iou_threshold=1.0)

    def test_underflowing_boxes_merge(self):
        # both areas underflow to 0; the IoU of identical boxes is still 1
        tiny = (0.0, 0.0, 1.3279261924115152e-168, 2.6408222023612193e-157)
        assert len(merge_boxes([det(tiny, 1, 0.5), det(tiny, 1, 0.5)])) == 1

    def test_threshold_inclusive(self):
        # (0,0,10,10) vs (0,0,10,5): inter 50, union 100 -> IoU exactly 0.5, must merge
        a = det((0, 0, 10, 10), 1, 0.8)
        b = det((0, 0, 10, 5), 1, 0.7)
        out = merge_boxes([a, b], iou_threshold=0.5)
        assert len(out) == 1

    def test_partition_property(self):
        rng = random.Random(11)
        dets = [
            det(
                sorted_box(rng),
                rng.randint(0, 2),
                rng.uniform(0.01, 1.0),
                rng.randint(0, 2),
            )
            for _ in range(40)
        ]
        out = merge_boxes_with_members(dets)
        assert sum(s.support for _, s in out) == len(dets)
        for cluster, s in out:
            assert all(m.class_id == s.class_id for m in cluster.members)
            assert len(cluster.members) == s.support

    def test_output_ordering_non_increasing(self):
        rng = random.Random(13)
        dets = [
            det(sorted_box(rng), rng.randint(0, 2), rng.uniform(0.01, 1.0))
            for _ in range(30)
        ]
        out = merge_boxes(dets)
        probs = [s.prob for s in out]
        assert probs == sorted(probs, reverse=True)

    def test_permutation_robustness(self):
        rng = random.Random(17)
        # distinct probs so the deterministic pre-sort fully orders the input
        probs = rng.sample(range(1, 1000), 25)
        dets = [
            det(sorted_box(rng), rng.randint(0, 2), p / 1000.0, rng.randint(0, 2))
            for p in probs
        ]
        baseline = merge_boxes(dets)
        for _ in range(5):
            shuffled = dets[:]
            rng.shuffle(shuffled)
            assert merge_boxes(shuffled) == baseline

    def test_oracle_equivalence_small(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(0, 8)
            dets = [
                det(
                    sorted_box(rng),
                    rng.randint(0, 2),
                    round(rng.uniform(0.01, 1.0), 6),
                    rng.randint(0, 2),
                )
                for _ in range(n)
            ]
            check_against_replay(dets)

    def test_oracle_equivalence_with_zero_probabilities(self):
        # a probability-0 detection joins a cluster it overlaps and is dropped
        # otherwise; the clusters are the replay of the detections kept
        rng = random.Random(31)
        joined = dropped = 0
        for _ in range(300):
            dets = []
            for _ in range(rng.randint(0, 8)):
                box = sorted_box(rng)
                if dets and rng.random() < 0.5:
                    box = near_box(rng, rng.choice(dets).box.as_tuple())
                prob = 0.0 if rng.random() < 0.4 else round(rng.uniform(0.01, 1.0), 6)
                dets.append(det(box, rng.randint(0, 1), prob, rng.randint(0, 2)))
            lost = check_against_replay(dets)
            dropped += len(lost)
            joined += sum(d.prob == 0.0 for d in dets) - len(lost)
        assert joined > 0 and dropped > 0

    def test_summary_box_within_member_hull(self):
        rng = random.Random(29)
        dets = [
            det(sorted_box(rng), 0, rng.uniform(0.1, 1.0)) for _ in range(20)
        ]
        for cluster, s in merge_boxes_with_members(dets):
            for k in range(4):
                values = [m.box.as_tuple()[k] for m in cluster.members]
                assert min(values) - 1e-9 <= s.box.as_tuple()[k] <= max(values) + 1e-9


def sorted_box(rng):
    x1, x2 = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
    y1, y2 = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
    return (x1, y1, x2, y2)


def near_box(rng, box):
    """box with each corner moved by up to 3, so it usually overlaps box."""
    x1, x2 = sorted((box[0] + rng.uniform(-3, 3), box[2] + rng.uniform(-3, 3)))
    y1, y2 = sorted((box[1] + rng.uniform(-3, 3), box[3] + rng.uniform(-3, 3)))
    return (x1, y1, x2, y2)


def check_against_replay(dets, iou_threshold=0.5):
    """Compare merge_boxes_with_members to the literal replay oracle.

    The oracle replays the detections merge_boxes kept. Each dropped one
    must have probability 0 and overlap every same-class cluster box by
    less than the threshold. Returns the dropped detections.
    """
    got = merge_boxes_with_members(dets, iou_threshold)
    kept_ids = {id(m) for cluster, _ in got for m in cluster.members}
    kept = [d for d in dets if id(d) in kept_ids]
    lost = [d for d in dets if id(d) not in kept_ids]
    for d in lost:
        assert d.prob == 0.0
        for _, s in got:
            if s.class_id == d.class_id:
                assert iou_ref(s.box.as_tuple(), d.box.as_tuple()) < iou_threshold
    index_of = {id(d): i for i, d in enumerate(kept)}
    got_norm = [
        (
            tuple(index_of[id(m)] for m in cluster.members),
            s.box.as_tuple(),
            s.prob,
            s.class_id,
            s.support,
        )
        for cluster, s in got
    ]
    expected = replay_merge(
        [(d.box.as_tuple(), d.class_id, d.prob, d.model_id) for d in kept],
        iou_threshold,
    )
    expected_norm = [
        (members, summary[0], summary[1], summary[2], summary[3])
        for members, summary in expected
    ]
    assert got_norm == expected_norm
    return lost
