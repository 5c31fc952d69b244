"""Track speeds, threshold classification, and point labeling."""

import numpy as np
import pytest

from tovp.errors import SingleKeyframe
from tovp.labeling import (
    TIME_TOL,
    MotionClass,
    ThresholdTable,
    TrackedBox,
    box_motion_class,
    classify_motion,
    keyframes_at,
    label_points,
    object_speed,
)
from tovp.sensor_model import Scan


def straight_track(speed, n=3, category="VEHICLE", start=(0.0, 0.0, 0.0)):
    t = np.arange(n, dtype=float)
    c = np.asarray(start) + np.outer(t * speed, [1.0, 0.0, 0.0])
    return TrackedBox(
        instance_id="obj", category=category, centers=c,
        sizes=np.tile([4.0, 2.0, 1.5], (n, 1)), yaws=np.zeros(n), timestamps=t,
    )


class TestObjectSpeed:
    def test_constant_velocity_everywhere(self):
        box = straight_track(2.0)
        assert object_speed(box, 0) == pytest.approx(2.0)
        assert object_speed(box, 1) == pytest.approx(2.0)
        assert object_speed(box, 2) == pytest.approx(2.0)

    def test_central_difference_smooths_a_stop(self):
        box = TrackedBox(
            instance_id="a", category="VEHICLE",
            centers=[[0, 0, 0], [2, 0, 0], [2, 0, 0]],
            sizes=np.tile([4, 2, 1.5], (3, 1)), yaws=np.zeros(3),
            timestamps=[0.0, 1.0, 2.0],
        )
        assert object_speed(box, 0) == pytest.approx(2.0)
        assert object_speed(box, 1) == pytest.approx(1.0)
        assert object_speed(box, 2) == pytest.approx(0.0)

    def test_irregular_timestamps(self):
        box = TrackedBox(
            instance_id="a", category="HUMAN",
            centers=[[0, 0, 0], [1, 0, 0], [1, 3, 0]],
            sizes=np.tile([0.6, 0.6, 1.8], (3, 1)), yaws=np.zeros(3),
            timestamps=[0.0, 0.5, 2.5],
        )
        # central: ||(1,3,0) - (0,0,0)|| / 2.5
        assert object_speed(box, 1) == pytest.approx(np.sqrt(10.0) / 2.5)

    def test_single_keyframe_raises(self):
        box = TrackedBox("a", "HUMAN", [[0, 0, 0]], [[0.6, 0.6, 1.8]], [0.0], [0.0])
        with pytest.raises(SingleKeyframe):
            object_speed(box, 0)

    def test_keyframe_out_of_range(self):
        with pytest.raises(IndexError):
            object_speed(straight_track(1.0), 3)


class TestClassifyMotion:
    @pytest.mark.parametrize("category,speed,expected", [
        ("HUMAN", 0.3, MotionClass.STATIC),
        ("VEHICLE", 0.7, MotionClass.UNKNOWN_MOTION),
        ("CYCLE", 1.5, MotionClass.MOVING),
    ])
    def test_hand_examples(self, category, speed, expected):
        assert classify_motion(speed, category) == expected

    @pytest.mark.parametrize("category,boundary", [
        ("HUMAN", 0.375), ("HUMAN", 0.6),
        ("CYCLE", 0.375), ("CYCLE", 1.0),
        ("VEHICLE", 0.5), ("VEHICLE", 1.0),
    ])
    def test_boundaries_are_unknown(self, category, boundary):
        # strict comparisons: sitting exactly on a cut never commits
        assert classify_motion(boundary, category) == MotionClass.UNKNOWN_MOTION

    @pytest.mark.parametrize("category", ["HUMAN", "CYCLE", "VEHICLE"])
    def test_rank_monotone_in_speed(self, category):
        order = {MotionClass.STATIC: 0, MotionClass.UNKNOWN_MOTION: 1,
                 MotionClass.MOVING: 2}
        speeds = np.linspace(0.0, 3.0, 601)
        ranks = [order[classify_motion(s, category)] for s in speeds]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_unknown_category_and_negative_speed(self):
        with pytest.raises(ValueError):
            classify_motion(1.0, "DOG")
        with pytest.raises(ValueError):
            classify_motion(-0.1, "HUMAN")

    def test_custom_table(self):
        speeds = {"HUMAN": (0.375, 0.6), "CYCLE": (0.375, 1.0), "VEHICLE": (2.0, 3.0)}
        table = ThresholdTable(speeds)
        assert classify_motion(1.0, "VEHICLE", table) == MotionClass.STATIC
        with pytest.raises(ValueError):
            ThresholdTable({**speeds, "VEHICLE": (0.0, 1.0)})
        with pytest.raises(ValueError):
            ThresholdTable({**speeds, "VEHICLE": (2.0, 1.0)})


class TestTrackedBoxValidation:
    def test_timestamps_strictly_increasing(self):
        with pytest.raises(ValueError):
            straight_track(1.0).__class__(
                "a", "HUMAN", [[0, 0, 0], [1, 0, 0]],
                [[1, 1, 1], [1, 1, 1]], [0, 0], [1.0, 1.0])

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            TrackedBox("a", "HUMAN", [[0, 0, 0]], [[1, 0, 1]], [0.0], [0.0])

    def test_category_checked(self):
        with pytest.raises(ValueError):
            TrackedBox("a", "TREE", [[0, 0, 0]], [[1, 1, 1]], [0.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TrackedBox("a", "HUMAN", [[0, 0, 0], [1, 0, 0]],
                       [[1, 1, 1]], [0.0], [0.0, 1.0])

    def test_keyframe_lookup(self):
        box = straight_track(1.0)
        assert box.keyframe_at(1.0) == 1
        assert box.keyframe_at(1.0 + 5e-7) == 1
        assert box.keyframe_at(1.4) is None

    def test_keyframes_at_keeps_tracks_keyed_within_tol_in_order(self):
        a, b = straight_track(1.0), straight_track(2.0, start=(0.0, 5.0, 0.0))
        late = TrackedBox("late", "VEHICLE", [[0, 0, 0]], [[1, 1, 1]], [0.0], [1.0 + 2e-3])
        assert list(keyframes_at([late, b, a], 1.0 + 5e-4, TIME_TOL)) == [(b, 1), (a, 1)]
        assert list(keyframes_at([a, b], 0.5, TIME_TOL)) == []
        assert list(keyframes_at([late], 1.0, 0.0)) == []


class TestLabelPoints:
    def test_points_inherit_box_class(self):
        box = straight_track(2.0)  # VEHICLE moving at keyframe 1 (t=1)
        pts = np.array([
            [2.0, 0.0, 0.0],   # box center at t=1
            [3.9, 0.9, 0.7],   # corner region, inside
            [9.0, 0.0, 0.0],   # outside
        ])
        labels = label_points(Scan(points=pts, time=1.0), [box])
        assert labels.tolist() == [MotionClass.MOVING, MotionClass.MOVING,
                                   MotionClass.STATIC]

    def test_no_boxes_is_all_static(self):
        scan = Scan(points=np.random.default_rng(0).normal(size=(50, 3)))
        assert np.all(label_points(scan, []) == MotionClass.STATIC)

    def test_single_keyframe_track_labels_unknown(self):
        box = TrackedBox("a", "VEHICLE", [[0, 0, 0]], [[4, 2, 2]], [0.0], [0.0])
        labels = label_points(Scan(points=np.zeros((1, 3)), time=0.0), [box])
        assert labels[0] == MotionClass.UNKNOWN_MOTION

    def test_overlapping_boxes_priority(self):
        moving = straight_track(2.0)  # center (2,0,0) at t=1, class MOVING
        static = straight_track(0.0)
        unknown = TrackedBox("u", "VEHICLE", [[2, 0, 0]], [[4, 2, 2]], [0.0], [1.0])
        pt = Scan(points=np.array([[2.0, 0.0, 0.0]]), time=1.0)
        assert label_points(pt, [static, unknown])[0] == MotionClass.UNKNOWN_MOTION
        assert label_points(pt, [static, unknown, moving])[0] == MotionClass.MOVING
        assert label_points(pt, [moving, static])[0] == MotionClass.MOVING

    def test_default_time_tol_is_a_millisecond(self):
        # the library default was 1e-6 s, a thousandth of the command line's
        box = straight_track(2.0)
        pts = np.array([[2.0, 0.0, 0.0]])
        assert TIME_TOL == 1e-3
        assert label_points(Scan(points=pts, time=1.0 + 5e-4), [box])[0] == MotionClass.MOVING
        assert label_points(Scan(points=pts, time=1.0 + 2e-3), [box])[0] == MotionClass.STATIC
        assert box.keyframe_at(1.0 - 5e-4) == 1

    def test_box_absent_at_scan_time_ignored(self):
        box = straight_track(5.0)  # keyframes at t = 0, 1, 2
        scan = Scan(points=np.array([[0.0, 0.0, 0.0]]), time=0.5)
        assert label_points(scan, [box])[0] == MotionClass.STATIC

    def test_yawed_box_containment(self):
        box = TrackedBox(
            "a", "VEHICLE", centers=[[0, 0, 0], [0, 0, 0]],
            sizes=[[8, 2, 2], [8, 2, 2]], yaws=[np.pi / 2, np.pi / 2],
            timestamps=[0.0, 1.0])
        pts = np.array([[0.0, 3.0, 0.0], [3.0, 0.0, 0.0]])
        labels = label_points(Scan(points=pts, time=0.0), [box])
        # long axis now points along y
        assert labels[0] == MotionClass.STATIC  # inside, static box
        assert labels[1] == MotionClass.STATIC  # outside -> background
        inside = label_points(Scan(points=pts, time=0.0), [box], margin=0.0)
        assert inside.tolist() == [0, 0]

    def test_margin_grows_the_box(self):
        box = straight_track(0.0, category="HUMAN")
        probe = Scan(points=np.array([[0.45, 0.0, 0.0]]), time=0.0)
        # human box is 0.6 wide in x... use vehicle sizes from factory (4 long)
        far = Scan(points=np.array([[2.2, 0.0, 0.0]]), time=0.0)
        assert label_points(far, [box])[0] == MotionClass.STATIC
        labels = label_points(far, [box], margin=0.3)
        assert labels[0] == MotionClass.STATIC  # static box, still static class
        moving = straight_track(5.0)
        far1 = Scan(points=np.array([[7.2, 0.0, 0.0]]), time=1.0)
        assert label_points(far1, [moving])[0] == MotionClass.STATIC
        assert label_points(far1, [moving], margin=1.3)[0] == MotionClass.MOVING

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, size=(400, 3))
        box = straight_track(3.0)
        base = label_points(Scan(points=pts, time=1.0), [box])

        angle = 0.7
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        shift = np.array([5.0, -2.0, 0.75])
        moved = TrackedBox(
            box.instance_id, box.category,
            centers=box.centers @ rot.T + shift, sizes=box.sizes,
            yaws=box.yaws + angle, timestamps=box.timestamps)
        transformed = label_points(Scan(points=pts @ rot.T + shift, time=1.0),
                                   [moved])
        assert np.array_equal(base, transformed)

    def test_empty_scan(self):
        scan = Scan(points=np.empty((0, 3)))
        assert label_points(scan, [straight_track(1.0)]).shape == (0,)
