"""Segmentation metric hand cases and pooling semantics."""

from dataclasses import asdict

import numpy as np
import pytest

from tovp.evaluation import EvalBox, ScanEvalInput, evaluate, object_size_cdf
from tovp.labeling import MotionClass

S, M, U = MotionClass.STATIC, MotionClass.MOVING, MotionClass.UNKNOWN_MOTION


def cluster(center, n):
    offsets = np.linspace(-0.4, 0.4, n)
    pts = np.tile(np.asarray(center, dtype=float), (n, 1))
    pts[:, 0] += offsets
    return pts


def scan_from_rows(rows, boxes=()):
    """rows: (point, pred, gt, ego) tuples."""
    pts = np.array([r[0] for r in rows], dtype=float)
    pred = np.array([r[1] for r in rows], dtype=bool)
    gt = np.array([r[2] for r in rows], dtype=np.uint8)
    ego = np.array([r[3] for r in rows], dtype=bool)
    return ScanEvalInput(points=pts, predicted_moving=pred, gt_labels=gt,
                         ego_mask=ego, moving_boxes=boxes)


class TestRecallObj:
    def test_two_objects_hand_value(self):
        box_a = EvalBox("a", np.zeros(3), np.array([2.0, 2.0, 2.0]), 0.0)
        box_b = EvalBox("b", np.array([10.0, 0.0, 0.0]), np.array([2.0, 2.0, 2.0]), 0.0)
        pts = np.vstack([cluster([0, 0, 0], 4), cluster([10, 0, 0], 4)])
        pred = np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=bool)
        gt = np.full(8, M, dtype=np.uint8)
        scan = ScanEvalInput(points=pts, predicted_moving=pred, gt_labels=gt,
                             moving_boxes=(box_a, box_b))
        assert evaluate([scan]).recall_obj == pytest.approx(62.5)

    def test_object_without_gt_moving_points_skipped(self):
        seen = EvalBox("seen", np.zeros(3), np.array([2.0, 2.0, 2.0]), 0.0)
        empty = EvalBox("empty", np.array([50.0, 0, 0]), np.array([2.0, 2.0, 2.0]), 0.0)
        pts = cluster([0, 0, 0], 4)
        scan = ScanEvalInput(points=pts, predicted_moving=np.ones(4, bool),
                             gt_labels=np.full(4, M, np.uint8),
                             moving_boxes=(seen, empty))
        report = evaluate([scan])
        assert report.recall_obj == pytest.approx(100.0)
        assert len(report.per_object) == 1
        assert report.per_object[0]["instance_id"] == "seen"

    def test_gt_unknown_points_not_in_denominator(self):
        box = EvalBox("a", np.zeros(3), np.array([2.0, 2.0, 2.0]), 0.0)
        pts = cluster([0, 0, 0], 4)
        gt = np.array([M, M, U, U], dtype=np.uint8)
        pred = np.array([1, 0, 0, 0], dtype=bool)
        scan = ScanEvalInput(points=pts, predicted_moving=pred, gt_labels=gt,
                             moving_boxes=(box,))
        assert evaluate([scan]).recall_obj == pytest.approx(50.0)

    def test_same_instance_counts_once_per_scan(self):
        box = EvalBox("veh", np.zeros(3), np.array([2.0, 2.0, 2.0]), 0.0)
        pts = cluster([0, 0, 0], 2)
        gt = np.full(2, M, np.uint8)
        hit = ScanEvalInput(points=pts, predicted_moving=np.array([1, 1], bool),
                            gt_labels=gt, moving_boxes=(box,))
        miss = ScanEvalInput(points=pts, predicted_moving=np.array([0, 0], bool),
                             gt_labels=gt, moving_boxes=(box,))
        report = evaluate([hit, miss])
        assert len(report.per_object) == 2
        assert report.recall_obj == pytest.approx(50.0)

    def test_no_eligible_objects_flagged(self):
        scan = ScanEvalInput(points=cluster([0, 0, 0], 3),
                             predicted_moving=np.zeros(3, bool),
                             gt_labels=np.full(3, S, np.uint8))
        report = evaluate([scan])
        assert report.recall_obj == 0.0
        assert "no_eligible_objects" in report.flags


class TestIoU:
    def rows_with_counts(self, tp, fp, fn, tn=0, ego_tp=0):
        rows = []
        for i in range(tp):
            rows.append(([i, 0, 0], 1, M, i < ego_tp))
        for i in range(fp):
            rows.append(([i, 5, 0], 1, S, 0))
        for i in range(fn):
            rows.append(([i, 10, 0], 0, M, 0))
        for i in range(tn):
            rows.append(([i, 15, 0], 0, S, 0))
        return rows

    def test_one_third_hand_value(self):
        scan = scan_from_rows(self.rows_with_counts(tp=5, fp=5, fn=5))
        report = evaluate([scan])
        assert report.iou_conventional == pytest.approx(100.0 / 3.0)
        assert report.iou_excluding_ego == pytest.approx(100.0 / 3.0)

    def test_high_tp_hand_value(self):
        scan = scan_from_rows(self.rows_with_counts(tp=105, fp=5, fn=5))
        iou = evaluate([scan]).iou_conventional
        assert iou == pytest.approx(10500.0 / 115.0)
        assert iou == pytest.approx(91.30434782608695)

    def test_ego_only_correct_predictions_score_zero(self):
        scan = scan_from_rows(self.rows_with_counts(tp=3, fp=0, fn=2, ego_tp=3))
        report = evaluate([scan])
        assert report.iou_conventional == pytest.approx(60.0)
        assert report.iou_excluding_ego == 0.0

    def test_no_ego_points_makes_variants_equal(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 3))
        scan = ScanEvalInput(points=pts,
                             predicted_moving=rng.integers(0, 2, 200).astype(bool),
                             gt_labels=rng.integers(0, 3, 200).astype(np.uint8))
        report = evaluate([scan])
        assert report.iou_excluding_ego == report.iou_conventional

    def test_omitted_ego_mask_holds_no_per_point_bytes(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        pred = rng.integers(0, 2, 200).astype(bool)
        gt = rng.integers(0, 3, 200).astype(np.uint8)
        scan = ScanEvalInput(points=pts, predicted_moving=pred, gt_labels=gt)
        assert scan.ego_mask.shape == (200,) and scan.ego_mask.strides == (0,)
        assert not scan.ego_mask.any()
        explicit = ScanEvalInput(points=pts, predicted_moving=pred, gt_labels=gt,
                                 ego_mask=np.zeros(200, dtype=bool))
        assert asdict(evaluate([scan])) == asdict(evaluate([explicit]))

    def test_unknown_gt_never_counts(self):
        base = scan_from_rows(self.rows_with_counts(tp=5, fp=5, fn=5))
        noisy_rows = self.rows_with_counts(tp=5, fp=5, fn=5)
        for i in range(40):  # predicted moving over GT unknown: not a FP
            noisy_rows.append(([i, 20, 0], 1, U, 0))
        noisy = scan_from_rows(noisy_rows)
        noisy_report, base_report = evaluate([noisy]), evaluate([base])
        assert noisy_report.iou_conventional == base_report.iou_conventional
        assert noisy_report.iou_excluding_ego == base_report.iou_excluding_ego

    def test_counts_pool_before_ratio(self):
        scan1 = scan_from_rows(self.rows_with_counts(tp=1, fp=0, fn=1))
        scan2 = scan_from_rows(self.rows_with_counts(tp=3, fp=0, fn=0))
        # pooled 4/5, not mean(1/2, 1)
        assert evaluate([scan1, scan2]).iou_conventional == pytest.approx(80.0)

    def test_empty_denominator_flagged(self):
        scan = scan_from_rows(self.rows_with_counts(tp=0, fp=0, fn=0, tn=10))
        report = evaluate([scan])
        assert report.iou_conventional == 0.0
        assert "empty_denominator_iou_conventional" in report.flags
        assert "empty_denominator_iou_excluding_ego" in report.flags

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        scans = []
        for _ in range(4):
            n = rng.integers(50, 150)
            scans.append(ScanEvalInput(
                points=rng.normal(size=(n, 3)),
                predicted_moving=rng.integers(0, 2, n).astype(bool),
                gt_labels=rng.integers(0, 3, n).astype(np.uint8),
                ego_mask=rng.integers(0, 2, n).astype(bool)))
        tp = fp = fn = 0
        for s in scans:
            for p, g, e in zip(s.predicted_moving, s.gt_labels, s.ego_mask):
                if g == U or e:
                    continue
                if p and g == M:
                    tp += 1
                elif p and g == S:
                    fp += 1
                elif not p and g == M:
                    fn += 1
        assert evaluate(scans).iou_excluding_ego == pytest.approx(100.0 * tp / (tp + fp + fn))

    def test_report_counts_and_dict(self):
        scan = scan_from_rows(self.rows_with_counts(tp=2, fp=1, fn=1, ego_tp=1))
        report = evaluate([scan])
        assert report.counts["conventional"] == {"tp": 2, "fp": 1, "fn": 1}
        assert report.counts["excluding_ego"] == {"tp": 1, "fp": 1, "fn": 1}
        d = asdict(report)
        assert set(d) == {"recall_obj", "iou_excluding_ego", "iou_conventional",
                          "per_object", "counts", "flags"}


class TestInputValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ScanEvalInput(points=np.zeros((3, 3)),
                          predicted_moving=np.zeros(2, bool),
                          gt_labels=np.zeros(3, np.uint8))

    def test_bad_gt_values(self):
        with pytest.raises(ValueError):
            ScanEvalInput(points=np.zeros((1, 3)),
                          predicted_moving=np.zeros(1, bool),
                          gt_labels=np.array([7], np.uint8))


class TestSizeCdf:
    def test_head_heavy_hand_value(self):
        cdf = object_size_cdf([1, 1, 1, 97])
        assert cdf.point_share(75.0) == pytest.approx(3.0)
        assert cdf.point_share(100.0) == pytest.approx(100.0)
        assert cdf.point_share(0.0) == 0.0

    def test_equal_sizes_track_identity_line(self):
        cdf = object_size_cdf([10, 10, 10, 10])
        assert cdf.point_share(25.0) == pytest.approx(25.0)
        assert cdf.point_share(75.0) == pytest.approx(75.0)

    def test_single_object_degenerate_step(self):
        cdf = object_size_cdf([42])
        assert cdf.point_share(99.0) == 0.0
        assert cdf.point_share(100.0) == pytest.approx(100.0)

    def test_curve_arrays(self):
        cdf = object_size_cdf([97, 1, 1, 1])  # sorting is the function's job
        np.testing.assert_array_equal(cdf.counts, [1, 1, 1, 97])
        np.testing.assert_allclose(cdf.object_fraction, [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(cdf.point_fraction, [0.01, 0.02, 0.03, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            object_size_cdf([])
        with pytest.raises(ValueError):
            object_size_cdf([0, 0])
        with pytest.raises(ValueError):
            object_size_cdf([5, -1])
        with pytest.raises(ValueError):
            object_size_cdf([5]).point_share(101.0)
