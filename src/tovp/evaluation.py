"""Moving-object segmentation metrics.

Counts pool globally over all scans before any ratio is formed.  Points
whose ground truth is UNKNOWN_MOTION never enter any metric; ego-vehicle
points are dropped only by the ego-excluding IoU variant.  The object
recall averages per scan and per instance, so the same track seen in ten
scans contributes ten terms.
"""

from dataclasses import dataclass, field

import numpy as np

from ._boxes import points_in_box
from .labeling import MotionClass


@dataclass(frozen=True)
class EvalBox:
    """A ground-truth moving object's box in one scan's frame."""

    instance_id: str
    center: np.ndarray
    size: np.ndarray
    yaw: float


@dataclass(frozen=True)
class ScanEvalInput:
    """One scan's worth of evaluation data, all aligned to the same points."""

    points: np.ndarray
    predicted_moving: np.ndarray
    gt_labels: np.ndarray
    ego_mask: np.ndarray = None
    moving_boxes: tuple = ()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        pred = np.asarray(self.predicted_moving).astype(bool).reshape(-1)
        gt = np.asarray(self.gt_labels, dtype=np.uint8).reshape(-1)
        ego = self.ego_mask
        # no mask: a read-only all-False view, which holds no per-point bytes
        ego = np.broadcast_to(np.False_, (len(pts),)) if ego is None \
            else np.asarray(ego).astype(bool).reshape(-1)
        if not (len(pred) == len(gt) == len(ego) == len(pts)):
            raise ValueError("per-point arrays disagree on length")
        if np.any(gt > MotionClass.UNKNOWN_MOTION):
            raise ValueError("gt_labels must be MotionClass values")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "predicted_moving", pred)
        object.__setattr__(self, "gt_labels", gt)
        object.__setattr__(self, "ego_mask", ego)
        object.__setattr__(self, "moving_boxes", tuple(self.moving_boxes))


@dataclass
class EvalReport:
    recall_obj: float
    iou_excluding_ego: float
    iou_conventional: float
    per_object: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "recall_obj": self.recall_obj,
            "iou_excluding_ego": self.iou_excluding_ego,
            "iou_conventional": self.iou_conventional,
            "per_object": self.per_object,
            "counts": self.counts,
            "flags": self.flags,
        }


def _safe_iou(tp: int, fp: int, fn: int):
    denom = tp + fp + fn
    if denom == 0:
        return 0.0, True
    return 100.0 * tp / denom, False


def evaluate(inputs) -> EvalReport:
    """Compute all metrics over a sequence of ScanEvalInput."""
    tp_c = fp_c = fn_c = 0
    tp_e = fp_e = fn_e = 0
    per_object = []

    for scan_idx, scan in enumerate(inputs):
        valid = scan.gt_labels != MotionClass.UNKNOWN_MOTION
        gt_moving = scan.gt_labels == MotionClass.MOVING
        pred = scan.predicted_moving

        for mask, sums in (
            (valid, "conv"),
            (valid & ~scan.ego_mask, "ego"),
        ):
            tp = int(np.sum(mask & pred & gt_moving))
            fp = int(np.sum(mask & pred & ~gt_moving))
            fn = int(np.sum(mask & ~pred & gt_moving))
            if sums == "conv":
                tp_c, fp_c, fn_c = tp_c + tp, fp_c + fp, fn_c + fn
            else:
                tp_e, fp_e, fn_e = tp_e + tp, fp_e + fp, fn_e + fn

        for box in scan.moving_boxes:
            inside = points_in_box(scan.points, box.center, box.size, box.yaw)
            gt_in = inside & gt_moving
            n = int(np.sum(gt_in))
            if n == 0:
                continue  # nothing observable on this object in this scan
            tp_i = int(np.sum(gt_in & pred))
            per_object.append({
                "scan": scan_idx,
                "instance_id": box.instance_id,
                "gt_points": n,
                "tp": tp_i,
                "recall": 100.0 * tp_i / n,
            })

    flags = []
    if per_object:
        recall = float(np.mean([o["recall"] for o in per_object]))
    else:
        recall = 0.0
        flags.append("no_eligible_objects")

    iou_ego, empty_e = _safe_iou(tp_e, fp_e, fn_e)
    iou_conv, empty_c = _safe_iou(tp_c, fp_c, fn_c)
    if empty_e:
        flags.append("empty_denominator_iou_excluding_ego")
    if empty_c:
        flags.append("empty_denominator_iou_conventional")

    return EvalReport(
        recall_obj=recall,
        iou_excluding_ego=iou_ego,
        iou_conventional=iou_conv,
        per_object=per_object,
        counts={
            "excluding_ego": {"tp": tp_e, "fp": fp_e, "fn": fn_e},
            "conventional": {"tp": tp_c, "fp": fp_c, "fn": fn_c},
        },
        flags=flags,
    )


def recall_obj(inputs) -> float:
    """Mean per-scan per-object recall of moving points, in percent."""
    return evaluate(inputs).recall_obj


def iou_excluding_ego(inputs) -> float:
    """Moving-class IoU in percent with ego-vehicle points removed."""
    return evaluate(inputs).iou_excluding_ego


def iou_conventional(inputs) -> float:
    """Moving-class IoU in percent over all non-UNKNOWN points."""
    return evaluate(inputs).iou_conventional


@dataclass(frozen=True)
class SizeCdf:
    """Distribution of points over objects, smallest objects first."""

    counts: np.ndarray
    object_fraction: np.ndarray
    point_fraction: np.ndarray

    def point_share(self, object_percentile: float) -> float:
        """Percent of all points held by the smallest ``object_percentile``
        percent of objects."""
        if not 0.0 <= object_percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        k = int(object_percentile / 100.0 * len(self.counts))
        if k == 0:
            return 0.0
        return 100.0 * float(self.point_fraction[k - 1])


def object_size_cdf(point_counts) -> SizeCdf:
    """Cumulative size curve from per-object point counts."""
    counts = np.sort(np.asarray(point_counts, dtype=np.int64))
    if counts.size == 0:
        raise ValueError("no objects")
    if np.any(counts < 0):
        raise ValueError("point counts must be >= 0")
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no points across all objects")
    n = len(counts)
    return SizeCdf(
        counts=counts,
        object_fraction=np.arange(1, n + 1) / n,
        point_fraction=np.cumsum(counts) / total,
    )
