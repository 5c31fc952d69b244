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


def _tp_fp_fn(mask, pred, gt_moving) -> np.ndarray:
    """Moving-class tp, fp and fn over the points in ``mask``."""
    return np.array([np.count_nonzero(mask & pred & gt_moving),
                     np.count_nonzero(mask & pred & ~gt_moving),
                     np.count_nonzero(mask & ~pred & gt_moving)])


def evaluate(inputs) -> EvalReport:
    """Compute all metrics over a sequence of ScanEvalInput."""
    # keyed by IoU name; the conventional IoU keeps ego-vehicle points
    totals = {"excluding_ego": np.zeros(3, dtype=np.int64),
              "conventional": np.zeros(3, dtype=np.int64)}
    per_object = []

    for scan_idx, scan in enumerate(inputs):
        valid = scan.gt_labels != MotionClass.UNKNOWN_MOTION
        gt_moving = scan.gt_labels == MotionClass.MOVING
        pred = scan.predicted_moving
        totals["excluding_ego"] += _tp_fp_fn(valid & ~scan.ego_mask, pred, gt_moving)
        totals["conventional"] += _tp_fp_fn(valid, pred, gt_moving)

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

    counts = {name: dict(zip(("tp", "fp", "fn"), t.tolist())) for name, t in totals.items()}
    iou = {}
    for name, c in counts.items():
        denom = c["tp"] + c["fp"] + c["fn"]
        iou[name] = 100.0 * c["tp"] / denom if denom else 0.0
        if not denom:
            flags.append(f"empty_denominator_iou_{name}")

    return EvalReport(
        recall_obj=recall,
        iou_excluding_ego=iou["excluding_ego"],
        iou_conventional=iou["conventional"],
        per_object=per_object,
        counts=counts,
        flags=flags,
    )


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
