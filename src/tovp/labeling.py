"""Motion state labels for scan points, derived from tracked boxes.

A track is a box trajectory over keyframes.  Speed at a keyframe comes
from finite differences of the centers; a per-category threshold pair
turns speed into STATIC / MOVING / UNKNOWN_MOTION, and points inherit the
class of the boxes that contain them.
"""

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from ._boxes import points_in_box
from .errors import SingleKeyframe
from .sensor_model import Scan


class MotionClass(IntEnum):
    STATIC = 0
    MOVING = 1
    UNKNOWN_MOTION = 2


CATEGORIES = ("HUMAN", "CYCLE", "VEHICLE")

# A box is in a scan when one of its keyframes lies within this many
# seconds of the scan time. [s]
TIME_TOL = 1e-3

# when several boxes claim a point, the more alarming class wins
_PRECEDENCE = {
    MotionClass.STATIC: 0,
    MotionClass.UNKNOWN_MOTION: 1,
    MotionClass.MOVING: 2,
}
_BY_PRECEDENCE = np.array(
    [MotionClass.STATIC, MotionClass.UNKNOWN_MOTION, MotionClass.MOVING],
    dtype=np.uint8,
)


def _default_thresholds() -> dict:
    return {
        "HUMAN": (0.375, 0.6),
        "CYCLE": (0.375, 1.0),
        "VEHICLE": (0.5, 1.0),
    }


@dataclass(frozen=True)
class ThresholdTable:
    """Per-category speed cuts in m/s: (static below, moving above), one
    pair for each of CATEGORIES.

    Both comparisons are strict, so a speed sitting exactly on either cut
    classifies as UNKNOWN_MOTION.
    """

    speeds: dict = field(default_factory=_default_thresholds)

    def __post_init__(self):
        for category, (static_max, moving_min) in self.speeds.items():
            if category not in CATEGORIES:
                raise ValueError(f"{category}: not a category; the categories are {', '.join(CATEGORIES)}")
            if not 0.0 < static_max <= moving_min:
                raise ValueError(
                    f"{category}: need 0 < static_max <= moving_min, "
                    f"got ({static_max}, {moving_min})"
                )
        for category in CATEGORIES:
            if category not in self.speeds:
                raise ValueError(f"{category}: no thresholds given; every category needs a pair")

    def for_category(self, category: str) -> tuple:
        if category not in self.speeds:
            raise ValueError(f"no thresholds for category {category!r}")
        return self.speeds[category]


@dataclass(frozen=True)
class TrackedBox:
    """One object's box trajectory over strictly increasing keyframe times."""

    instance_id: str
    category: str
    centers: np.ndarray
    sizes: np.ndarray
    yaws: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float).reshape(-1, 3)
        sizes = np.asarray(self.sizes, dtype=float).reshape(-1, 3)
        yaws = np.asarray(self.yaws, dtype=float).reshape(-1)
        times = np.asarray(self.timestamps, dtype=float).reshape(-1)
        k = len(times)
        if k == 0:
            raise ValueError("a track needs at least one keyframe")
        if not (len(centers) == len(sizes) == len(yaws) == k):
            raise ValueError("keyframe arrays disagree on length")
        if np.any(sizes <= 0.0):
            raise ValueError("box sizes must be > 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("keyframe timestamps must be strictly increasing")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        for name, arr in (("centers", centers), ("sizes", sizes),
                          ("yaws", yaws), ("timestamps", times)):
            object.__setattr__(self, name, arr)

    @property
    def n_keyframes(self) -> int:
        return len(self.timestamps)

    def keyframe_at(self, time: float, tol: float = TIME_TOL):
        """Index of the keyframe at ``time``, or None if no timestamp is
        within ``tol``."""
        k = int(np.argmin(np.abs(self.timestamps - time)))
        return k if abs(self.timestamps[k] - time) <= tol else None


def object_speed(box: TrackedBox, keyframe: int) -> float:
    """Finite-difference speed of the box center at one keyframe.

    Central difference on interior keyframes, one-sided at the ends.
    """
    k = box.n_keyframes
    if not 0 <= keyframe < k:
        raise IndexError(f"keyframe {keyframe} out of range for {k} keyframes")
    if k == 1:
        raise SingleKeyframe(f"track {box.instance_id!r} has one keyframe")
    lo = max(keyframe - 1, 0)
    hi = min(keyframe + 1, k - 1)
    dt = box.timestamps[hi] - box.timestamps[lo]
    return float(np.linalg.norm(box.centers[hi] - box.centers[lo]) / dt)


def classify_motion(
    speed: float, category: str, table: ThresholdTable = ThresholdTable()
) -> MotionClass:
    if speed < 0.0:
        raise ValueError(f"speed must be >= 0: {speed}")
    static_max, moving_min = table.for_category(category)
    if speed < static_max:
        return MotionClass.STATIC
    if speed > moving_min:
        return MotionClass.MOVING
    return MotionClass.UNKNOWN_MOTION


def box_motion_class(
    box: TrackedBox, keyframe: int, table: ThresholdTable = ThresholdTable()
) -> MotionClass:
    """Motion class of a box at a keyframe; single-keyframe tracks are
    unknowable rather than an error."""
    try:
        speed = object_speed(box, keyframe)
    except SingleKeyframe:
        return MotionClass.UNKNOWN_MOTION
    return classify_motion(speed, box.category, table)


def keyframes_at(tracks, time: float, tol: float):
    """(track, keyframe index) of each track with a keyframe within ``tol``
    of ``time``, in track order."""
    for track in tracks:
        k = track.keyframe_at(time, tol)
        if k is not None:
            yield track, k


def label_points(
    scan: Scan,
    boxes,
    table: ThresholdTable = ThresholdTable(),
    time_tol: float = TIME_TOL,
    margin: float = 0.0,
) -> np.ndarray:
    """Per-point motion labels (uint8 MotionClass values) for one scan.

    A point inside a box at the scan time inherits the box's class; where
    boxes overlap, MOVING beats UNKNOWN_MOTION beats STATIC.  Points in no
    box, and boxes with no keyframe within ``time_tol`` of the scan time,
    default to STATIC background.  A point on a box face may test outside
    the box through rounding (see ``points_in_box``); ``margin`` grows
    every face.
    """
    rank = np.zeros(len(scan), dtype=np.uint8)
    for box, k in keyframes_at(boxes, scan.time, time_tol):
        cls = box_motion_class(box, k, table)
        inside = points_in_box(scan.points, box.centers[k], box.sizes[k],
                               box.yaws[k], margin)
        rank[inside] = np.maximum(rank[inside], _PRECEDENCE[cls])
    return _BY_PRECEDENCE[rank]
