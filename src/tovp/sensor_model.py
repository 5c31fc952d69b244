"""Sensor-level model: beams, scans, poses, and the occupancy measurement rule.

A beam is the half-line from a sensor origin through a measured point.  The
occupancy rule turns a signed range along a beam plus the beam's reported
range into a confidence in (0, 1] and one of three states:

* FREE      before the reported range,
* OCCUPIED  from the reported range up to the decay band end,
* UNKNOWN   beyond the band.

The band ends where confidence exp(-rate * (range - reported)) falls below
the occupied threshold, i.e. at reported - ln(threshold) / rate.
"""

from dataclasses import dataclass, field
from enum import IntEnum
import math

import numpy as np

from .errors import NonPositiveReportedRange, ZeroRange

# Points closer to an origin than this form no usable beam. [m]
MIN_BEAM_RANGE = 1e-6

# Largest deviation |R^T R - I| of a rotation matrix accepted as orthonormal;
# pose readers repair rotations off by more than this so that it holds.
ORTHONORMAL_TOL = 1e-6

# The default crop box (x0, x1, y0, y1, z0, z1) of overlap positions in the
# current scan's frame. [m]
DEFAULT_BOUNDS = (-70.0, 70.0, -70.0, 70.0, -4.5, 4.5)

# Recon seeds are the first key word, kept to the non-negative int64 range:
# there every seed has its own stream, equal to numpy's Philox(key=[seed,
# beam]), which sends larger seeds through float64 and makes them collide.
SEED_LIMIT = 2**63


class OccupancyState(IntEnum):
    """Measurement outcome for a point along a beam.

    Integer values double as the on-disk u8 encoding and as the column of
    the state's probability in the losses' (M, 3) predictions.
    """

    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


class RecordSet:
    """A structured array ``records`` of the subclass's ``record_dtype``,
    with a ``state`` field; records are read through its fields."""

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def empty(cls):
        return cls(np.empty(0, dtype=cls.record_dtype))


@dataclass(frozen=True)
class SensorConfig:
    """Per-sensor constants of the occupancy model."""

    divergence_angle_rad: float = 0.003
    occupied_confidence_threshold: float = 0.9
    decay_rate_per_meter: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.divergence_angle_rad < 0.1:
            raise ValueError(f"divergence_angle_rad out of (0, 0.1): {self.divergence_angle_rad}")
        if not 0.0 < self.occupied_confidence_threshold < 1.0:
            raise ValueError(
                f"occupied_confidence_threshold out of (0, 1): {self.occupied_confidence_threshold}"
            )
        if not self.decay_rate_per_meter > 0.0:  # NaN fails
            raise ValueError(f"decay_rate_per_meter must be > 0: {self.decay_rate_per_meter}")

    @property
    def occupied_band_m(self) -> float:
        """Length of the occupied interval behind a reported surface. [m]"""
        return -math.log(self.occupied_confidence_threshold) / self.decay_rate_per_meter


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; maps points of one frame into another."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        dev = np.abs(r.T @ r - np.eye(3)).max()
        if dev > ORTHONORMAL_TOL:
            raise ValueError(f"rotation not orthonormal (max deviation {dev:.3e})")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        with np.errstate(invalid="ignore"):  # inf * 0: a non-finite point maps to NaN
            return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self ∘ other)(x) = self(other(x))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def almost_equal(self, other: "RigidTransform", tol: float = 1e-9) -> bool:
        return (
            np.abs(self.rotation - other.rotation).max() <= tol
            and np.abs(self.translation - other.translation).max() <= tol
        )


@dataclass(frozen=True)
class Beam:
    """Half-line from ``origin`` along unit ``direction`` with a measured hit
    at ``range`` meters."""

    origin: np.ndarray
    direction: np.ndarray
    range: float

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).reshape(3)
        d = np.asarray(self.direction, dtype=float).reshape(3)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)
        n = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        # written with `not` so that NaN fails the tests
        if not abs(n - 1.0) <= 1e-9:
            raise ValueError(f"direction not unit-norm: |d| = {n!r}")
        if not 0.0 < self.range < math.inf:
            raise ValueError(f"range must be > 0 and finite: {self.range}")


@dataclass
class Scan:
    """One sensor revolution: hit points plus the pose that places the scan's
    frame in a common reference frame.

    ``points`` and ``sensor_origin`` are expressed in the scan's own working
    frame.  A freshly loaded scan is in its sensor frame (origin at zero);
    :meth:`in_frame_of` re-expresses everything in another scan's frame, which
    moves the origin.
    """

    points: np.ndarray
    sensor_origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    time: float = 0.0
    pose: RigidTransform = field(default_factory=RigidTransform.identity)
    intensities: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.sensor_origin = np.asarray(self.sensor_origin, dtype=float).reshape(3)

    def __len__(self) -> int:
        return self.points.shape[0]

    def beams(self):
        """(ids, unit directions (n, 3), ranges) of the points whose range
        from the sensor origin is finite and at least MIN_BEAM_RANGE, in
        point order; nearer points, and points with a non-finite coordinate,
        form no beam and are left out.  Built one coordinate column at a
        time, bit for bit the row form: ``np.linalg.norm(points - origin,
        axis=1)``, the mask, then the division."""
        delta = [self.points[:, j] - self.sensor_origin[j] for j in range(3)]
        with np.errstate(over="ignore"):  # a range too large for float64 is inf
            ranges = np.sqrt(delta[0] * delta[0] + delta[1] * delta[1] + delta[2] * delta[2])
        # NaN fails both tests
        ids = np.nonzero((ranges >= MIN_BEAM_RANGE) & (ranges < np.inf))[0]
        ranges = ranges[ids]
        dirs = np.empty((len(ids), 3))
        for j in range(3):
            np.divide(delta[j][ids], ranges, out=dirs[:, j])
        return ids, dirs, ranges

    def in_frame_of(self, other: "Scan") -> "Scan":
        """Return this scan re-expressed in ``other``'s working frame."""
        rel = other.pose.inverse().compose(self.pose)
        return Scan(
            points=rel.apply(self.points),
            sensor_origin=rel.apply(self.sensor_origin),
            time=self.time,
            pose=other.pose,
            intensities=self.intensities,
        )


def beam_from_point(scan: Scan, point_index: int) -> Beam:
    """Reconstruct the beam that produced ``scan.points[point_index]``.

    Raises ZeroRange when the point forms no beam, by the rule of
    :meth:`Scan.beams`: its range from the sensor origin is below
    MIN_BEAM_RANGE, where no direction is defined, or is not finite.
    """
    p = scan.points[point_index]
    delta = p - scan.sensor_origin
    with np.errstate(over="ignore"):  # a range too large for float64 is inf
        r = math.sqrt(delta[0] ** 2 + delta[1] ** 2 + delta[2] ** 2)
    if not MIN_BEAM_RANGE <= r < math.inf:
        raise ZeroRange(f"point {point_index} forms no beam: {r:.2e} m from the sensor origin")
    return Beam(scan.sensor_origin, delta / r, r)


def beam_radius_at(cfg: SensorConfig, range_m: float) -> float:
    """Beam footprint radius after traveling ``range_m`` meters.

    The beam widens as a cone of full opening angle ``divergence_angle_rad``.
    """
    if range_m < 0.0:
        raise ValueError(f"range must be >= 0: {range_m}")
    return range_m * math.tan(cfg.divergence_angle_rad / 2.0)


def range_along_beam(beam: Beam, point) -> float:
    """Signed range of ``point`` projected onto the beam's centerline.

    Negative values mean the projection falls behind the sensor.
    """
    p = np.asarray(point, dtype=float)
    d = p - beam.origin
    e = beam.direction
    return float(d[0] * e[0] + d[1] * e[1] + d[2] * e[2])


def confidence(cfg: SensorConfig, range_at_point: float, reported_range: float) -> float:
    """Measurement confidence of a point at ``range_at_point`` on a beam that
    reported a hit at ``reported_range``.

    Certain (1.0) up to the reported range, exponentially decaying past it.
    """
    if reported_range <= 0.0:
        raise NonPositiveReportedRange(f"reported_range = {reported_range!r}")
    if range_at_point <= reported_range:
        return 1.0
    return math.exp(-cfg.decay_rate_per_meter * (range_at_point - reported_range))


def occupancy_state(
    cfg: SensorConfig, range_at_point: float, reported_range: float
) -> OccupancyState:
    """Classify a point along a beam as FREE, OCCUPIED, or UNKNOWN.

    OCCUPIED covers the closed band [reported, reported + band] where the
    confidence stays at or above the occupied threshold; FREE is strictly
    before the reported range, UNKNOWN strictly beyond the band.
    """
    if reported_range <= 0.0:
        raise NonPositiveReportedRange(f"reported_range = {reported_range!r}")
    if range_at_point < reported_range:
        return OccupancyState.FREE
    if range_at_point <= reported_range + cfg.occupied_band_m:
        return OccupancyState.OCCUPIED
    return OccupancyState.UNKNOWN
