"""Synthetic spinning-LiDAR simulator and geometric occupancy oracle.

Scenes are collections of yaw-oriented boxes, optionally moving at constant
velocity, plus an optional ground plane at z=0.  Returns are ray-cast on
beam centerlines against the scene advected to the scan time; misses emit
no point.  The same scene geometry also answers "what is the true occupancy
state of this point, seen from this sensor position, at this time", which
is what extraction labels are checked against.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._boxes import SECTOR_PAD, footprint_azimuths, points_in_box, ray_box_crossings
from .errors import SceneMismatch
from .sensor_model import MIN_BEAM_RANGE, RigidTransform, Scan, SensorConfig


@dataclass(frozen=True)
class SceneBox:
    """One box of the scene.  ``velocity`` advects the center linearly in
    time; static boxes use the zero vector."""

    center: tuple
    size: tuple
    yaw: float = 0.0
    velocity: tuple = (0.0, 0.0, 0.0)
    category: str = "VEHICLE"
    instance_id: str = ""

    def __post_init__(self):
        size = np.asarray(self.size, dtype=float)
        if np.any(size <= 0.0) or size.shape != (3,):
            raise ValueError(f"box size must be 3 positive extents: {self.size}")
        if not np.all(np.isfinite(np.asarray(self.velocity, dtype=float))):
            raise ValueError(f"box velocity not finite: {self.velocity}")

    def center_at(self, time: float) -> np.ndarray:
        return np.asarray(self.center, dtype=float) + np.asarray(self.velocity, dtype=float) * time

    @property
    def is_moving(self) -> bool:
        return bool(np.linalg.norm(np.asarray(self.velocity, dtype=float)) > 1e-9)


@dataclass
class SceneSpec:
    static_boxes: list = field(default_factory=list)
    moving_boxes: list = field(default_factory=list)
    ground_plane: bool = False

    def all_boxes(self) -> list:
        return list(self.static_boxes) + list(self.moving_boxes)


@dataclass(frozen=True, eq=False)
class SpinningLidarSpec:
    """Scan pattern: one beam per (elevation channel, azimuth step).  The
    elevations are kept as one float64 array, whatever sequence is given;
    specs compare by identity."""

    elevation_angles_rad: np.ndarray
    azimuth_step_rad: float
    max_range_m: float = 120.0
    range_noise_std_m: float = 0.0

    def __post_init__(self):
        elevations = np.asarray(self.elevation_angles_rad, dtype=float)
        object.__setattr__(self, "elevation_angles_rad", elevations)
        if len(self.elevation_angles_rad) < 1:
            raise ValueError("at least one elevation channel required")
        if self.azimuth_step_rad <= 0.0:
            raise ValueError(f"azimuth step must be > 0: {self.azimuth_step_rad}")

    @property
    def n_azimuths(self) -> int:
        return int(round(2.0 * np.pi / self.azimuth_step_rad))

    def ray_directions(self) -> np.ndarray:
        """Unit directions in the sensor frame, channel-major then azimuth."""
        az = np.arange(self.n_azimuths) * self.azimuth_step_rad
        el = self.elevation_angles_rad
        cos_el = np.cos(el)[:, None]
        d = np.empty((len(el), len(az), 3))
        d[:, :, 0] = cos_el * np.cos(az)[None, :]
        d[:, :, 1] = cos_el * np.sin(az)[None, :]
        d[:, :, 2] = np.sin(el)[:, None]
        return d.reshape(-1, 3)


# azimuth bins of the ray sectors in _nearest_hits
_SECTORS = 1024


def _azimuth_groups(dirs):
    """Rays grouped by azimuth bin: (order, starts).

    ``order`` sorts the rays stably by bin, and the rays of bin b sit at
    ``order[starts[b]:starts[b + 1]]``.  Bin ``_SECTORS`` holds the rays
    with no usable azimuth: a non-finite component, or an xy part within
    ``SECTOR_PAD`` of zero relative to the ray's length.
    """
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    with np.errstate(invalid="ignore", over="ignore"):
        xy = dx * dx
        xy += dy * dy
        lim = dz * dz
        lim += xy
        lim *= SECTOR_PAD ** 2
        # False on NaN, and on an infinite or overflowing component
        usable = xy > lim
        az = np.arctan2(dy, dx, out=lim)
        az += np.pi
        az *= _SECTORS / (2.0 * np.pi)
        np.minimum(az, _SECTORS - 1, out=az)
        bins = az.astype(np.int16)
    bins[~usable] = _SECTORS
    order = np.argsort(bins, kind="stable")
    starts = np.zeros(_SECTORS + 2, dtype=np.int64)
    np.cumsum(np.bincount(bins, minlength=_SECTORS + 1), out=starts[1:])
    return order, starts


def _sector_rows(starts, span):
    """Position ranges [a, b) of the sorted rays a box is cast against: the
    bins its azimuth span covers, then the rays with no azimuth."""
    n = int(starts[-1])
    if span is None:
        return [(0, n)]
    scale = _SECTORS / (2.0 * np.pi)
    b0, b1 = (math.floor((a + np.pi) * scale) for a in span)
    if b1 - b0 + 1 >= _SECTORS:
        return [(0, n)]
    b0, b1 = b0 % _SECTORS, b1 % _SECTORS
    if b0 <= b1:
        rows = [(starts[b0], starts[b1 + 1])]
    else:  # across the seam behind the origin
        rows = [(0, starts[b1 + 1]), (starts[b0], starts[_SECTORS])]
    rows.append((starts[_SECTORS], n))
    return [(int(a), int(b)) for a, b in rows if b > a]


def _nearest_hits(origin, dirs_unit, scene: SceneSpec, time: float):
    """Nearest positive surface crossing per ray from one ``origin``:
    (distance, hit).

    ``dirs_unit`` must be unit-norm so distances come out in meters.  The
    distance is inf for misses; ``hit`` indexes ``scene.all_boxes()``, -1
    for the ground or a miss.

    Rays are grouped once by azimuth bin (:func:`_azimuth_groups`), and
    each box is cast only against the bins its padded
    :func:`footprint_azimuths` span covers, plus the rays with no usable
    azimuth; an origin on or inside the footprint, or a NaN origin, keeps
    every ray.  A ray from outside the footprint that crosses the box
    ahead of its origin heads into the footprint, so its azimuth lies in
    the span.  The slab test of :func:`ray_box_crossings` is computed row
    by row, so its result on those rays is bit for bit its result on all
    rays.  Crossings at MIN_BEAM_RANGE or nearer are ignored: a return
    must form a beam.
    """
    origin = np.asarray(origin, dtype=float).reshape(3)
    n = dirs_unit.shape[0]
    order, starts = _azimuth_groups(dirs_unit)
    # cast in sorted order, where each bin range is a slice; un-sorted once at the end
    dirs = dirs_unit.take(order, axis=0)
    nearest = np.full(n, np.inf)
    hit_box = np.full(n, -1, dtype=np.int64)
    for b_idx, box in enumerate(scene.all_boxes()):
        center = box.center_at(time)
        for a, b in _sector_rows(starts, footprint_azimuths(center - origin, box.size, box.yaw)):
            t, _ = ray_box_crossings(origin[None, :], dirs[a:b], center, box.size, box.yaw)
            closer = (t > MIN_BEAM_RANGE) & (t < nearest[a:b])
            nearest[a:b][closer] = t[closer]
            hit_box[a:b][closer] = b_idx
    if scene.ground_plane:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -origin[2] / dz
        closer = (dz != 0.0) & (t > MIN_BEAM_RANGE) & (t < nearest)
        nearest[closer] = t[closer]
        hit_box[closer] = -1
    out_nearest, out_hit = np.empty_like(nearest), np.empty_like(hit_box)
    out_nearest[order] = nearest
    out_hit[order] = hit_box
    return out_nearest, out_hit


def simulate_scan_with_hits(
    scene: SceneSpec,
    lidar: SpinningLidarSpec,
    sensor_pose: RigidTransform,
    time: float,
    noise_seed: int = 0,
):
    """Simulate one revolution: (scan, hit).  Points come back in the
    sensor frame with the pose attached; rays that hit nothing are omitted.
    ``hit`` gives, per returned point, the index into ``scene.all_boxes()``
    that produced it (-1 for the ground)."""
    d_sensor = lidar.ray_directions()
    d_world = d_sensor @ sensor_pose.rotation.T
    origin = sensor_pose.translation

    n = d_world.shape[0]
    nearest, hit_box = _nearest_hits(origin, d_world, scene, time)

    ranges = nearest
    if lidar.range_noise_std_m > 0.0:
        rng = np.random.default_rng(noise_seed)
        noise = rng.normal(0.0, lidar.range_noise_std_m, size=n)
        ranges = np.where(np.isfinite(ranges), np.maximum(ranges + noise, 1e-3), ranges)

    keep = np.isfinite(ranges) & (ranges <= lidar.max_range_m)
    # by column, into a fresh array as the row form allocated: scaling the
    # gathered directions in place let the heap grow ~20 MB faster over
    # 25 scans with the points of each kept alive
    kept, d_kept = ranges[keep], d_sensor[keep]
    points = np.empty(d_kept.shape)
    for j in range(3):
        np.multiply(kept, d_kept[:, j], out=points[:, j])
    scan = Scan(
        points=points,
        sensor_origin=np.zeros(3),
        time=time,
        pose=sensor_pose,
        intensities=np.zeros(points.shape[0], dtype=np.float32),
    )
    return scan, hit_box[keep]


def ground_truth_states(
    points_world: np.ndarray,
    time: float,
    sensor_origin_world: np.ndarray,
    scene: SceneSpec,
    sensor: SensorConfig,
):
    """Geometric occupancy of points seen from a sensor position at a time.

    Returns (states, boundary_margin): states as uint8 (FREE 0, OCCUPIED 1,
    UNKNOWN 2) and the distance of each point's range from the nearest
    state boundary along its own viewing ray (inf when the ray crosses no
    surface).  A point is OCCUPIED when inside a box or within the decay
    band behind the first surface; FREE when the segment back to the sensor
    is unobstructed; UNKNOWN when occluded deeper than the band.
    """
    pts = np.atleast_2d(np.asarray(points_world, dtype=float))
    origin = np.asarray(sensor_origin_world, dtype=float).reshape(3)
    # by column; the sum runs in np.linalg.norm's order
    delta = [pts[:, j] - origin[j] for j in range(3)]
    dist = np.sqrt(delta[0] * delta[0] + delta[1] * delta[1] + delta[2] * delta[2])
    safe = np.maximum(dist, 1e-12)
    dirs = np.empty(pts.shape)
    for j in range(3):
        np.divide(delta[j], safe, out=dirs[:, j])

    nearest, _ = _nearest_hits(origin, dirs, scene, time)

    inside = np.zeros(pts.shape[0], dtype=bool)
    for box in scene.all_boxes():
        inside |= points_in_box(pts, box.center_at(time), box.size, box.yaw)

    band = sensor.occupied_band_m
    occupied = inside | ((dist >= nearest) & (dist <= nearest + band))
    free = (~inside) & (dist < nearest)
    states = np.full(pts.shape[0], 2, dtype=np.uint8)
    states[occupied] = 1
    states[free] = 0

    with np.errstate(invalid="ignore"):
        margin = np.minimum(np.abs(dist - nearest), np.abs(dist - nearest - band))
    margin = np.where(np.isfinite(nearest), margin, np.inf)
    return states, margin


@dataclass
class OracleComparison:
    """Agreement between extracted labels and the geometric oracle."""

    confusion: np.ndarray  # (3,3), rows = extracted state, cols = oracle state
    compared: int
    excluded: int

    @property
    def agreement(self) -> float:
        if self.compared == 0:
            return float("nan")
        return float(np.trace(self.confusion)) / self.compared


def oracle_compare(
    overlaps,
    scene: SceneSpec,
    scan_poses: dict,
    epsilon_boundary: float,
    sensor: SensorConfig,
) -> OracleComparison:
    """Check extracted overlap labels against scene geometry.

    ``scan_poses`` maps scan offsets to (pose, time), and must cover offset
    0 (the current scan, whose pose converts stored positions to world
    coordinates) plus every offset present in ``overlaps``.  Points whose
    range along their viewing ray is within ``epsilon_boundary`` of a state
    boundary are excluded from the tally.
    """
    if 0 not in scan_poses:
        raise SceneMismatch("scan_poses lacks the current scan (offset 0)")
    records = overlaps.records
    current_pose, _ = scan_poses[0]
    confusion = np.zeros((3, 3), dtype=np.int64)
    compared = 0
    excluded = 0

    for offset in np.unique(records["scan_offset"]):
        off = int(offset)
        if off not in scan_poses:
            raise SceneMismatch(f"scan_poses lacks offset {off}")
        pose_t, time_t = scan_poses[off]
        sel = records["scan_offset"] == offset
        pts_world = current_pose.apply(records["position"][sel])
        gt, margin = ground_truth_states(pts_world, time_t, pose_t.translation, scene, sensor)
        ok = margin >= epsilon_boundary
        excluded += int((~ok).sum())
        ext = records["state"][sel][ok]
        oracle = gt[ok]
        np.add.at(confusion, (ext.astype(np.int64), oracle.astype(np.int64)), 1)
        compared += int(ok.sum())

    return OracleComparison(confusion=confusion, compared=compared, excluded=excluded)
