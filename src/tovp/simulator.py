"""Synthetic spinning-LiDAR simulator and geometric occupancy oracle.

Scenes are collections of yaw-oriented boxes, optionally moving at constant
velocity, plus an optional ground plane at z=0.  Returns are ray-cast on
beam centerlines against the scene advected to the scan time; misses emit
no point.  The same scene geometry also answers "what is the true occupancy
state of this point, seen from this sensor position, at this time", which
is what extraction labels are checked against.
"""

from dataclasses import dataclass, field

import numpy as np

from ._boxes import CULL_PAD, points_in_box, ray_box_crossings
from .errors import SceneMismatch
from .sensor_model import RigidTransform, Scan, SensorConfig

# Surface crossings closer than this are ignored (a scan range must be > 0). [m]
MIN_HIT_RANGE = 1e-6


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
    world_bounds: tuple = (-200.0, 200.0, -200.0, 200.0, -50.0, 50.0)

    def all_boxes(self) -> list:
        return list(self.static_boxes) + list(self.moving_boxes)


@dataclass(frozen=True)
class SpinningLidarSpec:
    """Scan pattern: one beam per (elevation channel, azimuth step)."""

    elevation_angles_rad: tuple
    azimuth_step_rad: float
    max_range_m: float = 120.0
    divergence_angle_rad: float = 0.003
    range_noise_std_m: float = 0.0

    def __post_init__(self):
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
        el = np.asarray(self.elevation_angles_rad, dtype=float)
        cos_el = np.cos(el)[:, None]
        d = np.empty((len(el), len(az), 3))
        d[:, :, 0] = cos_el * np.cos(az)[None, :]
        d[:, :, 1] = cos_el * np.sin(az)[None, :]
        d[:, :, 2] = np.sin(el)[:, None]
        return d.reshape(-1, 3)


def _nearest_hits(origins, dirs_unit, scene: SceneSpec, time: float):
    """Nearest positive surface crossing per ray: (distance, hit).

    ``origins`` holds one row per ray or a single row for all of them;
    ``dirs_unit`` must be unit-norm so distances come out in meters.  The
    distance is inf for misses; ``hit`` indexes ``scene.all_boxes()``, -1
    for the ground or a miss.

    Per box, only rays that pass a bounding-sphere pre-test reach the slab
    test of :func:`ray_box_crossings`.  With v the box center seen from the
    ray origin and R the box half-diagonal, a ray d is kept when its line
    passes within the sphere, |v|^2 |d|^2 - (d.v)^2 <= R^2 |d|^2, and the
    sphere is not wholly behind the origin, d.v >= -R |d|.  A ray that
    crosses the box ahead of its origin meets both.  Rows where the bounds
    come out NaN (NaN directions or overflow) are kept.  R^2 is padded by
    ``CULL_PAD * |v|^2``: at a distant box the cancellation in the
    difference, and the slab test's own rounding, are a few ulps of
    |v|^2 |d|^2, not of R^2.  The slab test is computed row by row, so
    its result on the kept rays is bit for bit its result on all rays.
    """
    n = dirs_unit.shape[0]
    nearest = np.full(n, np.inf)
    hit_box = np.full(n, -1, dtype=np.int64)
    dd = np.einsum("ij,ij->i", dirs_unit, dirs_unit)
    for b_idx, box in enumerate(scene.all_boxes()):
        center = box.center_at(time)
        half = np.asarray(box.size, dtype=float) / 2.0
        v = center - origins  # -(origins - center) of the slab test, bit for bit
        with np.errstate(invalid="ignore", over="ignore"):
            vv = np.einsum("ij,ij->i", v, v)
            dv = np.einsum("ij,ij->i", dirs_unit, v)
            lim = (half @ half + CULL_PAD * vv) * dd
            dv2 = dv * dv
            # rows the bounds cannot decide (NaN) are left to the slab test
            out = (vv * dd - dv2 > lim) | ((dv < 0.0) & (dv2 > lim))
        keep = np.nonzero(~out)[0]
        o = origins if len(origins) == 1 else origins.take(keep, axis=0)
        t, valid = ray_box_crossings(o, dirs_unit.take(keep, axis=0), center, box.size, box.yaw)
        t = np.where(valid & (t > MIN_HIT_RANGE), t, np.inf)
        closer = t < nearest[keep]
        nearest[keep[closer]] = t[closer]
        hit_box[keep[closer]] = b_idx
    if scene.ground_plane:
        dz = dirs_unit[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -origins[:, 2] / dz
        t = np.where((dz != 0.0) & (t > MIN_HIT_RANGE), t, np.inf)
        closer = t < nearest
        nearest[closer] = t[closer]
        hit_box[closer] = -1
    return nearest, hit_box


def simulate_scan(
    scene: SceneSpec,
    lidar: SpinningLidarSpec,
    sensor_pose: RigidTransform,
    time: float,
    noise_seed: int = 0,
) -> Scan:
    """Simulate one revolution.  Points come back in the sensor frame with
    the pose attached; rays that hit nothing are omitted."""
    scan, _ = simulate_scan_with_hits(scene, lidar, sensor_pose, time, noise_seed)
    return scan


def simulate_scan_with_hits(
    scene: SceneSpec,
    lidar: SpinningLidarSpec,
    sensor_pose: RigidTransform,
    time: float,
    noise_seed: int = 0,
):
    """Like :func:`simulate_scan` but also returns, per returned point, the
    index into ``scene.all_boxes()`` that produced it (-1 for the ground)."""
    d_sensor = lidar.ray_directions()
    d_world = d_sensor @ sensor_pose.rotation.T
    origin = sensor_pose.translation

    n = d_world.shape[0]
    nearest, hit_box = _nearest_hits(origin[None, :], d_world, scene, time)

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

    nearest, _ = _nearest_hits(origin[None, :], dirs, scene, time)

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


def ground_truth_state(point, time, sensor_origin_world, scene, sensor: SensorConfig) -> int:
    """Scalar convenience wrapper around :func:`ground_truth_states`."""
    states, _ = ground_truth_states(np.asarray(point, dtype=float)[None, :], time, sensor_origin_world, scene, sensor)
    return int(states[0])


@dataclass
class OracleComparison:
    """Agreement between extracted labels and the geometric oracle."""

    confusion: np.ndarray  # (3,3), rows = extracted state, cols = oracle state
    compared: int
    excluded: int
    empty_comparison: bool

    @property
    def agreement(self) -> float:
        if self.compared == 0:
            return float("nan")
        return float(np.trace(self.confusion)) / self.compared

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "compared": self.compared,
            "excluded": self.excluded,
            "empty_comparison": self.empty_comparison,
            "agreement": None if self.compared == 0 else self.agreement,
        }


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

    return OracleComparison(
        confusion=confusion,
        compared=compared,
        excluded=excluded,
        empty_comparison=compared == 0,
    )
