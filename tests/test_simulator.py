"""Ray-cast simulator and geometric occupancy oracle."""

import numpy as np
import pytest

from tovp import OccupancyState, RigidTransform, Scan, SensorConfig
from tovp.extraction import RECORD_DTYPE, OverlapSet
from tovp._boxes import points_in_box, yaw_matrix
from tovp.errors import SceneMismatch
from tovp.simulator import (
    SceneBox,
    SceneSpec,
    SpinningLidarSpec,
    _nearest_hits,
    ground_truth_state,
    ground_truth_states,
    oracle_compare,
    simulate_scan,
    simulate_scan_with_hits,
)

SENSOR = SensorConfig()
BAND = SENSOR.occupied_band_m

ONE_BEAM = SpinningLidarSpec(elevation_angles_rad=(0.0,), azimuth_step_rad=2 * np.pi)


def wall_scene():
    # axis-aligned box with its near face at x = 10
    return SceneSpec(static_boxes=[SceneBox(center=(12.5, 0.0, 0.0), size=(5.0, 5.0, 5.0))])


def test_single_beam_hits_box_face():
    scan = simulate_scan(wall_scene(), ONE_BEAM, RigidTransform.identity(), time=0.0)
    assert len(scan) == 1
    np.testing.assert_allclose(scan.points[0], [10.0, 0.0, 0.0], atol=1e-12)


def test_empty_scene_returns_empty_scan():
    scan = simulate_scan(SceneSpec(), ONE_BEAM, RigidTransform.identity(), time=0.0)
    assert len(scan) == 0


def test_miss_is_omitted_not_padded():
    lidar = SpinningLidarSpec(elevation_angles_rad=(0.0,), azimuth_step_rad=np.pi / 2)
    scan, hits = simulate_scan_with_hits(wall_scene(), lidar, RigidTransform.identity(), 0.0)
    # of the four cardinal azimuths only +x faces the box
    assert len(scan) == 1
    assert hits.tolist() == [0]


def test_moving_box_advects_linearly():
    box = SceneBox(center=(20.0, 0.0, 0.0), size=(5.0, 5.0, 5.0), velocity=(1.0, 0.0, 0.0))
    scene = SceneSpec(moving_boxes=[box])
    at0 = simulate_scan(scene, ONE_BEAM, RigidTransform.identity(), time=0.0)
    at2 = simulate_scan(scene, ONE_BEAM, RigidTransform.identity(), time=2.0)
    np.testing.assert_allclose(at0.points[0, 0], 17.5, atol=1e-12)
    np.testing.assert_allclose(at2.points[0, 0], 19.5, atol=1e-12)


def test_points_come_back_in_sensor_frame():
    # sensor 2 m up, yawed 90 deg: its +x beam looks along world +y
    yaw = np.pi / 2
    rot = np.array([[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0], [0.0, 0.0, 1.0]])
    pose = RigidTransform(rotation=rot, translation=np.array([0.0, 0.0, 2.0]))
    scene = SceneSpec(static_boxes=[SceneBox(center=(0.0, 12.5, 2.0), size=(5.0, 5.0, 5.0))])
    scan = simulate_scan(scene, ONE_BEAM, pose, time=0.0)
    assert len(scan) == 1
    np.testing.assert_allclose(scan.points[0], [10.0, 0.0, 0.0], atol=1e-9)
    assert scan.pose is pose


def test_ground_plane_hit():
    lidar = SpinningLidarSpec(elevation_angles_rad=(-np.pi / 4,), azimuth_step_rad=2 * np.pi)
    pose = RigidTransform(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
    scan, hits = simulate_scan_with_hits(
        SceneSpec(ground_plane=True), lidar, pose, time=0.0
    )
    assert hits.tolist() == [-1]
    world = pose.apply(scan.points)
    np.testing.assert_allclose(world[0], [2.0, 0.0, 0.0], atol=1e-12)


def test_max_range_drops_far_hits():
    lidar = SpinningLidarSpec(elevation_angles_rad=(0.0,), azimuth_step_rad=2 * np.pi, max_range_m=5.0)
    scan = simulate_scan(wall_scene(), lidar, RigidTransform.identity(), time=0.0)
    assert len(scan) == 0


def test_range_noise_is_seeded():
    lidar = SpinningLidarSpec(
        elevation_angles_rad=(0.0,), azimuth_step_rad=np.pi / 180, range_noise_std_m=0.02
    )
    a = simulate_scan(wall_scene(), lidar, RigidTransform.identity(), 0.0, noise_seed=7)
    b = simulate_scan(wall_scene(), lidar, RigidTransform.identity(), 0.0, noise_seed=7)
    c = simulate_scan(wall_scene(), lidar, RigidTransform.identity(), 0.0, noise_seed=8)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_sensor_inside_box_sees_exit_face():
    box = SceneBox(center=(0.0, 0.0, 0.0), size=(6.0, 6.0, 6.0))
    scan = simulate_scan(SceneSpec(static_boxes=[box]), ONE_BEAM, RigidTransform.identity(), 0.0)
    np.testing.assert_allclose(scan.points[0], [3.0, 0.0, 0.0], atol=1e-12)


def test_yawed_box_crossing():
    # 45 deg yaw turns the corner toward the sensor: sqrt(2)-scaled half diagonal
    half_diag = 2.5 * np.sqrt(2.0)
    box = SceneBox(center=(20.0, 0.0, 0.0), size=(5.0, 5.0, 5.0), yaw=np.pi / 4)
    scan = simulate_scan(SceneSpec(static_boxes=[box]), ONE_BEAM, RigidTransform.identity(), 0.0)
    np.testing.assert_allclose(scan.points[0, 0], 20.0 - half_diag, atol=1e-9)


class TestGroundTruthStates:
    def test_midway_point_is_free(self):
        assert ground_truth_state((5.0, 0.0, 0.0), 0.0, np.zeros(3), wall_scene(), SENSOR) == int(
            OccupancyState.FREE
        )

    def test_point_inside_box_is_occupied(self):
        assert ground_truth_state((10.05, 0.0, 0.0), 0.0, np.zeros(3), wall_scene(), SENSOR) == int(
            OccupancyState.OCCUPIED
        )

    def test_point_just_past_exit_face_within_band_is_occupied(self):
        # 15 is the far face; the decay band extends the occupied zone... but the
        # far face is occluded by the near face, so the rule keys off the FIRST
        # crossing at 10: anything deeper than 10 + band and outside is UNKNOWN.
        state = ground_truth_state((15.05, 0.0, 0.0), 0.0, np.zeros(3), wall_scene(), SENSOR)
        assert state == int(OccupancyState.UNKNOWN)

    def test_point_shallow_behind_first_face_is_occupied(self):
        state = ground_truth_state((10.0 + BAND / 2, 0.0, 0.0), 0.0, np.zeros(3), wall_scene(), SENSOR)
        assert state == int(OccupancyState.OCCUPIED)

    def test_deep_occluded_point_is_unknown(self):
        scene = SceneSpec(static_boxes=[SceneBox(center=(12.5, 0.0, 0.0), size=(0.2, 5.0, 5.0))])
        state = ground_truth_state((13.6, 0.0, 0.0), 0.0, np.zeros(3), scene, SENSOR)
        assert state == int(OccupancyState.UNKNOWN)

    def test_unobstructed_ray_is_free_with_infinite_margin(self):
        states, margin = ground_truth_states(
            np.array([[0.0, 50.0, 0.0]]), 0.0, np.zeros(3), wall_scene(), SENSOR
        )
        assert states[0] == int(OccupancyState.FREE)
        assert np.isinf(margin[0])

    def test_margin_measures_distance_to_state_boundary(self):
        states, margin = ground_truth_states(
            np.array([[10.02, 0.0, 0.0], [9.9, 0.0, 0.0]]), 0.0, np.zeros(3), wall_scene(), SENSOR
        )
        np.testing.assert_allclose(margin[0], 0.02, atol=1e-9)
        np.testing.assert_allclose(margin[1], 0.1, atol=1e-9)

    def test_moving_scene_is_queried_at_time(self):
        box = SceneBox(center=(12.5, 0.0, 0.0), size=(5.0, 5.0, 5.0), velocity=(1.0, 0.0, 0.0))
        scene = SceneSpec(moving_boxes=[box])
        at0 = ground_truth_state((10.5, 0.0, 0.0), 0.0, np.zeros(3), scene, SENSOR)
        at5 = ground_truth_state((10.5, 0.0, 0.0), 5.0, np.zeros(3), scene, SENSOR)
        assert at0 == int(OccupancyState.OCCUPIED)
        assert at5 == int(OccupancyState.FREE)

    def test_simulated_hits_are_occupied_on_dense_grid(self):
        lidar = SpinningLidarSpec(
            elevation_angles_rad=np.linspace(-0.2, 0.1, 8), azimuth_step_rad=np.pi / 64
        )
        scan = simulate_scan(wall_scene(), lidar, RigidTransform.identity(), 0.0)
        assert len(scan) > 0
        states, _ = ground_truth_states(scan.points, 0.0, np.zeros(3), wall_scene(), SENSOR)
        assert np.all(states == int(OccupancyState.OCCUPIED))

    def test_no_nearer_surface_than_simulated_hit(self):
        # walking each returned beam in small steps must stay FREE until the hit
        rng = np.random.default_rng(3)
        scene = SceneSpec(
            static_boxes=[
                SceneBox(center=(12.5, 3.0, 0.0), size=(4.0, 2.0, 3.0), yaw=0.4),
                SceneBox(center=(-8.0, -6.0, 0.5), size=(3.0, 3.0, 2.0), yaw=-0.9),
            ],
            ground_plane=True,
        )
        pose = RigidTransform(rotation=np.eye(3), translation=np.array([0.0, 0.0, 1.5]))
        lidar = SpinningLidarSpec(
            elevation_angles_rad=np.linspace(-0.3, 0.05, 4), azimuth_step_rad=np.pi / 16
        )
        scan = simulate_scan(scene, lidar, pose, 0.0)
        assert len(scan) > 0
        idx = rng.choice(len(scan), size=min(12, len(scan)), replace=False)
        for i in idx:
            p_world = pose.apply(scan.points[i])
            r = np.linalg.norm(scan.points[i])
            d = (p_world - pose.translation) / r
            for frac in np.linspace(0.05, 0.95, 12):
                probe = pose.translation + frac * r * d
                state = ground_truth_state(probe, 0.0, pose.translation, scene, SENSOR)
                assert state == int(OccupancyState.FREE)


def broadcast_ground_truth_states(points_world, time, sensor_origin_world, scene, sensor):
    """Reference: the oracle with one origin row per point, and the
    differences, ranges and directions formed on whole rows."""
    pts = np.atleast_2d(np.asarray(points_world, dtype=float))
    origin = np.asarray(sensor_origin_world, dtype=float).reshape(3)
    delta = pts - origin
    dist = np.linalg.norm(delta, axis=1)
    dirs = delta / np.maximum(dist, 1e-12)[:, None]
    nearest, _ = _nearest_hits(np.broadcast_to(origin, pts.shape), dirs, scene, time)
    inside = np.zeros(pts.shape[0], dtype=bool)
    for box in scene.all_boxes():
        inside |= points_in_box(pts, box.center_at(time), box.size, box.yaw)
    band = sensor.occupied_band_m
    states = np.full(pts.shape[0], 2, dtype=np.uint8)
    states[inside | ((dist >= nearest) & (dist <= nearest + band))] = 1
    states[(~inside) & (dist < nearest)] = 0
    with np.errstate(invalid="ignore"):
        margin = np.minimum(np.abs(dist - nearest), np.abs(dist - nearest - band))
    return states, np.where(np.isfinite(nearest), margin, np.inf)


class TestOneOriginOracle:
    """ground_truth_states casts every ray from one origin row; states and
    margins equal the per-point-origin form bit for bit."""

    def assert_matches(self, pts, origin, scene, time=0.0):
        got = ground_truth_states(pts, time, origin, scene, SENSOR)
        want = broadcast_ground_truth_states(pts, time, origin, scene, SENSOR)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        return want[0]

    def scene(self):
        return SceneSpec(static_boxes=[
            SceneBox(center=(12.5, 3.0, 0.0), size=(4.0, 2.0, 3.0), yaw=0.4),
            SceneBox(center=(-8.0, -6.0, 0.5), size=(3.0, 3.0, 2.0), yaw=-0.9),
            # distant and yawed
            SceneBox(center=(2400.0, -1800.0, 3.0), size=(40.0, 6.0, 9.0), yaw=2.3),
        ], moving_boxes=[
            SceneBox(center=(4.0, -2.0, 0.8), size=(4.5, 1.9, 1.6), velocity=(3.0, 0.5, 0.0)),
        ], ground_plane=True)

    def test_random_points(self):
        rng = np.random.default_rng(51)
        pts = rng.uniform(-30.0, 30.0, (20000, 3))
        states = self.assert_matches(pts, np.array([0.5, -0.3, 1.7]), self.scene(), 0.4)
        assert len(np.unique(states)) == 3

    def test_points_inside_boxes(self):
        rng = np.random.default_rng(52)
        scene = self.scene()
        pts = [np.asarray(b.center_at(0.7)) + (rng.uniform(-0.6, 0.6, (3000, 3)) * b.size) @ yaw_matrix(b.yaw).T
               for b in scene.all_boxes()]
        states = self.assert_matches(np.concatenate(pts), np.array([1.0, 2.0, 1.5]), scene, 0.7)
        assert np.sum(states == 1) > 0

    def test_distant_yawed_box(self):
        rng = np.random.default_rng(53)
        box = self.scene().static_boxes[2]
        origin = np.array([-3.0, 4.0, 1.7])
        targets = np.asarray(box.center) + (rng.uniform(-0.8, 0.8, (20000, 3)) * box.size) @ yaw_matrix(box.yaw).T
        # points on the rays to the box: short of it, at it and past it
        pts = origin + (targets - origin) * rng.uniform(0.5, 1.02, (20000, 1))
        states = self.assert_matches(pts, origin, self.scene())
        assert len(np.unique(states)) == 3

    def test_point_on_the_origin_and_one_point(self):
        origin = np.array([0.0, 0.0, 1.5])
        self.assert_matches(np.array([origin, origin + 1e-13, [5.0, 0.0, 1.5]]), origin, self.scene())
        self.assert_matches(np.array([12.0, 2.5, 0.5]), origin, self.scene())


class TestOracleCompare:
    def _records(self, rows):
        rec = np.zeros(len(rows), dtype=RECORD_DTYPE)
        for k, (pos, state, off) in enumerate(rows):
            rec[k]["position"] = pos
            rec[k]["state"] = state
            rec[k]["scan_offset"] = off
            rec[k]["current_index"] = k
        return OverlapSet(rec)

    def test_counts_agreement_and_exclusion(self):
        ident = RigidTransform.identity()
        oset = self._records(
            [
                ((5.0, 0.0, 0.0), int(OccupancyState.FREE), 1),  # oracle FREE, margin 5
                ((10.05, 0.0, 0.0), int(OccupancyState.OCCUPIED), 1),  # margin 0.05
                ((10.0, 0.0, 0.0), int(OccupancyState.OCCUPIED), 1),  # on boundary, excluded
            ]
        )
        poses = {0: (ident, 0.0), 1: (ident, 0.5)}
        cmp = oracle_compare(oset, wall_scene(), poses, epsilon_boundary=0.02, sensor=SENSOR)
        assert cmp.compared == 2
        assert cmp.excluded == 1
        assert cmp.agreement == 1.0
        assert cmp.confusion[int(OccupancyState.FREE), int(OccupancyState.FREE)] == 1
        assert cmp.confusion[int(OccupancyState.OCCUPIED), int(OccupancyState.OCCUPIED)] == 1

    def test_disagreement_lands_off_diagonal(self):
        ident = RigidTransform.identity()
        oset = self._records([((5.0, 0.0, 0.0), int(OccupancyState.OCCUPIED), 1)])
        poses = {0: (ident, 0.0), 1: (ident, 0.5)}
        cmp = oracle_compare(oset, wall_scene(), poses, 0.02, SENSOR)
        assert cmp.agreement == 0.0
        assert cmp.confusion[int(OccupancyState.OCCUPIED), int(OccupancyState.FREE)] == 1

    def test_missing_offset_raises(self):
        oset = self._records([((5.0, 0.0, 0.0), 0, 2)])
        with pytest.raises(SceneMismatch):
            oracle_compare(oset, wall_scene(), {0: (RigidTransform.identity(), 0.0)}, 0.02, SENSOR)

    def test_missing_current_pose_raises(self):
        oset = self._records([((5.0, 0.0, 0.0), 0, 1)])
        with pytest.raises(SceneMismatch):
            oracle_compare(oset, wall_scene(), {1: (RigidTransform.identity(), 0.5)}, 0.02, SENSOR)

    def test_everything_excluded_flags_empty(self):
        ident = RigidTransform.identity()
        oset = self._records([((10.0, 0.0, 0.0), 1, 1)])
        cmp = oracle_compare(oset, wall_scene(), {0: (ident, 0.0), 1: (ident, 0.5)}, 0.05, SENSOR)
        assert cmp.empty_comparison
        assert np.isnan(cmp.agreement)
        assert cmp.to_dict()["agreement"] is None
