"""Overlap extraction: candidate index, pair geometry, labeling, balance."""

import math
import time

import numpy as np
import pytest

from brute_force import brute_force_overlaps
from scan_factories import random_scan_pair, scan_pair_for_directions, unit_rows
from tovp import OccupancyState, RigidTransform, Scan, SensorConfig, beam_from_point, extraction
from tovp.errors import EmptyScan, FrameMismatch, MissingPose
from tovp.extraction import (
    RECORD_DTYPE,
    ExtractionConfig,
    OverlapSet,
    balance_classes,
    build_direction_index,
    candidate_pairs,
    extract_scan_pair,
    extract_sequence,
)

SENSOR = SensorConfig()
CFG = ExtractionConfig()


def scan_pair(cur_pts, adj_pts, adj_origin):
    cur = Scan(points=np.asarray(cur_pts, dtype=float), time=0.0)
    adj = Scan(points=np.asarray(adj_pts, dtype=float), sensor_origin=adj_origin, time=0.5)
    return cur, adj


def _spinning_pair(channels, azimuths):
    from tovp.simulator import SceneBox, SceneSpec, SpinningLidarSpec, simulate_scan

    scene = SceneSpec(
        static_boxes=[
            SceneBox(center=(15.0, 4.0, 1.0), size=(6.0, 3.0, 2.5), yaw=0.3),
            SceneBox(center=(-10.0, -8.0, 1.0), size=(4.0, 4.0, 2.0), yaw=-0.7),
        ],
        ground_plane=True,
    )
    lidar = SpinningLidarSpec(
        elevation_angles_rad=np.linspace(-0.35, 0.03, channels),
        azimuth_step_rad=2 * np.pi / azimuths,
    )
    p0 = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.7]))
    p1 = RigidTransform(np.eye(3), np.array([1.1, 0.15, 1.7]))
    cur = simulate_scan(scene, lidar, p0, 0.0)
    adj = simulate_scan(scene, lidar, p1, 0.5).in_frame_of(cur)
    return cur, adj


class TestPairGeometryAndLabels:
    def test_right_angle_crossing_at_adjacent_hit_is_occupied(self):
        # adjacent beam rises from below and stops exactly where the current
        # beam's centerline passes: crossing range equals the reported range
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 1
        p = oset[0]
        np.testing.assert_allclose(p.position, [10.0, 0.0, 0.0], atol=1e-12)
        assert p.state is OccupancyState.OCCUPIED
        assert p.confidence == 1.0
        assert p.sample_rank == 0
        assert p.adjacent_scan_offset == 1

    def test_crossing_three_meters_past_adjacent_hit_is_unknown(self):
        # crossing at rho = 8 on an adjacent beam that reported 5
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, -3.0]], np.array([10.0, 0.0, -8.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 1
        p = oset[0]
        assert p.state is OccupancyState.UNKNOWN
        np.testing.assert_allclose(p.confidence, math.exp(-3.0), rtol=1e-12)

    def test_crossing_short_of_adjacent_hit_is_free(self):
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 2.0]], np.array([10.0, 0.0, -8.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 1
        assert oset[0].state is OccupancyState.FREE
        assert oset[0].confidence == 1.0

    def test_small_crossing_angle_yields_five_samples(self):
        theta = SENSOR.divergence_angle_rad
        alpha = theta / 2.0
        h = 0.03
        x_cross = h / math.tan(alpha)
        e = np.array([math.cos(alpha), -math.sin(alpha), 0.0])
        a = np.array([0.0, h, 0.0])
        s_j = np.linalg.norm(np.array([x_cross, 0.0, 0.0]) - a) - 0.03
        cur, adj = scan_pair([[x_cross - 0.02, 0.0, 0.0]], [a + s_j * e], a)
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 5
        assert [p.sample_rank for p in oset] == [0, 1, 2, 3, 4]
        # ranks: own hit, projected adjacent hit, then the three midpoints
        r = [np.linalg.norm(p.position) for p in oset]
        np.testing.assert_allclose(r[2], 0.5 * (r[0] + r[1]), rtol=1e-12)
        np.testing.assert_allclose(r[3], 0.5 * (r[0] + x_cross), rtol=1e-6)

    def test_identical_scans_zero_baseline_yield_nothing(self):
        # zero sensor motion: every crossing parameter is zero or the beams
        # are parallel, so no overlap survives; the occupied-only claim for
        # still scenes holds because the set is empty
        pts = unit_rows(np.random.default_rng(0), 50) * np.linspace(2, 40, 50)[:, None]
        cur = Scan(points=pts, time=0.0)
        adj = Scan(points=pts, sensor_origin=np.zeros(3), time=0.5)
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 0
        assert all(p.state is OccupancyState.OCCUPIED for p in oset)

    def test_points_outside_bounds_are_cropped(self):
        cfg = ExtractionConfig(bounds=(-5.0, 5.0, -5.0, 5.0, -2.0, 2.0))
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        assert len(extract_scan_pair(cur, adj, cfg, SENSOR)) == 0

    def test_tail_filter_drops_far_crossings(self):
        # crossing 1 m past the current hit exceeds the default tail
        cur, adj = scan_pair([[9.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) == 0
        relaxed = ExtractionConfig(max_tail_beyond_hit_m=2.0)
        assert len(extract_scan_pair(cur, adj, relaxed, SENSOR)) == 1

    def test_crossing_behind_either_sensor_is_rejected(self):
        # the two centerlines meet only at negative parameters
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 5.0]], np.array([-10.0, 0.0, 5.0]))
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) == 0


class TestScanPairApi:
    def test_offset_follows_time_difference(self):
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert oset[0].adjacent_scan_offset == 1
        adj_past = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=-1.0)
        oset = extract_scan_pair(cur, adj_past, CFG, SENSOR)
        assert oset[0].adjacent_scan_offset == -2

    def test_offsets_stop_at_127_periods(self):
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        far = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=127 * 0.5)
        assert extract_scan_pair(cur, far, CFG, SENSOR)[0].adjacent_scan_offset == 127
        too_far = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=-128 * 0.5)
        with pytest.raises(ValueError):
            extract_scan_pair(cur, too_far, CFG, SENSOR)

    def test_equal_times_rejected(self):
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        adj = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=0.0)
        with pytest.raises(ValueError):
            extract_scan_pair(cur, adj, CFG, SENSOR)

    def test_current_scan_not_in_sensor_frame_rejected(self):
        cur = Scan(points=[[10.0, 0.0, 0.0]], sensor_origin=np.array([1.0, 0.0, 0.0]))
        adj = Scan(points=[[10.0, 0.0, 0.0]], sensor_origin=np.array([10.0, 0.0, -5.0]), time=0.5)
        with pytest.raises(FrameMismatch):
            extract_scan_pair(cur, adj, CFG, SENSOR)

    def test_pose_mismatch_rejected(self):
        rot = np.eye(3)
        cur = Scan(points=[[10.0, 0.0, 0.0]], pose=RigidTransform(rot, np.zeros(3)))
        adj = Scan(
            points=[[10.0, 0.0, 0.0]],
            sensor_origin=np.array([10.0, 0.0, -5.0]),
            time=0.5,
            pose=RigidTransform(rot, np.array([1.0, 0.0, 0.0])),
        )
        with pytest.raises(FrameMismatch):
            extract_scan_pair(cur, adj, CFG, SENSOR)

    def test_empty_adjacent_scan_gives_empty_set(self):
        cur = Scan(points=[[10.0, 0.0, 0.0]])
        adj = Scan(points=np.empty((0, 3)), sensor_origin=np.array([1.0, 0.0, 0.0]), time=0.5)
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) == 0


class TestDirectionIndex:
    def test_every_beam_lands_in_exactly_one_row(self):
        _, adj = random_scan_pair(11)
        index = build_direction_index(adj, 0.003)
        rows = [pos[: len(pos) // 2] for pos in index._pos_doubled]
        assert sorted(np.concatenate(rows).tolist()) == list(range(len(index)))
        assert len(rows) == len(index.row_beta_lo) == len(index.row_beta_hi) <= extraction.ROWS
        # each row's recorded beta range holds its beams, sorted by psi
        beta, _, psi = extraction._baseline_angles(index.directions, index.frame)
        for r, pos in enumerate(rows):
            assert index.row_beta_lo[r] == beta[pos].min() and index.row_beta_hi[r] == beta[pos].max()
            assert np.all(np.diff(psi[pos]) >= 0)

    def test_empty_scan_rejected(self):
        with pytest.raises(EmptyScan):
            build_direction_index(Scan(points=np.empty((0, 3)), time=0.5), 0.003)

    def test_origin_points_are_skipped(self):
        a = np.array([1.0, 0.0, 0.0])
        pts = np.array([a, a + [5.0, 0.0, 0.0]])
        index = build_direction_index(Scan(points=pts, sensor_origin=a, time=0.5), 0.003)
        assert index.beam_ids.tolist() == [1]

    @pytest.mark.parametrize("seed", range(6))
    def test_candidates_cover_all_coplanar_beams(self, seed):
        cur, adj = random_scan_pair(seed, n_current=40, n_adjacent=150)
        index = build_direction_index(adj, 0.003)
        a = adj.sensor_origin
        a_hat = a / np.linalg.norm(a)
        theta = SENSOR.divergence_angle_rad
        for i in range(len(cur)):
            beam = beam_from_point(cur, i)
            got = set(candidate_pairs(beam, index, a))
            n = np.cross(beam.direction, a_hat)
            n = n / np.linalg.norm(n)
            for j in index.beam_ids:
                e = adj.points[j] - a
                e = e / np.linalg.norm(e)
                ang = abs(math.acos(np.clip(np.dot(n, e), -1.0, 1.0)) - math.pi / 2.0)
                if ang <= theta / 2.0:
                    assert int(j) in got

    def test_degenerate_plane_returns_every_beam(self):
        _, adj = random_scan_pair(3, n_adjacent=60)
        index = build_direction_index(adj, 0.003)
        a = adj.sensor_origin
        beam = beam_from_point(Scan(points=[a * 5.0]), 0)  # collinear with baseline
        assert candidate_pairs(beam, index, a) == sorted(int(v) for v in index.beam_ids)


class TestCandidatePairs:
    @pytest.mark.parametrize("row_phase", [0.05, 0.5, 0.95])
    def test_band_around_a_horizontal_plane(self, row_phase):
        # current beam along +x, baseline along +y: the coplanarity plane is
        # z = 0.  Adjacent beams at eight azimuths and elevations 0, +-0.4
        # cell (inside the promised half cell) and +-5 cells (outside it),
        # for three cells a fraction row_phase of a cell apart
        cell = (np.pi / 2) / (523 + row_phase)
        a = np.array([0.0, 2.0, 0.0])
        beam = beam_from_point(Scan(points=[[20.0, 0.0, 0.0]]), 0)
        az = np.linspace(-np.pi, np.pi, 8, endpoint=False) + 0.1
        el = np.array([0.0, 0.4, -0.4, 5.0, -5.0]) * cell
        azg, elg = np.meshgrid(az, el, indexing="ij")
        e = np.stack([np.cos(elg) * np.cos(azg), np.cos(elg) * np.sin(azg), np.sin(elg)], axis=-1)
        adj = Scan(points=a + 10.0 * e.reshape(-1, 3), sensor_origin=a, time=0.5)
        index = build_direction_index(adj, cell)
        inside = np.abs(elg.ravel()) < 0.5 * cell
        assert candidate_pairs(beam, index, a) == np.nonzero(inside)[0].tolist()


def _assert_matches_reference(cur, adj, cfg):
    """Pipeline against the all-pairs reference; returns the record count."""
    oset = extract_scan_pair(cur, adj, cfg, SENSOR)
    ref = brute_force_overlaps(cur, adj, 1, cfg, SENSOR)
    assert len(oset) == len(ref)
    for name in ("current_index", "scan_offset", "adjacent_index", "sample_rank", "state"):
        np.testing.assert_array_equal(oset.records[name], ref[name])
    np.testing.assert_allclose(oset.records["position"], ref["position"], atol=1e-9)
    return len(ref)


class TestForwardArcPruning:
    """Geometry the forward-arc pruning of the band query has to survive:
    every pair it drops must be one the exact crossing test rejects."""

    def test_baseline_with_vertical_component(self):
        dirs = unit_rows(np.random.default_rng(5), 200)
        cur, adj = scan_pair_for_directions(5, [0.7, -0.4, 1.3], dirs)
        assert _assert_matches_reference(cur, adj, CFG) > 10

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_beams_near_the_baseline_axis(self, sign):
        # angles to +a_hat (sign 1) or -a_hat (sign -1) around the 4 theta
        # below which the pruning switches off
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(7)
        a = np.array([1.1, -0.6, 0.45])
        a_hat = a / np.linalg.norm(a)
        gammas = np.repeat(np.array([0.3, 1.0, 2.0, 3.9, 4.1, 6.0, 12.0, 40.0]) * theta, 25)
        u = np.cross(a_hat, unit_rows(rng, len(gammas)))
        u /= np.linalg.norm(u, axis=1)[:, None]
        dirs = np.cos(gammas)[:, None] * sign * a_hat + np.sin(gammas)[:, None] * u
        cur, adj = scan_pair_for_directions(7, a, dirs, n_adjacent=400)
        assert _assert_matches_reference(cur, adj, CFG) > 10

    def test_arcs_straddling_the_azimuth_seam(self):
        # baseline along +x and current beams around azimuth +-pi: the
        # forward arcs from -a_hat to each beam run across the seam
        rng = np.random.default_rng(11)
        az = np.pi + rng.uniform(-0.05, 0.05, 200)
        el = rng.uniform(-0.3, 0.3, 200)
        dirs = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
        cur, adj = scan_pair_for_directions(11, [1.2, 0.05, 0.25], dirs, n_adjacent=400)
        assert _assert_matches_reference(cur, adj, CFG) > 10

    @pytest.mark.parametrize("cells_per_theta", [32, 8, 1, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_cell_sizes(self, cells_per_theta, seed):
        # the cell size only sets candidate_pairs' half-width; extraction
        # must give the reference's records whatever it is
        cfg = ExtractionConfig(cell_size_rad=SENSOR.divergence_angle_rad / cells_per_theta)
        cur, adj = random_scan_pair(seed, n_current=200, n_adjacent=300)
        assert _assert_matches_reference(cur, adj, cfg) > 10


def _baseline_frame(a):
    """a_hat and two unit axes completing it to a right-handed frame."""
    a_hat = a / np.linalg.norm(a)
    u = np.cross(a_hat, [0.3, -0.5, 0.8])
    u /= np.linalg.norm(u)
    return a_hat, u, np.cross(a_hat, u)


def _at(frame, beta, psi):
    """Unit directions at angle beta to a_hat and azimuth psi around it."""
    a_hat, u, v = frame
    beta, psi = (np.asarray(x, dtype=float)[:, None] for x in np.broadcast_arrays(beta, psi))
    return np.cos(beta) * a_hat + np.sin(beta) * (np.cos(psi) * u + np.sin(psi) * v)


def _baseline_pair(rng, a, cur_dirs, adj_dirs):
    cur = Scan(points=cur_dirs * rng.uniform(5.0, 60.0, (len(cur_dirs), 1)), time=0.0)
    adj_pts = a + adj_dirs * rng.uniform(5.0, 60.0, (len(adj_dirs), 1))
    return cur, Scan(points=adj_pts, sensor_origin=a, time=0.5)


def _far_side_records(cur, adj, rec):
    """How many records pair beams on opposite sides of the baseline axis."""
    a_hat = adj.sensor_origin / np.linalg.norm(adj.sensor_origin)
    d = cur.points[rec["current_index"]]
    e = adj.points[rec["adjacent_index"]] - adj.sensor_origin
    d = d - np.outer(d @ a_hat, a_hat)
    e = e - np.outer(e @ a_hat, a_hat)
    return int(np.sum(np.einsum("ij,ij->i", d, e) < 0.0))


class TestBaselineRows:
    """Edges of the beta-row index, each against the all-pairs reference."""

    def test_directions_on_row_boundaries(self):
        # every adjacent beam sits within rounding of a row boundary past
        # its partner's gamma, in the partner's plane up to 0.45 theta
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(21)
        a = np.array([0.9, -0.3, 0.2])
        f = _baseline_frame(a)
        gamma = rng.uniform(0.1, np.pi - 0.3, 300)
        psi_d = rng.uniform(-np.pi, np.pi, 300)
        k = np.floor(gamma * extraction.ROWS / np.pi) + rng.integers(1, 4, 300)
        beta = k * (np.pi / extraction.ROWS)
        beta = np.where(rng.random(300) < 0.5, np.nextafter(beta, 0.0), beta)
        tilt = np.arcsin(rng.uniform(-1.0, 1.0, 300) * math.sin(0.45 * theta) / np.sin(beta))
        cur, adj = _baseline_pair(rng, a, _at(f, gamma, psi_d), _at(f, beta, psi_d + tilt))
        assert _assert_matches_reference(cur, adj, CFG) > 10

    def test_far_half_plane_next_to_minus_a_hat(self):
        # current beams just past the 4 theta at which pruning starts, and
        # adjacent beams 0.5025 theta from -a_hat (so their row reads
        # windows, not the whole row) whose azimuth is a little over a
        # quarter turn from some current beam's: they sit on its far
        # half-plane and still cross it ahead of both sensors
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(22)
        a = np.array([1.1, 0.4, -0.3])
        f = _baseline_frame(a)
        gamma = math.asin(4.0 * theta) * rng.uniform(1.0001, 1.02, 200)
        psi_d = rng.uniform(-np.pi, np.pi, 200)
        k = rng.integers(0, 200, 400)
        off = np.pi - 0.5025 * theta * rng.uniform(1.0, 1.0005, 400)
        psi_e = psi_d[k] + rng.choice((-1.0, 1.0), 400) * np.arccos(rng.uniform(-0.12, -0.105, 400))
        cur, adj = _baseline_pair(rng, a, _at(f, gamma, psi_d), _at(f, off, psi_e))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert _assert_matches_reference(cur, adj, CFG) > 10
        assert _far_side_records(cur, adj, oset.records) > 10

    def test_near_antiparallel_beams(self):
        # an adjacent beam almost opposite a current one, tilted out of
        # their plane: the closest points of the two lines lie ahead of
        # both sensors, on the far half-plane at beta = pi - gamma
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(23)
        a = np.array([-0.7, 1.3, 0.5])
        f = _baseline_frame(a)
        gamma = rng.uniform(0.1, 1.4, 100)
        psi_d = rng.uniform(-np.pi, np.pi, 100)
        tilt = np.arcsin(rng.uniform(-0.95, 0.95, 100) * math.sin(theta / 2) / np.sin(gamma))
        cur, adj = _baseline_pair(rng, a, _at(f, gamma, psi_d), _at(f, np.pi - gamma, psi_d + np.pi + tilt))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert _assert_matches_reference(cur, adj, CFG) > 10
        assert _far_side_records(cur, adj, oset.records) > 10

    @pytest.mark.parametrize("ratio", [0.999 - 1e-6, 0.999 + 1e-6])
    def test_windows_that_just_turn_full(self, ratio):
        # the last row's smallest sin(beta) puts s_lim / sin(beta) just
        # below or above the 0.999 at which a window reads the whole row;
        # 300 of its 800 beams sit within 1e-9 rad of a window edge
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(24)
        a = np.array([0.5, 0.8, -1.2])
        f = _baseline_frame(a)
        gamma = rng.uniform(0.1, 2.5, 200)
        psi_d = rng.uniform(-np.pi, np.pi, 200)
        beta_1 = np.pi - math.asin((math.sin(theta / 2) + 1e-9) / ratio)
        k = rng.integers(0, 200, 300)
        edge = psi_d[k] + rng.choice((-1.0, 1.0), 300) * (math.asin(ratio) + rng.uniform(-1e-9, 1e-9, 300))
        beta = np.concatenate([np.full(600, beta_1), rng.uniform(np.pi * (1 - 1 / extraction.ROWS) + 1e-3, beta_1, 200)])
        psi_e = np.concatenate([edge, rng.uniform(-np.pi, np.pi, 500)])
        cur, adj = _baseline_pair(rng, a, _at(f, gamma, psi_d), _at(f, beta, psi_e))
        assert _assert_matches_reference(cur, adj, CFG) > 10


class TestOriginBeams:
    def test_beams_on_the_origin_draw_no_candidates(self, monkeypatch):
        # half the current points moved onto the sensor origin must cost the
        # band query nothing over deleting them outright
        cur, adj = random_scan_pair(4, n_current=200, n_adjacent=300)
        on_origin = np.arange(0, 200, 2)
        pts = cur.points.copy()
        pts[on_origin] = 0.0
        scans = (Scan(points=pts, time=0.0), Scan(points=np.delete(cur.points, on_origin, axis=0), time=0.0))
        band_query = extraction._band_candidates
        drawn = []

        def counting(*args):
            ii, jj = band_query(*args)
            drawn.append(len(ii))
            return ii, jj

        monkeypatch.setattr(extraction, "_band_candidates", counting)
        totals = []
        for scan in scans:
            drawn.clear()
            assert _assert_matches_reference(scan, adj, CFG) > 0
            totals.append(sum(drawn))
        assert totals[0] == totals[1] > 0


class TestZeroBaseline:
    """A stationary sensor: the adjacent origin is exactly zero in the
    current frame, every crossing parameter is zero or NaN, and the pair is
    skipped before the index build.  Without the skip every beam is
    degenerate and pairs with every adjacent beam, which at full size would
    take gigabytes, so the index build is made to fail loudly instead."""

    @pytest.fixture
    def no_index(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a zero baseline reached the index build")

        monkeypatch.setattr(extraction, "build_direction_index", refuse)

    def test_small_pair_matches_brute_force(self):
        cur, adj = random_scan_pair(5, n_current=150, n_adjacent=150)
        for origin in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]):
            adj0 = Scan(points=adj.points - adj.sensor_origin, sensor_origin=np.array(origin), time=0.5)
            want = brute_force_overlaps(cur, adj0, 1, CFG, SENSOR)
            got = extract_scan_pair(cur, adj0, CFG, SENSOR).records
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_skipped_before_the_index(self, no_index):
        cur, adj = random_scan_pair(6, n_current=50, n_adjacent=50)
        adj0 = Scan(points=adj.points, sensor_origin=np.zeros(3), time=0.5)
        assert len(extract_scan_pair(cur, adj0, CFG, SENSOR)) == 0

    def test_full_size_pair_under_a_second(self, no_index):
        rng = np.random.default_rng(7)
        n = 32 * 1024
        cur = Scan(points=unit_rows(rng, n) * rng.uniform(2.0, 60.0, (n, 1)), time=0.0)
        adj = Scan(points=unit_rows(rng, n) * rng.uniform(2.0, 60.0, (n, 1)),
                   sensor_origin=np.zeros(3), time=0.5)
        t0 = time.perf_counter()
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR, threads=2)) == 0
        assert time.perf_counter() - t0 < 1.0


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_pipeline_matches_all_pairs_reference(self, seed):
        cur, adj = random_scan_pair(seed, n_current=200, n_adjacent=200)
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        ref = brute_force_overlaps(cur, adj, 1, CFG, SENSOR)
        assert len(oset) == len(ref)
        for name in ("current_index", "scan_offset", "adjacent_index", "sample_rank", "state"):
            np.testing.assert_array_equal(oset.records[name], ref[name])
        np.testing.assert_allclose(oset.records["position"], ref["position"], atol=1e-9)
        np.testing.assert_allclose(oset.records["confidence"], ref["confidence"], atol=1e-12)

    def test_pipeline_finds_pairs(self):
        # guard against vacuous equivalence: the generator must produce overlaps
        cur, adj = random_scan_pair(0, n_current=200, n_adjacent=200)
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) > 10

    def test_spinning_scan_pair_matches_reference(self):
        # ring-structured scans put thousands of beams inside each band and
        # are the stress case for the candidate query's windows
        cur, adj = _spinning_pair(channels=8, azimuths=64)
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        ref = brute_force_overlaps(cur, adj, 1, CFG, SENSOR)
        assert len(oset) == len(ref) > 0
        for name in ("current_index", "scan_offset", "adjacent_index", "sample_rank", "state"):
            np.testing.assert_array_equal(oset.records[name], ref[name])
        np.testing.assert_allclose(oset.records["position"], ref["position"], atol=1e-9)

    def test_no_duplicate_records_on_ring_geometry(self):
        cur, adj = _spinning_pair(channels=16, azimuths=256)
        rec = extract_scan_pair(cur, adj, CFG, SENSOR).records
        keys = (
            rec["current_index"].astype(np.int64) * (1 << 40)
            + rec["adjacent_index"].astype(np.int64) * (1 << 8)
            + rec["sample_rank"]
        )
        assert len(np.unique(keys)) == len(keys)


class TestSequence:
    def _window(self, n=2, n_points=80, t_current=0.0):
        rng = np.random.default_rng(42)
        scans = []
        for k in range(2 * n + 1):
            t = t_current + 0.5 * (k - n)
            shift = np.array([0.8 * (k - n), 0.0, 0.0])
            pose = RigidTransform(np.eye(3), shift)
            pts = unit_rows(rng, n_points) * rng.uniform(2.0, 50.0, (n_points, 1))
            scans.append(Scan(points=pts, time=t, pose=pose))
        current = scans[n]
        return current, scans[:n] + scans[n + 1 :]

    def test_offsets_and_times_are_window_positions(self):
        cfg = ExtractionConfig(n_adjacent=2)
        current, adjacents = self._window(2)
        oset = extract_sequence(current, adjacents, cfg, SENSOR)
        assert len(oset) > 0
        offs = np.unique(oset.records["scan_offset"])
        assert set(offs.tolist()) <= {-2, -1, 1, 2}
        for off in offs:
            times = np.unique(oset.records["time"][oset.records["scan_offset"] == off])
            assert len(times) == 1
            np.testing.assert_allclose(times[0], 0.5 * off)

    def test_times_are_relative_to_the_current_scan(self):
        cfg = ExtractionConfig(n_adjacent=2)
        current, adjacents = self._window(2, t_current=1.5)
        rec = extract_sequence(current, adjacents, cfg, SENSOR).records
        assert len(rec) > 0
        np.testing.assert_array_equal(rec["time"], 0.5 * rec["scan_offset"])

    def test_offsets_must_fit_the_record_byte(self):
        assert ExtractionConfig(n_adjacent=127).n_adjacent == 127
        with pytest.raises(ValueError):
            ExtractionConfig(n_adjacent=128)

    def test_canonical_order(self):
        cfg = ExtractionConfig(n_adjacent=2)
        current, adjacents = self._window(2)
        rec = extract_sequence(current, adjacents, cfg, SENSOR).records
        keys = list(zip(rec["current_index"], rec["scan_offset"], rec["adjacent_index"], rec["sample_rank"]))
        assert keys == sorted(keys)

    def test_wrong_window_size_rejected(self):
        cfg = ExtractionConfig(n_adjacent=3)
        current, adjacents = self._window(2)
        with pytest.raises(ValueError):
            extract_sequence(current, adjacents, cfg, SENSOR)

    def test_current_scan_not_in_its_own_frame_rejected(self):
        cfg = ExtractionConfig(n_adjacent=2)
        current, adjacents = self._window(2)
        moved = Scan(points=current.points, sensor_origin=np.array([0.0, 0.0, 1.0]), time=current.time,
                     pose=current.pose)
        with pytest.raises(FrameMismatch):
            extract_sequence(moved, adjacents, cfg, SENSOR)

    def test_missing_pose_rejected(self):
        cfg = ExtractionConfig(n_adjacent=2)
        current, adjacents = self._window(2)
        broken = Scan(points=adjacents[0].points, time=adjacents[0].time, pose=None)
        with pytest.raises(MissingPose):
            extract_sequence(current, [broken] + adjacents[1:], cfg, SENSOR)

    def test_thread_count_does_not_change_bytes(self):
        cfg = ExtractionConfig(n_adjacent=1)
        current, adjacents = self._window(1, n_points=9000)
        base = extract_sequence(current, adjacents, cfg, SENSOR, threads=1)
        for threads in (2, 8):
            again = extract_sequence(current, adjacents, cfg, SENSOR, threads=threads)
            assert again.records.tobytes() == base.records.tobytes()

    def test_per_beam_cap(self):
        cfg = ExtractionConfig(n_adjacent=2, max_overlaps_per_beam=1)
        current, adjacents = self._window(2)
        rec = extract_sequence(current, adjacents, cfg, SENSOR).records
        _, counts = np.unique(rec["current_index"], return_counts=True)
        assert counts.max() <= 1


class TestBalanceClasses:
    def _synthetic(self, n_free, n_occ, n_unk):
        total = n_free + n_occ + n_unk
        rec = np.zeros(total, dtype=RECORD_DTYPE)
        rec["current_index"] = np.arange(total)
        rec["state"] = np.array(
            [int(OccupancyState.FREE)] * n_free
            + [int(OccupancyState.OCCUPIED)] * n_occ
            + [int(OccupancyState.UNKNOWN)] * n_unk,
            dtype=np.uint8,
        )
        return OverlapSet(rec)

    def test_five_to_one_to_one_ratio(self):
        out = balance_classes(self._synthetic(3000, 100, 700), seed=0)
        counts = out.counts
        assert counts[OccupancyState.OCCUPIED] == 100
        assert counts[OccupancyState.FREE] == 500
        assert counts[OccupancyState.UNKNOWN] == 100

    def test_short_supply_keeps_what_exists(self):
        out = balance_classes(self._synthetic(120, 100, 30), seed=0)
        counts = out.counts
        assert counts[OccupancyState.OCCUPIED] == 100
        assert counts[OccupancyState.FREE] == 120
        assert counts[OccupancyState.UNKNOWN] == 30

    def test_no_occupied_empties_the_set(self):
        out = balance_classes(self._synthetic(50, 0, 50), seed=0)
        assert len(out) == 0

    def test_selection_is_deterministic_and_a_subset(self):
        src = self._synthetic(3000, 100, 700)
        a = balance_classes(src, seed=7)
        b = balance_classes(src, seed=7)
        c = balance_classes(src, seed=8)
        assert a.records.tobytes() == b.records.tobytes()
        assert a.records.tobytes() != c.records.tobytes()
        src_keys = set(src.records["current_index"].tolist())
        assert set(a.records["current_index"].tolist()) <= src_keys

    def test_output_keeps_canonical_order(self):
        out = balance_classes(self._synthetic(3000, 100, 700), seed=3)
        idx = out.records["current_index"]
        assert np.all(np.diff(idx.astype(np.int64)) >= 0)
