"""Overlap extraction: candidate index, pair geometry, labeling, balance."""

import ast
import dataclasses
import hashlib
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from brute_force import brute_force_overlaps
from scan_factories import C10_SCENE_YAML, random_scan_pair, scan_pair_for_directions, unit_rows
from tovp import OccupancyState, RigidTransform, Scan, SensorConfig, beam_from_point, extraction, formats
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
    extract_sequence_blocks,
)
from tovp.geometry import ORIGIN_EPS, PARALLEL_EPS, centerline_intersection, coplanarity_angle, plane_normal

SENSOR = SensorConfig()
CFG = ExtractionConfig()


def scan_pair(cur_pts, adj_pts, adj_origin):
    cur = Scan(points=np.asarray(cur_pts, dtype=float), time=0.0)
    adj = Scan(points=np.asarray(adj_pts, dtype=float), sensor_origin=adj_origin, time=0.5)
    return cur, adj


def _spinning_pair(channels, azimuths):
    from tovp.simulator import SceneBox, SceneSpec, SpinningLidarSpec, simulate_scan_with_hits

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
    cur = simulate_scan_with_hits(scene, lidar, p0, 0.0)[0]
    adj = simulate_scan_with_hits(scene, lidar, p1, 0.5)[0].in_frame_of(cur)
    return cur, adj


class TestPairGeometryAndLabels:
    def test_right_angle_crossing_at_adjacent_hit_is_occupied(self):
        # adjacent beam rises from below and stops exactly where the current
        # beam's centerline passes: crossing range equals the reported range
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 1
        p = oset.records[0]
        np.testing.assert_allclose(p["position"], [10.0, 0.0, 0.0], atol=1e-12)
        assert p["state"] == OccupancyState.OCCUPIED
        assert p["confidence"] == 1.0
        assert p["sample_rank"] == 0
        assert p["scan_offset"] == 1

    def test_crossing_three_meters_past_adjacent_hit_is_unknown(self):
        # crossing at rho = 8 on an adjacent beam that reported 5
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, -3.0]], np.array([10.0, 0.0, -8.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 1
        p = oset.records[0]
        assert p["state"] == OccupancyState.UNKNOWN
        # within rtol 1e-12 of exp(-3), as held in float32
        tol = 1e-12 * math.exp(-3.0)
        assert np.float32(math.exp(-3.0) - tol) <= p["confidence"] <= np.float32(math.exp(-3.0) + tol)

    def test_crossing_short_of_adjacent_hit_is_free(self):
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 2.0]], np.array([10.0, 0.0, -8.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert len(oset) == 1
        assert oset.records[0]["state"] == OccupancyState.FREE
        assert oset.records[0]["confidence"] == 1.0

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
        assert oset.records["sample_rank"].tolist() == [0, 1, 2, 3, 4]
        # ranks: own hit, projected adjacent hit, then the three midpoints
        r = [np.linalg.norm(pos) for pos in oset.records["position"]]
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
        assert np.all(oset.records["state"] == OccupancyState.OCCUPIED)

    def test_points_outside_bounds_are_cropped(self):
        cfg = ExtractionConfig(bounds=(-5.0, 5.0, -5.0, 5.0, -2.0, 2.0))
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        assert len(extract_scan_pair(cur, adj, cfg, SENSOR)) == 0
        # the pair kernel gives an empty record array for a slice that keeps
        # no sample: this pair cropped, or, with the adjacent beam turned
        # around, crossing behind the adjacent sensor
        d, a = np.array([[1.0, 0.0, 0.0]]), adj.sensor_origin
        _, span = extraction._band_planes(d, a)
        one = np.zeros(1, dtype=np.intp)
        for up, c, n in ((1.0, CFG, 1), (1.0, cfg, 0), (-1.0, CFG, 0)):
            e = np.array([[0.0, 0.0, up]])
            rec = extraction._pair_records(one, one, (one, d, np.array([10.0]), span),
                                           (one, e, np.array([5.0]), a + 5.0 * e), a, 1, 0.5, c, SENSOR)
            assert rec.dtype == RECORD_DTYPE and len(rec) == n

    def test_tail_filter_drops_far_crossings(self):
        # crossing 1 m past the current hit exceeds the default tail
        cur, adj = scan_pair([[9.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) == 0
        relaxed = ExtractionConfig(max_tail_beyond_hit_m=2.0)
        assert len(extract_scan_pair(cur, adj, relaxed, SENSOR)) == 1

    def test_near_antiparallel_lines_that_never_meet_give_nothing(self):
        # 2 m baseline, current beam at 60 deg to it, adjacent beam along -d
        # turned 2.9e-7 rad in their plane and tilted 0.001 rad out of it:
        # coplanar within theta / 2, and the closest points of the two
        # centerlines lie ahead of both sensors, but 1.7 m apart, where
        # the two beam radii add up to 1.5 mm
        theta = SENSOR.divergence_angle_rad
        a = np.array([2.0, 0.0, 0.0])
        d = np.array([0.5, math.sqrt(3.0) / 2.0, 0.0])
        turn, tilt = -2.9e-7, 1e-3
        e = -(math.cos(turn) * d + math.sin(turn) * np.array([-d[1], d[0], 0.0]))
        e = math.cos(tilt) * e + math.sin(tilt) * np.array([0.0, 0.0, 1.0])
        assert abs(coplanarity_angle(plane_normal(d, a), e)) < theta / 2
        q, t, p_adj = centerline_intersection(d, a, e)
        assert np.linalg.norm(q - (a + p_adj * e)) > 1.7 > 1000 * (t + p_adj) * math.tan(theta / 2)
        cur, adj = scan_pair([d * (t + 0.01)], [a + e * (p_adj + 1.0)], a)
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) == 0

    def test_crossing_behind_either_sensor_is_rejected(self):
        # the two centerlines meet only at negative parameters
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 5.0]], np.array([-10.0, 0.0, 5.0]))
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) == 0


class TestScanPairApi:
    def test_offset_follows_time_difference(self):
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        assert oset.records[0]["scan_offset"] == 1
        adj_past = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=-1.0)
        oset = extract_scan_pair(cur, adj_past, CFG, SENSOR)
        assert oset.records[0]["scan_offset"] == -2

    def test_offsets_stop_at_127_periods(self):
        cur, adj = scan_pair([[10.0, 0.0, 0.0]], [[10.0, 0.0, 0.0]], np.array([10.0, 0.0, -5.0]))
        far = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=127 * 0.5)
        assert extract_scan_pair(cur, far, CFG, SENSOR).records[0]["scan_offset"] == 127
        too_far = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=-128 * 0.5)
        with pytest.raises(ValueError, match="stop at 127"):
            extract_scan_pair(cur, too_far, CFG, SENSOR)
        # a time difference of no finite number of periods names itself
        for t in (math.inf, -math.inf, math.nan, 1e308):
            unbounded = Scan(points=adj.points, sensor_origin=adj.sensor_origin, time=t)
            with pytest.raises(ValueError, match="time difference to the adjacent scan is"):
                extract_scan_pair(cur, unbounded, CFG, SENSOR)

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

    def test_adjacent_points_all_on_its_origin_give_empty_set(self):
        # the current beam spans a plane with the baseline, but no adjacent
        # point forms a beam, so the scan pair has no direction index
        a = np.array([1.0, 0.0, 0.0])
        cur = Scan(points=[[0.0, 8.0, 1.0]])
        adj = Scan(points=np.tile(a, (3, 1)), sensor_origin=a, time=0.5)
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) == 0


class TestDirectionIndex:
    def test_every_beam_lands_in_exactly_one_row(self):
        _, adj = random_scan_pair(11)
        index = build_direction_index(adj, 0.003)
        rows = [index._pos[s:s + n] for s, n in zip(index._row_start, index._row_len)]
        assert sorted(np.concatenate(rows).tolist()) == list(range(len(index)))
        # each row is followed by its copy one turn up, and the shifted
        # azimuths of all rows form one sorted array
        for s, n in zip(index._row_start, index._row_len):
            assert np.array_equal(index._pos[s:s + n], index._pos[s + n:s + 2 * n])
        assert len(index._psi) == 2 * len(index) and np.all(np.diff(index._psi) >= 0)
        assert len(rows) == len(index.row_beta_lo) == len(index.row_beta_hi) <= extraction.ROWS
        # each row's recorded beta range holds its beams, sorted by psi
        beta, _, psi = extraction._baseline_angles(index.directions, index.frame)
        for r, pos in enumerate(rows):
            assert index.row_beta_lo[r] == beta[pos].min() and index.row_beta_hi[r] == beta[pos].max()
            assert np.all(np.diff(psi[pos]) >= 0)

    def test_empty_scan_rejected(self):
        # an empty scan has no point that forms a beam: one rule for both
        with pytest.raises(EmptyScan, match="no adjacent point forms a valid beam"):
            build_direction_index(Scan(points=np.empty((0, 3)), time=0.5), 0.003)

    def test_ranges_to_indices(self):
        # ranges joined in order: one that starts at 0, several, and none
        for starts, ends, want in (([0], [3], [0, 1, 2]),
                                   ([0, 5, 6], [2, 6, 9], [0, 1, 5, 6, 7, 8]),
                                   ([], [], [])):
            got = extraction._ranges_to_indices(np.array(starts, dtype=np.int64),
                                                np.array(ends, dtype=np.int64))
            assert got.dtype == np.int32 and got.tolist() == want

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

    def test_degenerate_plane_returns_no_beam(self):
        # a beam collinear with the baseline spans no plane and forms no record
        _, adj = random_scan_pair(3, n_adjacent=60)
        index = build_direction_index(adj, 0.003)
        a = adj.sensor_origin
        beam = beam_from_point(Scan(points=[a * 5.0]), 0)
        assert candidate_pairs(beam, index, a) == []


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


@pytest.fixture(params=[1, 37, 2048])
def chunk(request, monkeypatch):
    """Blocks of one beam, of 37 beams (so blocks end mid scan, and a scan
    of a few hundred beams spans several), and of the default 2048."""
    monkeypatch.setattr(extraction, "CHUNK", request.param)
    return request.param


def _assert_matches_reference(cur, adj, cfg=CFG, threads=1):
    """Pipeline against the all-pairs reference, byte for byte, as both run
    one pair kernel; returns the record count."""
    got = extract_scan_pair(cur, adj, cfg, SENSOR, threads=threads).records
    ref = brute_force_overlaps(cur, adj, 1, cfg, SENSOR)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
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

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_sizes(self, seed, chunk, threads):
        # random pairs cut into blocks that end anywhere in the scan
        cur, adj = random_scan_pair(seed, n_current=200, n_adjacent=300)
        assert _assert_matches_reference(cur, adj, CFG, threads) > 10


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


def _far_side(adj, d, e):
    """Whether directions d and e lie on opposite sides of the baseline axis."""
    a_hat = adj.sensor_origin / np.linalg.norm(adj.sensor_origin)
    d = d - np.outer(d @ a_hat, a_hat)
    e = e - np.outer(e @ a_hat, a_hat)
    return np.einsum("ij,ij->i", d, e) < 0.0


def _far_side_records(cur, adj, rec):
    """How many records pair beams on opposite sides of the baseline axis."""
    d = cur.points[rec["current_index"]]
    e = adj.points[rec["adjacent_index"]] - adj.sensor_origin
    return int(np.sum(_far_side(adj, d, e)))


def _far_side_crossings_covered(cur, adj):
    """Check that the band query draws every pair within theta / 2 of
    coplanar whose centerlines cross ahead of both sensors (t > 0 and
    p_adj > 0) and pass within the beam radii there, (t + p_adj)
    tan(theta / 2) (padded by 1e-6 of it), the pairs its pruning promises
    to keep.  Returns how many pairs on opposite sides of the baseline axis
    cross ahead of both sensors, and how many of those pass that gap."""
    theta = SENSOR.divergence_angle_rad
    a = adj.sensor_origin
    index = build_direction_index(adj, CFG.cell_size(SENSOR))
    _, d, _ = cur.beams()
    e = index.directions
    ii, jj = extraction._band_candidates(index, d, math.sin(theta / 2.0), theta)
    drawn = np.zeros((len(d), len(e)), dtype=bool)
    drawn[ii, jj] = True

    n = np.cross(d, a / np.linalg.norm(a))
    n /= np.linalg.norm(n, axis=1)[:, None]
    m = np.cross(d[:, None, :], e[None, :, :])
    mm = np.einsum("ijk,ijk->ij", m, m)
    t = np.einsum("jk,ijk->ij", np.cross(a, e), m) / mm
    p_adj = np.einsum("ijk,jk->ij", t[:, :, None] * d[:, None, :] - a, e)
    crossing = (np.abs(n @ e.T) <= math.sin(theta / 2.0)) & (t > 0.0) & (p_adj > 0.0)
    meet = np.abs(m @ a) / np.sqrt(mm) <= (t + p_adj) * math.tan(theta / 2.0) * (1.0 + 1e-6)
    assert np.all(drawn[crossing & meet])
    i, j = np.nonzero(crossing)
    far = _far_side(adj, d[i], e[j])
    return int(np.sum(far)), int(np.sum(far & meet[i, j]))


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

    def test_pairs_at_the_coplanarity_bound(self):
        # every adjacent beam lies within a few ulps of sin(theta / 2) from
        # its partner's band plane, at the lower beta edge of a row below
        # pi / 2: its sin(beta) is its row's smallest, so its window's edge
        # is the kernel's bound, and only the band's pad keeps every pair
        # the kernel's coplanarity gate, |m . a| <= sin(theta / 2) |d x a|,
        # keeps.  Current beams from 0.3 theta off the baseline axis, below
        # the 4 theta at which pruning starts, to about 1 rad
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(25)
        a = np.array([0.9, -0.3, 0.2])
        f = _baseline_frame(a)
        gamma = np.repeat(np.array([0.3, 1.0, 3.9, 4.1, 12.0, 40.0, 150.0, 350.0]) * theta, 25)
        psi_d = rng.uniform(-np.pi, np.pi, 200)
        k = rng.integers(0, 200, 600)
        row = np.floor(gamma[k] * extraction.ROWS / np.pi) + rng.integers(2, 5, 600)
        beta = row * (np.pi / extraction.ROWS)
        tilt = np.arcsin(math.sin(theta / 2) / np.sin(beta)) + rng.uniform(-4.0, 4.0, 600) * 2.0 ** -52
        psi_e = psi_d[k] + rng.choice((-1.0, 1.0), 600) * tilt
        cur, adj = _baseline_pair(rng, a, _at(f, gamma, psi_d), _at(f, beta, psi_e))
        assert _assert_matches_reference(cur, adj, CFG) > 100

        index = build_direction_index(adj, CFG.cell_size(SENSOR))
        d = cur.beams()[1]
        live, span = extraction._band_planes(d, a)
        d = d[live]
        ii, jj = extraction._band_candidates(index, d, math.sin(theta / 2.0))
        drawn = np.zeros((len(d), len(index)), dtype=bool)
        drawn[ii, jj] = True
        m = np.cross(d[:, None, :], index.directions[None, :, :])
        kept = np.abs(m @ a) <= math.sin(theta / 2.0) * span[:, None]
        assert np.count_nonzero(kept) > 500 and np.all(drawn[kept])

    def test_far_half_plane_next_to_minus_a_hat(self):
        # current beams just past the 4 theta at which pruning starts, and
        # adjacent beams eps from -a_hat, with sin(eps) just over the
        # 1.001 sin(theta / 2) at which their row would be read whole: each
        # is tilted out of some current beam's plane by just under
        # theta / 2, so its azimuth is a little over a quarter turn from
        # the beam's (cosine about -0.06), on the far half-plane.  These
        # pairs cross ahead of both sensors within the beam radii, and only
        # the far window reads them
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(22)
        a = np.array([3.0, 0.0, 0.0])
        f = _baseline_frame(a)
        gamma = math.asin(4.0 * theta) * rng.uniform(1.0001, 1.05, 200)
        psi_d = rng.uniform(-np.pi, np.pi, 200)
        k = rng.integers(0, 200, 400)
        sin_eps = 1.001 * math.sin(theta / 2) * rng.uniform(1.00005, 1.001, 400)
        tilt = rng.uniform(0.998, 1.0, 400) * math.sin(theta / 2)
        psi_e = psi_d[k] + rng.choice((-1.0, 1.0), 400) * (np.pi - np.arcsin(tilt / sin_eps))
        cur, adj = _baseline_pair(rng, a, _at(f, gamma, psi_d), _at(f, np.pi - np.arcsin(sin_eps), psi_e))
        assert _assert_matches_reference(cur, adj, CFG) > 10
        assert _far_side_records(cur, adj, extract_scan_pair(cur, adj, CFG, SENSOR).records) > 10
        assert _far_side_crossings_covered(cur, adj)[1] > 10

    def test_near_antiparallel_beams(self):
        # an adjacent beam almost opposite a current one, tilted out of
        # their plane: the closest points of the two lines lie ahead of
        # both sensors, on the far half-plane at beta = pi - gamma, but the
        # lines pass a baseline's width apart, so none gives a record
        theta = SENSOR.divergence_angle_rad
        rng = np.random.default_rng(23)
        a = np.array([-0.7, 1.3, 0.5])
        f = _baseline_frame(a)
        gamma = rng.uniform(0.1, 1.4, 100)
        psi_d = rng.uniform(-np.pi, np.pi, 100)
        tilt = np.arcsin(rng.uniform(-0.95, 0.95, 100) * math.sin(theta / 2) / np.sin(gamma))
        cur, adj = _baseline_pair(rng, a, _at(f, gamma, psi_d), _at(f, np.pi - gamma, psi_d + np.pi + tilt))
        oset = extract_scan_pair(cur, adj, CFG, SENSOR)
        _assert_matches_reference(cur, adj, CFG)
        crossing, meeting = _far_side_crossings_covered(cur, adj)
        assert crossing > 10 and meeting == 0
        assert _far_side_records(cur, adj, oset.records) == 0

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
        beta_1 = np.pi - math.asin(math.sin(theta / 2) / ratio)
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


def _short_baseline_pair(length):
    """300 random beams per side, the adjacent origin ``length`` from the
    current one."""
    rng = np.random.default_rng(8)
    a = np.array([0.0, length, 0.0])
    cur = Scan(points=unit_rows(rng, 300) * rng.uniform(2.0, 60.0, (300, 1)), time=0.0)
    adj_pts = a + unit_rows(rng, 300) * rng.uniform(2.0, 60.0, (300, 1))
    return cur, Scan(points=adj_pts, sensor_origin=a, time=0.5)


class TestZeroBaseline:
    """A stationary sensor: the adjacent origin lies ORIGIN_EPS or less from
    the current one, so no beam spans a band plane with the baseline, and a
    degenerate plane gives no record.  The pair is skipped before the index
    build; counted as coplanar, the pairs of skew lines that start within a
    millimetre give records for about a quarter of all beam pairs, all
    within centimetres of the sensor, so the index build is made to fail
    loudly instead."""

    @pytest.fixture
    def no_index(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a zero baseline reached the index build")

        monkeypatch.setattr(extraction, "build_direction_index", refuse)

    def test_small_pair_matches_brute_force(self):
        cur, adj = random_scan_pair(5, n_current=150, n_adjacent=150)
        for origin in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]):
            adj0 = Scan(points=adj.points - adj.sensor_origin, sensor_origin=np.array(origin), time=0.5)
            _assert_matches_reference(cur, adj0)

    def test_skipped_before_the_index(self, no_index):
        cur, adj = random_scan_pair(6, n_current=50, n_adjacent=50)
        adj0 = Scan(points=adj.points, sensor_origin=np.zeros(3), time=0.5)
        assert len(extract_scan_pair(cur, adj0, CFG, SENSOR)) == 0

    @pytest.mark.parametrize("length", [1e-9, 5e-4, 1e-3])
    def test_baselines_up_to_origin_eps_give_nothing(self, no_index, length):
        assert _assert_matches_reference(*_short_baseline_pair(length)) == 0

    def test_baseline_just_over_origin_eps_matches_reference(self):
        assert _assert_matches_reference(*_short_baseline_pair(1.001e-3)) > 0

    def test_beams_on_the_baseline_line_give_nothing(self):
        # current beams through the adjacent origin span no plane with the
        # baseline; counted as coplanar they gave hundreds of records here
        a = np.array([1.3, -0.7, 0.4])
        cur = Scan(points=a * np.array([[3.3], [5.0], [7.1], [12.0], [25.0], [40.0]]), time=0.0)
        _, adj = _short_baseline_pair(1.0)
        adj = Scan(points=adj.points - adj.sensor_origin + a, sensor_origin=a, time=0.5)
        assert _assert_matches_reference(cur, adj) == 0

    def test_some_beams_on_the_baseline_line(self):
        # every 50th current point moved onto the baseline line, on both
        # sides of the current origin: those beams span no plane and give
        # no record, and the rest are extracted as the reference extracts them
        cur, adj = random_scan_pair(9, n_current=600, n_adjacent=600)
        a = adj.sensor_origin
        pts = cur.points.copy()
        on_line = np.arange(0, len(pts), 50)
        pts[on_line] = a * np.linspace(-20.0, 30.0, len(on_line))[:, None]
        cur = Scan(points=pts, time=0.0)
        ids, d, _ = cur.beams()
        live, span = extraction._band_planes(d, a)
        assert np.array_equal(ids[live], np.setdiff1d(np.arange(len(pts)), on_line))
        # span is |d x a|, to a few ulps of |a|, the scale of its rounding
        want = np.linalg.norm(np.cross(d[live], a), axis=1)
        assert np.all(np.abs(span - want) <= 4.0 * np.spacing(np.linalg.norm(a)))
        # a beam just inside PARALLEL_EPS of the line spans no plane, one
        # just outside it does, and no beam does with a baseline of
        # ORIGIN_EPS or less
        a_hat, u, _ = _baseline_frame(a)
        near = a_hat + np.outer([0.9, 1.1], PARALLEL_EPS * u)
        near /= np.linalg.norm(near, axis=1)[:, None]
        assert extraction._band_planes(near, a)[0].tolist() == [1]
        for length in (ORIGIN_EPS, 1e-9, 0.0):
            live, span = extraction._band_planes(d, np.array([length, 0.0, 0.0]))
            assert len(live) == len(span) == 0
        assert _assert_matches_reference(cur, adj) > 0
        rec = extract_scan_pair(cur, adj, CFG, SENSOR).records
        assert not np.isin(rec["current_index"], on_line).any()

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
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_pipeline_matches_all_pairs_reference(self, seed, chunk, threads):
        # across block boundaries, which criterion 1's scans never reach
        cur, adj = random_scan_pair(seed, n_current=200, n_adjacent=200)
        _assert_matches_reference(cur, adj, CFG, threads)

    def test_pipeline_finds_pairs(self):
        # guard against vacuous equivalence: the generator must produce overlaps
        cur, adj = random_scan_pair(0, n_current=200, n_adjacent=200)
        assert len(extract_scan_pair(cur, adj, CFG, SENSOR)) > 10

    def test_spinning_scan_pair_matches_reference(self):
        # ring-structured scans put thousands of beams inside each band and
        # are the stress case for the candidate query's windows
        assert _assert_matches_reference(*_spinning_pair(channels=8, azimuths=64)) > 0

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

    @pytest.mark.parametrize("period", [0.0, -0.5, float("nan")])
    def test_scan_period_must_be_positive(self, period):
        with pytest.raises(ValueError, match="scan_period_s"):
            ExtractionConfig(scan_period_s=period)

    def test_offsets_must_fit_the_record_byte(self):
        assert ExtractionConfig(n_adjacent=127).n_adjacent == 127
        with pytest.raises(ValueError):
            ExtractionConfig(n_adjacent=128)

    def test_every_field_is_set_by_some_caller(self):
        # a field no caller sets is a knob nothing turns; the callers are
        # the package and the benchmark worker, and a call builds the config
        # when it names the class or passes it first (as the CLI's _built)
        sources = sorted(Path(extraction.__file__).parent.glob("*.py"))
        sources.append(Path(__file__).resolve().parents[1] / "perfbench" / "worker.py")
        passed = set()
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    named = [n.id for n in [node.func, *node.args[:1]] if isinstance(n, ast.Name)]
                    if "ExtractionConfig" in named:
                        passed.update(kw.arg for kw in node.keywords)
        assert {f.name for f in dataclasses.fields(ExtractionConfig)} - passed == set()

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

    def test_blocks_join_to_the_set(self, monkeypatch):
        monkeypatch.setattr(extraction, "CHUNK", 7)
        cfg = ExtractionConfig(n_adjacent=2)
        current, adjacents = self._window(2)
        blocks = list(extract_sequence_blocks(current, adjacents, cfg, SENSOR, threads=2))
        assert len(blocks) == math.ceil(len(current) / 7)
        for k, block in enumerate(blocks):
            assert np.all((block["current_index"] >= 7 * k) & (block["current_index"] < 7 * k + 7))
        joined = np.concatenate(blocks)
        assert joined.tobytes() == extract_sequence(current, adjacents, cfg, SENSOR).records.tobytes()
        assert joined.tobytes() == OverlapSet(joined).records.tobytes()

    def test_window_checked_before_any_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block was extracted")

        monkeypatch.setattr(extraction, "_band_candidates", refuse)
        current, adjacents = self._window(2)
        with pytest.raises(ValueError):
            extract_sequence_blocks(current, adjacents, ExtractionConfig(n_adjacent=3), SENSOR)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_blocks_computed_ahead_of_a_stalled_consumer(self, monkeypatch, threads):
        # 50 blocks of 8 beams; the consumer takes one block and stalls
        monkeypatch.setattr(extraction, "CHUNK", 8)
        # every block queries the first job's index first, so those queries
        # count the blocks started
        started = []
        band_candidates = extraction._band_candidates

        def counting(index, *args):
            started.append(index)
            return band_candidates(index, *args)

        monkeypatch.setattr(extraction, "_band_candidates", counting)
        current, adjacents = self._window(1, n_points=400)
        blocks = extract_sequence_blocks(current, adjacents, ExtractionConfig(n_adjacent=1), SENSOR,
                                         threads=threads)
        next(blocks)
        time.sleep(0.3)
        ahead = sum(index is started[0] for index in started) - 1
        assert ahead <= threads + 1
        assert ahead >= (1 if threads > 1 else 0)
        assert len(list(blocks)) == 49

    def test_streamed_write_holds_less_than_the_set(self, tmp_path, monkeypatch):
        # 8 blocks of a 16x1024 scene at n = 1: written block by block, the
        # window never sits in memory whole (the whole-set path held it twice)
        scans = _reduced_c10_scans(tmp_path, channels=16, azimuths=1024, count=3)
        monkeypatch.setattr(extraction, "CHUNK", len(scans[1]) // 8)
        blocks = extract_sequence_blocks(scans[1], [scans[0], scans[2]], ExtractionConfig(n_adjacent=1), SENSOR)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            count = formats.write_overlap_file(tmp_path / "x.tovp", blocks, SENSOR)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert count > 100_000
        assert peak < count * RECORD_DTYPE.itemsize, (peak, count)


def _reduced_c10_scans(tmp_path, channels, azimuths, count):
    """The scans of the criterion-10 scene with fewer beams and scans."""
    from tovp.simulator import simulate_scan_with_hits

    path = tmp_path / "scene.yaml"
    path.write_text(C10_SCENE_YAML.replace("count: 32}", f"count: {channels}}}")
                    .replace("count: 13", f"count: {count}").replace("azimuth_count: 1024", f"azimuth_count: {azimuths}"))
    sim = formats.read_scene(str(path))
    return [simulate_scan_with_hits(sim.scene, sim.lidar, pose, t)[0]
            for pose, t in zip(sim.poses, sim.times)]


class TestPinnedBytes:
    def test_reduced_criterion10_window(self, tmp_path):
        # the criterion-10 scene at 16x512 beams and n = 2: a change to
        # extraction must keep these bytes, as criterion 10 pins the files
        # of the full window (the digest is also that of the payload the
        # writer gave when records were held in float64 and cast on write)
        scans = _reduced_c10_scans(tmp_path, channels=16, azimuths=512, count=5)
        for threads in (1, 2):
            rec = extract_sequence(scans[2], scans[:2] + scans[3:], ExtractionConfig(n_adjacent=2), SENSOR,
                                   threads=threads).records
            assert len(rec) == 333571
            assert hashlib.sha256(rec.tobytes()).hexdigest() == (
                "1b52550d0575ad3da84b1227ce672c6d65b5a91cb188e6143262bcd30665f929")


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
        counts = np.bincount(out.records["state"], minlength=3)
        assert counts[OccupancyState.OCCUPIED] == 100
        assert counts[OccupancyState.FREE] == 500
        assert counts[OccupancyState.UNKNOWN] == 100

    def test_short_supply_keeps_what_exists(self):
        out = balance_classes(self._synthetic(120, 100, 30), seed=0)
        counts = np.bincount(out.records["state"], minlength=3)
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
