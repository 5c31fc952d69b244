"""The pair formula of extraction, rebuilt beam pair by beam pair from the
public scalar functions of ``tovp.geometry`` and ``tovp.sensor_model``.

The pipeline and the all-pairs reference run one column kernel, so their
agreement cannot catch a slip in it; this check shares no code with it.
Keys are compared in full, except where a pair lies within ``MARGIN`` of a
gate that the two sides may round to opposite answers: the coplanarity
angle against theta / 2, the crossing angle against theta, the centerline
gap against the beam radii (``MARGIN`` per meter of t + p_adj), and a
sample against a point filter (``MARGIN`` m).  ``centerline_intersection``
and ``segment_start_range`` raise rather than return a value near their
gates; random beams do not come within rounding of them.  Positions agree
to ``ULPS`` units in the last place of their largest coordinate or the
baseline's, whichever is larger, and confidences to ``ULPS`` units in
their own last place plus the decay rate times ``ULPS`` units in rho's.
Records hold these values rounded once to float32, and rounding is
monotone, so each must lie between the float32 images of its bounds.
"""

import math

import numpy as np

from scan_factories import random_scan_pair, scan_pair_for_directions
from tovp import RigidTransform, Scan, SensorConfig, beam_from_point
from tovp.errors import GeometryError
from tovp.extraction import ExtractionConfig, extract_sequence
from tovp.geometry import (
    Scenario,
    centerline_intersection,
    classify_scenario,
    coplanarity_angle,
    plane_normal,
    sample_scenario2_points,
    segment_start_range,
    spatial_angle,
)
from tovp.sensor_model import OccupancyState, beam_radius_at, confidence, occupancy_state, range_along_beam

SENSOR = SensorConfig()
CFG = ExtractionConfig(n_adjacent=1)
THETA = SENSOR.divergence_angle_rad
MARGIN = 1e-9
ULPS = 16


def scalar_records(current, adjacent, offset):
    """Records of one scan pair as {(current, offset, adjacent, rank):
    (position, state, confidence, rho)}, and the keys of pairs near a gate."""
    a = adjacent.sensor_origin
    tail, b = CFG.tail_m(SENSOR), CFG.bounds
    adj_beams = []
    for j in range(len(adjacent)):
        try:
            adj_beams.append((j, beam_from_point(adjacent, j)))
        except GeometryError:
            pass
    out, unsure = {}, set()
    for i in range(len(current)):
        try:
            bi = beam_from_point(current, i)
            n = plane_normal(bi.direction, a)
        except GeometryError:
            continue  # a beam without a band plane gives no record
        for j, bj in adj_beams:
            keys = [(i, offset, j, k) for k in range(5)]
            angle = abs(coplanarity_angle(n, bj.direction))
            near = abs(angle - THETA / 2) < MARGIN
            if angle > THETA / 2 and not near:
                continue
            try:
                q, t, p = centerline_intersection(bi.direction, a, bj.direction)
            except GeometryError:
                unsure.update(keys if near else ())
                continue
            # q and its foot on the adjacent centerline are the closest points
            gap = np.linalg.norm(q - (a + p * bj.direction))
            radii = beam_radius_at(SENSOR, t) + beam_radius_at(SENSOR, p)
            near |= abs(gap - radii) < MARGIN * (t + p)
            alpha = spatial_angle(bi.direction, bj.direction)
            near |= abs(alpha - THETA) < MARGIN
            if near:
                unsure.update(keys)
            if gap > radii or angle > THETA / 2:
                continue
            if classify_scenario(alpha, SENSOR) is Scenario.ONE:
                samples = [q]
            else:
                try:
                    segment_start_range(t, np.linalg.norm(q - a), alpha, SENSOR)
                except GeometryError:
                    continue
                samples = sample_scenario2_points(current.points[i], adjacent.points[j], q, bi.direction)
            for k, pos in enumerate(samples):
                rho, r = range_along_beam(bj, pos), range_along_beam(bi, pos)
                edges = [rho, r, r - (bi.range + tail)] + [pos[c // 2] - b[c] for c in range(6)]
                if min(abs(x) for x in edges) < MARGIN:
                    unsure.add(keys[k])
                inside = all(pos[c // 2] >= b[c] if c % 2 == 0 else pos[c // 2] <= b[c] for c in range(6))
                if rho >= 0 and 0 <= r <= bi.range + tail and inside:
                    state = occupancy_state(SENSOR, rho, bj.range)
                    out[keys[k]] = (pos, state, confidence(SENSOR, rho, bj.range), rho)
    return out, unsure


def edge_beams(rng, a, dirs, n):
    """Adjacent points off random current beams: crossing them at a tilt
    3e-7 rad inside and outside theta / 2 of their band plane, and almost
    opposite them, tilted out of the plane, where the centerlines pass far
    apart."""
    pts = []
    for k in rng.integers(0, len(dirs), n):
        d = dirs[k]
        w = np.cross(d, a)
        w /= np.linalg.norm(w)
        x = rng.uniform(5.0, 30.0) * d
        u = (x - a) / np.linalg.norm(x - a)
        tilt = rng.choice([-1.0, 1.0]) * (THETA / 2 + rng.choice([-3e-7, 3e-7]))
        e = math.cos(tilt) * u + math.sin(tilt) * w
        pts.append(a + (np.linalg.norm(x - a) + rng.uniform(-1.0, 1.0)) * e)
        e = -d + rng.uniform(-1e-6, 1e-6) * np.cross(w, d) + rng.uniform(-1.0, 1.0) * math.sin(THETA / 2) * w
        pts.append(a + rng.uniform(2.0, 30.0) * e / np.linalg.norm(e))
    return np.array(pts)


def short_crossings(rng, a, n):
    """Current points on beams 0.3 to 3 theta from the baseline axis, and
    adjacent points on beams crossing them short of their hits at under
    theta: the five-sample pairs whose segment midpoints stay within the
    tail.  Around -a_hat the segment start gate passes beams more than
    about theta off the axis."""
    a_hat = a / np.linalg.norm(a)
    perp = np.cross(a_hat, rng.normal(size=(n, 3)))
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    gamma = THETA * rng.uniform(0.3, 3.0, (n, 1))
    d = rng.choice([-1.0, 1.0], (n, 1)) * np.cos(gamma) * a_hat + np.sin(gamma) * perp
    r = rng.uniform(15.0, 40.0, (n, 1))
    x = rng.uniform(0.9, 1.0, (n, 1)) * r * d - a
    s = np.linalg.norm(x, axis=1)[:, None]
    return r * d, a + (s + rng.uniform(-1.0, 1.0, (n, 1))) * x / s


def posed_window(seed):
    """A current scan and two adjacent scans, offsets -1 and +1, each
    adjacent scan in its own sensor frame behind a pose."""
    rng = np.random.default_rng(seed)
    cur, _ = random_scan_pair(seed, n_current=50)
    dirs = cur.points / np.linalg.norm(cur.points, axis=1)[:, None]
    # near-level baselines keep the short crossings inside the crop box
    adj_prev, adj_next = (scan_pair_for_directions(seed + k, rng.uniform([-2.0, -2.0, -0.2], [2.0, 2.0, 0.2]),
                                                   dirs, n_adjacent=90)[1] for k in (1000, 2000))
    yaw = rng.uniform(-np.pi, np.pi)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pose = RigidTransform(rot, rng.uniform(-50.0, 50.0, 3))
    cur_pts, adjacents = [cur.points], []
    for scan, time in ((adj_prev, -0.5), (adj_next, 0.5)):
        a = scan.sensor_origin
        short_cur, short_adj = short_crossings(rng, a, 12)
        cur_pts.append(short_cur)
        pts = np.concatenate([scan.points, edge_beams(rng, a, dirs, 12), short_adj])
        adjacents.append(Scan(points=pts - a, time=time, pose=pose.compose(RigidTransform(np.eye(3), a))))
    return Scan(points=np.concatenate(cur_pts), time=0.0, pose=pose), adjacents


def exact_window():
    """Crossings that every step computes exactly: at the adjacent hit
    (OCCUPIED, rho = s_j), past it (UNKNOWN) and short of it (FREE)."""
    pose = RigidTransform(np.eye(3), [3.0, -2.0, 1.0])
    current = Scan(points=[[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]], time=0.0, pose=pose)
    prev = Scan(points=[[0.0, 0.0, -4.0], [0.0, 0.0, -2.0], [0.0, 0.0, -7.0]], time=-0.5,
                pose=pose.compose(RigidTransform(np.eye(3), [0.0, 10.0, 4.0])))
    nxt = Scan(points=[[0.0, 0.0, 5.0], [0.0, 0.0, 3.0], [0.0, 0.0, 8.0]], time=0.5,
               pose=pose.compose(RigidTransform(np.eye(3), [10.0, 0.0, -5.0])))
    return current, [prev, nxt]


def check_window(current, adjacents):
    """Compare a window's records with the scalar rebuild; returns the
    rebuilt records."""
    rec = extract_sequence(current, adjacents, CFG, SENSOR).records
    want, unsure, origin = {}, set(), {}
    for offset, adj in zip((-1, 1), adjacents):
        adj = adj.in_frame_of(current)
        got, near = scalar_records(current, adj, offset)
        want.update(got)
        unsure |= near
        origin[offset] = adj.sensor_origin
    fields = ("current_index", "scan_offset", "adjacent_index", "sample_rank")
    keys = list(zip(*(rec[f].tolist() for f in fields)))
    assert {k for k in keys if k not in unsure} == {k for k in want if k not in unsure}
    for key, pos, state, conf in zip(keys, rec["position"], rec["state"], rec["confidence"]):
        if key in want:
            w_pos, w_state, w_conf, rho = want[key]
            assert state == w_state
            # a crossing near the sensor inherits the rounding of the baseline
            scale = max(np.max(np.abs(w_pos)), np.max(np.abs(origin[key[1]])))
            tol = ULPS * np.spacing(scale)
            assert np.all(((w_pos - tol).astype(np.float32) <= pos) & (pos <= (w_pos + tol).astype(np.float32)))
            # the confidence also inherits the rounding of rho
            tol = ULPS * (np.spacing(w_conf) + SENSOR.decay_rate_per_meter * np.spacing(rho))
            assert np.float32(w_conf - tol) <= conf <= np.float32(w_conf + tol)
    return want


def test_random_posed_windows_match_the_scalar_formulas():
    rebuilt = {}
    for seed in range(4):
        rebuilt.update({(seed,) + k: v for k, v in check_window(*posed_window(seed)).items()})
    ranks = {k[-1] for k in rebuilt}
    states = {v[1] for v in rebuilt.values()}
    assert ranks == {0, 1, 2, 3, 4} and states == set(OccupancyState)
    assert {k[2] for k in rebuilt} == {-1, 1}


def test_exact_crossings_match_the_scalar_formulas():
    rebuilt = check_window(*exact_window())
    assert sorted((k[1], v[1]) for k, v in rebuilt.items()) == [
        (-1, OccupancyState.FREE), (-1, OccupancyState.OCCUPIED), (-1, OccupancyState.UNKNOWN),
        (1, OccupancyState.FREE), (1, OccupancyState.OCCUPIED), (1, OccupancyState.UNKNOWN),
    ]
