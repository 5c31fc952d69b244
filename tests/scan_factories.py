"""Synthetic scan pairs for exercising the extraction pipeline.

Purely random direction sets almost never land inside the coplanarity
tolerance, so the pair generator salts the adjacent scan with points
constructed in (or just off) the coplanarity plane of random current
beams, including near-parallel directions that trigger the five-sample
crossing regime.  Offsets straddle the acceptance thresholds on purpose.
"""

import numpy as np

from tovp.sensor_model import Scan

# the criterion-10 scene: 13 scans of 32x1024 beams past a parked and a
# moving vehicle
C10_SCENE_YAML = """
ground_plane: true
boxes:
  - center: [12.0, 0.0, 1.0]
    size: [4.0, 2.0, 1.8]
    category: VEHICLE
    instance_id: parked
  - center: [8.0, -6.0, 1.0]
    size: [4.0, 2.0, 1.8]
    velocity: [1.5, 0.0, 0.0]
    category: VEHICLE
    instance_id: mover
lidar:
  elevations_rad: {min: -0.35, max: 0.03, count: 32}
  azimuth_count: 1024
  max_range_m: 120.0
trajectory:
  count: 13
  period_s: 0.5
  start: [0.0, 0.0, 1.7]
  velocity: [2.0, 0.0, 0.0]
"""


def unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1)
    bad = norms < 1e-6
    v[bad] = (1.0, 0.0, 0.0)
    norms[bad] = 1.0
    return v / norms[:, None]


def random_scan_pair(seed, n_current=200, n_adjacent=200, theta=0.003):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, 3)
    if np.linalg.norm(a) < 1e-2:
        a = np.array([1.0, 0.0, 0.0])

    dirs_c = unit_rows(rng, n_current)
    r_c = rng.uniform(1.0, 60.0, n_current)
    current = Scan(points=dirs_c * r_c[:, None], time=0.0)
    return current, _salted_adjacent(rng, a, dirs_c, n_adjacent, theta)


def scan_pair_for_directions(seed, adjacent_origin, current_dirs, n_adjacent=200, theta=0.003):
    """Like :func:`random_scan_pair`, for chosen current beam directions
    and adjacent sensor origin; the adjacent scan is salted the same way."""
    rng = np.random.default_rng(seed)
    a = np.asarray(adjacent_origin, dtype=float)
    dirs_c = np.asarray(current_dirs, dtype=float)
    dirs_c = dirs_c / np.linalg.norm(dirs_c, axis=1)[:, None]
    r_c = rng.uniform(1.0, 60.0, len(dirs_c))
    current = Scan(points=dirs_c * r_c[:, None], time=0.0)
    return current, _salted_adjacent(rng, a, dirs_c, n_adjacent, theta)


def _salted_adjacent(rng, a, dirs_c, n_adjacent, theta):
    n_current = len(dirs_c)
    n_rand = n_adjacent - n_adjacent // 3 - n_adjacent // 4
    pts = [a + unit_rows(rng, n_rand) * rng.uniform(1.0, 60.0, (n_rand, 1))]

    # points near the coplanarity plane of random current beams, with the
    # out-of-plane offset spread across the sin(theta/2) acceptance edge
    n_plane = n_adjacent // 3
    a_hat = a / np.linalg.norm(a)
    picks = rng.integers(0, n_current, n_plane)
    for k in picks:
        d = dirs_c[k]
        w = np.cross(d, a_hat)
        wn = np.linalg.norm(w)
        if wn < 1e-6:
            pts.append((a + unit_rows(rng, 1) * rng.uniform(1.0, 60.0)))
            continue
        w = w / wn
        u = np.cross(w, d)
        u = u / np.linalg.norm(u)
        t = rng.uniform(2.0, 50.0)
        x0 = t * d + rng.uniform(-0.5, 0.5) * u
        off = rng.uniform(0.0, 2.2e-3) * rng.choice((-1.0, 1.0)) * np.linalg.norm(x0 - a)
        pts.append((x0 + off * w)[None, :])

    # nearly parallel beams: crossing angle spread across the divergence edge
    n_par = n_adjacent - n_rand - n_plane
    picks = rng.integers(0, n_current, n_par)
    for k in picks:
        d = dirs_c[k]
        w = np.cross(d, a_hat)
        wn = np.linalg.norm(w)
        if wn < 1e-6:
            pts.append((a + unit_rows(rng, 1) * rng.uniform(1.0, 60.0)))
            continue
        w = w / wn
        phi = rng.uniform(0.0, 2.0 * theta) * rng.choice((-1.0, 1.0))
        e = np.cos(phi) * d + np.sin(phi) * np.cross(w, d)
        e = e / np.linalg.norm(e)
        pts.append((a + rng.uniform(1.0, 60.0) * e)[None, :])

    return Scan(points=np.concatenate(pts, axis=0), sensor_origin=a, time=0.5)
