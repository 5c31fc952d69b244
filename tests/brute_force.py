"""Index-free reference extraction: test every (current, adjacent) beam pair.

Used to check that the index-pruned pipeline finds exactly the pairs the
plain formulas find.  No candidate query, no chunking, no deduplication;
just the per-pair geometry over the full cross product.  The arithmetic
deliberately uses the same numpy primitives in the same order as the
pipeline so that boundary decisions (coplanarity, crossing-angle class,
segment gate) agree bit for bit; what differs is everything around them.
"""

import math

import numpy as np

from tovp.extraction import RECORD_DTYPE, ExtractionConfig
from tovp.geometry import ORIGIN_EPS, PARALLEL_EPS
from tovp.sensor_model import MIN_BEAM_RANGE, OccupancyState, Scan, SensorConfig


def brute_force_overlaps(
    current: Scan,
    adjacent: Scan,
    offset: int,
    cfg: ExtractionConfig,
    sensor: SensorConfig,
) -> np.ndarray:
    """All overlap records of one scan pair, canonically sorted."""
    assert np.linalg.norm(current.sensor_origin) <= 1e-9

    theta = sensor.divergence_angle_rad
    a = adjacent.sensor_origin
    time = adjacent.time - current.time  # stored relative to the current scan

    r_cur = np.linalg.norm(current.points, axis=1)
    cur_ok = np.nonzero(r_cur >= MIN_BEAM_RANGE)[0]
    delta = adjacent.points - a
    s_adj = np.linalg.norm(delta, axis=1)
    adj_ok = np.nonzero(s_adj >= MIN_BEAM_RANGE)[0]
    if len(cur_ok) == 0 or len(adj_ok) == 0:
        return np.empty(0, dtype=RECORD_DTYPE)

    d_all = current.points[cur_ok] / r_cur[cur_ok, None]
    e_all = delta[adj_ok] / s_adj[adj_ok, None]

    ii, jj = np.meshgrid(np.arange(len(cur_ok)), np.arange(len(adj_ok)), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    d = d_all[ii]
    e = e_all[jj]
    r_i = r_cur[cur_ok][ii]
    s_j = s_adj[adj_ok][jj]
    p_j = adjacent.points[adj_ok][jj]
    gi = cur_ok[ii]
    gj = adj_ok[jj]

    a_norm = math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
    if a_norm <= ORIGIN_EPS:
        coplanar = np.ones(len(d), dtype=bool)
    else:
        cvec = np.cross(d_all, a / a_norm)
        c_norm = np.linalg.norm(cvec, axis=1)
        deg = c_norm < PARALLEL_EPS
        normals = cvec / np.where(deg, 1.0, c_norm)[:, None]
        ndote = np.einsum("ij,ij->i", normals[ii], e)
        angle = np.abs(np.arccos(np.clip(ndote, -1.0, 1.0)) - np.pi / 2.0)
        coplanar = deg[ii] | (angle <= theta / 2.0)

    keep = coplanar
    m = np.cross(d[keep], e[keep])
    mm = np.einsum("ij,ij->i", m, m)
    sub = mm >= PARALLEL_EPS ** 2
    idx = np.nonzero(keep)[0][sub]
    m, mm = m[sub], mm[sub]
    t = np.einsum("ij,ij->i", np.cross(np.broadcast_to(a, (len(idx), 3)), e[idx]), m) / mm
    q = t[:, None] * d[idx]
    p_adj = np.einsum("ij,ij->i", q - a, e[idx])
    sub2 = (t > 0.0) & (p_adj > 0.0)
    idx, t, q, p_adj = idx[sub2], t[sub2], q[sub2], p_adj[sub2]

    dot_de = np.clip(np.einsum("ij,ij->i", d[idx], e[idx]), -1.0, 1.0)
    alpha = np.arccos(dot_de)
    two = alpha <= theta

    rows = []
    one = idx[~two]
    if len(one):
        rows.append(
            _label(
                gi[one], gj[one], offset, q[~two], p_adj[~two], s_j[one],
                time, sensor, cfg, r_i[one], t[~two],
                np.zeros(len(one), dtype=np.uint8),
            )
        )

    sel2 = idx[two]
    if len(sel2):
        t2, q2, al2 = t[two], q[two], alpha[two]
        l2 = np.linalg.norm(q2 - a, axis=1)
        s_half = np.sin(al2 / 2.0)
        tau = math.tan(theta / 2.0)
        start = (t2 * (s_half + tau) - l2 * tau) / (s_half + 2.0 * tau)
        good = start > 0.0
        sel2, t2 = sel2[good], t2[good]
        if len(sel2):
            proj = np.einsum("ij,ij->i", p_j[sel2], d[sel2])
            ranges5 = np.stack(
                [
                    r_i[sel2],
                    proj,
                    0.5 * (r_i[sel2] + proj),
                    0.5 * (r_i[sel2] + t2),
                    0.5 * (proj + t2),
                ],
                axis=1,
            )
            p5 = ranges5[:, :, None] * d[sel2][:, None, :]
            rho5 = np.einsum("pkj,pj->pk", p5 - a, e[sel2])
            rows.append(
                _label(
                    np.repeat(gi[sel2], 5), np.repeat(gj[sel2], 5), offset,
                    p5.reshape(-1, 3), rho5.reshape(-1), np.repeat(s_j[sel2], 5),
                    time, sensor, cfg, np.repeat(r_i[sel2], 5),
                    ranges5.reshape(-1), np.tile(np.arange(5, dtype=np.uint8), len(sel2)),
                )
            )

    rows = [r for r in rows if len(r)]
    if not rows:
        return np.empty(0, dtype=RECORD_DTYPE)
    rec = np.concatenate(rows)
    order = np.lexsort(
        (rec["sample_rank"], rec["adjacent_index"], rec["scan_offset"], rec["current_index"])
    )
    return rec[order]


def _label(i, j, offset, pos, rho, s_j, time, sensor, cfg, r_i, range_cur, rank):
    b = cfg.bounds
    tail = cfg.tail_m(sensor)
    keep = (
        (rho >= 0.0)
        & (range_cur >= 0.0)
        & (range_cur <= r_i + tail)
        & (pos[:, 0] >= b[0]) & (pos[:, 0] <= b[1])
        & (pos[:, 1] >= b[2]) & (pos[:, 1] <= b[3])
        & (pos[:, 2] >= b[4]) & (pos[:, 2] <= b[5])
    )
    i, j, pos, rho, s_j, rank = i[keep], j[keep], pos[keep], rho[keep], s_j[keep], rank[keep]

    rate = sensor.decay_rate_per_meter
    band = sensor.occupied_band_m
    conf = np.where(rho > s_j, np.exp(-rate * np.maximum(rho - s_j, 0.0)), 1.0)
    state = np.full(len(rho), int(OccupancyState.OCCUPIED), dtype=np.uint8)
    state[rho < s_j] = int(OccupancyState.FREE)
    state[rho > s_j + band] = int(OccupancyState.UNKNOWN)

    rec = np.empty(len(rho), dtype=RECORD_DTYPE)
    rec["current_index"] = i
    rec["scan_offset"] = offset
    rec["adjacent_index"] = j
    rec["position"] = pos
    rec["time"] = time
    rec["state"] = state
    rec["confidence"] = conf
    rec["sample_rank"] = rank
    return rec
