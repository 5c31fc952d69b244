"""Temporal overlap extraction over scan pairs and scan windows.

For every pair (current beam, adjacent beam) that is coplanar within the
divergence tolerance, the beams' centerline crossing is found and one or
five overlap points are emitted depending on the crossing angle, each
labeled FREE / OCCUPIED / UNKNOWN by projecting onto the adjacent beam and
applying the occupancy rule against that beam's reported range.

The all-pairs search is pruned by an index of the adjacent beam directions
in the frame of the baseline between the two sensors.  Every coplanarity
plane contains the baseline, so it is an epipolar plane of the two sensors
and one angle fixes it: its azimuth around the baseline axis.  Coplanarity
then is a window test on the azimuth, read from rows of adjacent
directions with similar angles to the axis, and the candidates are
re-tested exactly.  Crossings ahead of both sensors need an adjacent beam
farther from the baseline axis than the current one, on the current beam's
side of that axis except in two thin bands, so the query skips the other
rows and windows (see :func:`_band_candidates`).  Everything downstream of
the candidate query is vectorized; worker threads split the current scan
into fixed-size beam chunks, each sorted on its own and merged by current
index, so results are independent of thread count.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math

import numpy as np

from .errors import EmptyScan, FrameMismatch, MissingPose
from .geometry import ORIGIN_EPS, PARALLEL_EPS
from .sensor_model import MIN_BEAM_RANGE, Beam, OccupancyState, Scan, SensorConfig

# Fixed current-beam chunk length; must not depend on thread count or the
# output would not be byte-stable across --threads values.  Below 2**29,
# so a chunk's (current, adjacent, rank) sort key fits 64 bits.
CHUNK = 16384
PAIR_BLOCK = 1 << 14

RECORD_DTYPE = np.dtype(
    [
        ("current_index", "<u4"),
        ("scan_offset", "<i1"),
        ("adjacent_index", "<u4"),
        ("position", "<f8", (3,)),
        ("time", "<f8"),
        ("state", "u1"),
        ("confidence", "<f8"),
        ("sample_rank", "u1"),
    ]
)

# records as opaque bytes: numpy moves these several times faster than the
# structured dtype when gathering, scattering or concatenating records
_RECORD_BYTES = np.dtype((np.void, RECORD_DTYPE.itemsize))

DEFAULT_BOUNDS = (-70.0, 70.0, -70.0, 70.0, -4.5, 4.5)


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs of the extraction pipeline.

    ``max_tail_beyond_hit_m`` limits how far past the current beam's own hit
    overlap points are kept; None means one occupied-band length.
    ``cell_size_rad`` (default: an eighth of the divergence angle) only sets
    the half-width of :func:`candidate_pairs`; extraction does not read
    it.  It stays because it is part of ``config_hash``, and so of the
    ``.tovp`` header and ``config.json``.
    """

    n_adjacent: int = 6
    scan_period_s: float = 0.5
    bounds: tuple = DEFAULT_BOUNDS
    max_tail_beyond_hit_m: float | None = None
    max_overlaps_per_beam: int | None = None
    rng_seed: int = 0
    cell_size_rad: float | None = None

    def __post_init__(self):
        # scan_offset is stored as a signed byte
        if not 1 <= self.n_adjacent <= 127:
            raise ValueError(f"n_adjacent must be in 1..127: {self.n_adjacent}")
        b = tuple(float(v) for v in self.bounds)
        if len(b) != 6 or b[0] >= b[1] or b[2] >= b[3] or b[4] >= b[5]:
            raise ValueError(f"bounds must be (x0,x1,y0,y1,z0,z1) with lo < hi: {self.bounds}")
        object.__setattr__(self, "bounds", b)
        if self.max_tail_beyond_hit_m is not None and self.max_tail_beyond_hit_m < 0:
            raise ValueError("max_tail_beyond_hit_m must be >= 0")
        if self.cell_size_rad is not None and self.cell_size_rad <= 0:
            raise ValueError("cell_size_rad must be positive")

    def tail_m(self, sensor: SensorConfig) -> float:
        if self.max_tail_beyond_hit_m is not None:
            return self.max_tail_beyond_hit_m
        return sensor.occupied_band_m

    def cell_size(self, sensor: SensorConfig) -> float:
        if self.cell_size_rad is None:
            return sensor.divergence_angle_rad / 8.0
        return self.cell_size_rad


@dataclass(frozen=True)
class OverlapPoint:
    """One labeled temporal overlap point (view over a record row)."""

    position: np.ndarray
    time: float
    state: OccupancyState
    confidence: float
    current_point_index: int
    adjacent_scan_offset: int
    adjacent_point_index: int
    sample_rank: int


class OverlapSet:
    """Canonically ordered collection of overlap records.

    Stores a packed numpy record array (see RECORD_DTYPE); indexing yields
    :class:`OverlapPoint` views.  Order is (current index, scan offset,
    adjacent index, sample rank), which makes serialization deterministic.
    """

    def __init__(self, records: np.ndarray, presorted: bool = False):
        records = np.asarray(records, dtype=RECORD_DTYPE)
        if not presorted and len(records) > 1:
            order = _canonical_order(records)
            if order is not None:
                records = records.view(_RECORD_BYTES).take(order).view(RECORD_DTYPE)
        self.records = records

    @classmethod
    def empty(cls) -> "OverlapSet":
        return cls(np.empty(0, dtype=RECORD_DTYPE), presorted=True)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, idx: int) -> OverlapPoint:
        r = self.records[idx]
        return OverlapPoint(
            position=r["position"].copy(),
            time=float(r["time"]),
            state=OccupancyState(int(r["state"])),
            confidence=float(r["confidence"]),
            current_point_index=int(r["current_index"]),
            adjacent_scan_offset=int(r["scan_offset"]),
            adjacent_point_index=int(r["adjacent_index"]),
            sample_rank=int(r["sample_rank"]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @property
    def counts(self) -> dict:
        c = np.bincount(self.records["state"], minlength=3)
        return {
            OccupancyState.FREE: int(c[0]),
            OccupancyState.OCCUPIED: int(c[1]),
            OccupancyState.UNKNOWN: int(c[2]),
        }


def _canonical_order(records: np.ndarray) -> np.ndarray | None:
    """Sort permutation by (current, offset, adjacent, rank), or None when
    the records already are in that order.

    The four keys fit one u64 when indices stay below 2^24 (16.7M beams),
    which is the fast common case; otherwise fall back to lexsort.
    """
    i = records["current_index"]
    j = records["adjacent_index"]
    if len(i) and max(int(i.max()), int(j.max())) < (1 << 24):
        # built in place through one scratch array; offset + 128 is the
        # offset byte with its top bit flipped
        key = i.astype(np.uint64)
        key <<= np.uint64(40)
        part = np.empty_like(key)
        np.copyto(part, records["scan_offset"].view(np.uint8) ^ np.uint8(0x80))
        part <<= np.uint64(32)
        key |= part
        np.copyto(part, j)
        part <<= np.uint64(8)
        key |= part
        np.copyto(part, records["sample_rank"])
        key |= part
        if np.all(key[1:] >= key[:-1]):
            return None
        return np.argsort(key)
    return np.lexsort(
        (records["sample_rank"], records["adjacent_index"], records["scan_offset"], records["current_index"])
    )


# ---------------------------------------------------------------------------
# direction index

# beta rows of the direction index: a constant, so the candidate sets (and
# what they cost) depend on no option
ROWS = 64


class DirectionIndex:
    """Adjacent beam directions in the frame of the baseline to their sensor.

    Every coplanarity plane contains the baseline a (the adjacent sensor
    origin in the current frame), so it is an epipolar plane of the two
    sensors and one angle fixes it: its azimuth around a_hat.  The index
    frame ``frame`` has rows (a_hat, u, v), with any fixed axis for a_hat
    when the baseline is ORIGIN_EPS or shorter (every plane is degenerate
    then).  A direction sits at angle beta to a_hat and azimuth psi in
    [-pi, pi) around it.  Beams are grouped into ROWS rows of equal beta
    width, each sorted by psi; per row the index keeps the smallest and the
    largest beta of its beams and the smallest sin(beta), which is the
    smaller of their sines since sine is concave on [0, pi].  Points sitting
    on the adjacent sensor origin form no direction and are left out (their
    indices never appear in any row).  ``cell_size`` only sets the
    half-width of :func:`candidate_pairs`.
    """

    def __init__(self, adjacent: Scan, cell_size_rad: float):
        if len(adjacent) == 0:
            raise EmptyScan("cannot index an empty scan")
        self.cell_size = float(cell_size_rad)
        self.origin = adjacent.sensor_origin.copy()
        delta = adjacent.points - self.origin
        ranges = np.linalg.norm(delta, axis=1)
        valid = ranges >= MIN_BEAM_RANGE
        if not valid.any():
            raise EmptyScan("no adjacent point forms a valid beam")
        self.beam_ids = np.nonzero(valid)[0].astype(np.int64)
        self.directions = delta[valid] / ranges[valid, None]
        self.ranges = ranges[valid]

        a = self.origin
        a_norm = math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
        a_hat = a / a_norm if a_norm > ORIGIN_EPS else np.array([0.0, 0.0, 1.0])
        u = np.cross(a_hat, np.eye(3)[np.argmin(np.abs(a_hat))])
        u /= np.linalg.norm(u)
        self.frame = np.stack([a_hat, u, np.cross(a_hat, u)])

        beta, _, psi = _baseline_angles(self.directions, self.frame)
        row = np.minimum((beta * (ROWS / np.pi)).astype(np.int64), ROWS - 1)
        order = np.lexsort((psi, row))
        _, starts = np.unique(row[order], return_index=True)
        ptr = np.append(starts, len(order))
        self.row_beta_lo = np.minimum.reduceat(beta[order], starts)
        self.row_beta_hi = np.maximum.reduceat(beta[order], starts)
        self.row_sin_lo = np.minimum(np.sin(self.row_beta_lo), np.sin(self.row_beta_hi))
        # per-row azimuths duplicated one turn up, so windows that wrap the
        # -pi seam need a single searchsorted; built once, queried for every
        # chunk of every current scan that hits this index
        psi_sorted = psi[order]
        self._psi_doubled = [
            np.concatenate([psi_sorted[lo:hi], psi_sorted[lo:hi] + 2.0 * np.pi])
            for lo, hi in zip(ptr[:-1], ptr[1:])
        ]
        self._pos_doubled = [
            np.concatenate([order[lo:hi], order[lo:hi]]).astype(np.int32)
            for lo, hi in zip(ptr[:-1], ptr[1:])
        ]

    def __len__(self) -> int:
        return len(self.directions)


def build_direction_index(adjacent: Scan, cell_size_rad: float) -> DirectionIndex:
    """Index the adjacent scan's beam directions for band queries."""
    return DirectionIndex(adjacent, cell_size_rad)


def _baseline_angles(dirs: np.ndarray, frame: np.ndarray):
    """(beta, sin beta, psi) of unit directions in a baseline frame: the
    angle to its first axis, and the azimuth around it in [-pi, pi)."""
    c = dirs @ frame.T
    sin_b = np.hypot(c[:, 1], c[:, 2])
    psi = np.arctan2(c[:, 2], c[:, 1])
    psi[psi >= np.pi] -= 2.0 * np.pi
    return np.arctan2(sin_b, c[:, 0]), sin_b, psi


def _band_candidates(index: DirectionIndex, d: np.ndarray, degenerate: np.ndarray, s_lim: float,
                     theta=None):
    """Candidate (chunk-local current id, index-local adjacent id) pairs.

    ``d`` holds unit directions of current beams; beams flagged
    ``degenerate`` get every adjacent beam as a candidate.  Every other beam
    gets at least each adjacent direction e within sine distance ``s_lim``
    of its coplanarity plane (|n . e| <= s_lim), and no pair twice.

    The plane of a beam at angle gamma to a_hat has the beam's own azimuth
    psi_d, and e lies sin(beta_e) |sin(psi_e - psi_d)| from it.  In a row
    whose smallest sin(beta) is m, that bounds |sin(psi_e - psi_d)| by
    x = s_lim / m: the beam reads the window psi_d +- asin(x) on its own
    half-plane and, where asked, the same window around psi_d + pi.  From
    x = 0.999 on it reads the whole row instead, which costs little more
    and keeps the two windows from meeting.  s_lim is padded by
    1e-13 / sin(gamma).  That is at least 1e-13, far above the rounding of
    the frame and of psi_e; near the baseline axis, where psi_d and the
    caller's normal are off by a few ulps over sin(gamma), it is a thousand
    times their error.

    ``theta``, when given, also skips pairs that cannot cross ahead of both
    sensors (t > 0 and p_adj > 0 in :func:`_pair_runs`).  With
    c = cos(psi_e - psi_d), t has the sign of
    A = cos(gamma) sin(beta) - sin(gamma) cos(beta) c and p_adj that of
    B = c cos(gamma) sin(beta) - sin(gamma) cos(beta).  As
    A + B = (1 + c) sin(beta - gamma), a record needs beta > gamma, so rows
    whose largest beta is below gamma - theta are skipped.  On the far
    half-plane (c < 0) A and B are both positive only for gamma < pi/2, and
    for in-band e only within theta of beta = pi (by -a_hat, where the
    half-planes meet) or of beta = pi - gamma (near-antiparallel beams whose
    closest points fall ahead of both sensors).  So the far window is read
    only in rows that reach pi - theta or meet pi - gamma +- theta.  The
    theta margins dwarf the rounding of t and p_adj near their sign
    changes.  The pruning applies when sin(gamma) >= 4 theta; beams nearer
    the baseline axis read both windows of every row.
    """
    deg = np.nonzero(degenerate)[0].astype(np.int32)
    live = np.nonzero(~degenerate)[0].astype(np.int32)
    gamma, sin_g, psi = _baseline_angles(d.take(live, axis=0), index.frame)
    with np.errstate(divide="ignore"):
        s = s_lim + 1e-13 / sin_g
    # a beam reads a row when the row's largest beta is >= near_from; it
    # reads the far window too when that beta is >= far_from or the row
    # meets the near-antiparallel band [anti_lo, anti_hi]
    near_from = np.full(len(live), -np.inf)
    far_from = near_from.copy()
    anti_lo = np.full(len(live), np.inf)
    anti_hi = anti_lo.copy()
    if theta is not None:
        prune = sin_g >= 4.0 * theta
        near_from[prune] = gamma[prune] - theta
        far_from[prune] = np.pi - theta
        on = prune & (gamma < np.pi / 2)
        anti_lo[on] = np.pi - gamma[on] - theta
        anti_hi[on] = np.pi - gamma[on] + theta

    out_i: list = []
    out_j: list = []
    for r in range(len(index.row_sin_lo)):
        beta_lo, beta_hi = index.row_beta_lo[r], index.row_beta_hi[r]
        near = beta_hi >= near_from
        if not near.any():
            continue
        far = near & ((beta_hi >= far_from) | ((beta_hi >= anti_lo) & (beta_lo <= anti_hi)))
        with np.errstate(divide="ignore"):  # a beam on the axis: whole rows
            x = s / index.row_sin_lo[r]
        full = near & (x >= 0.999)
        pos2 = index._pos_doubled[r]
        n_row = len(pos2) >> 1
        if full.any():
            who = live[full]
            out_i.append(np.repeat(who, n_row))
            out_j.append(np.tile(pos2[:n_row], len(who)))
        near_win = np.nonzero(near & ~full)[0]
        far_win = np.nonzero(far & ~full)[0]
        own = np.concatenate([near_win, far_win])
        if len(own) == 0:
            continue
        w = np.arcsin(x[own])
        start = psi[own] - w
        start[len(near_win):] += np.pi
        start = np.mod(start + np.pi, 2.0 * np.pi) - np.pi
        doubled = index._psi_doubled[r]
        s_idx = np.searchsorted(doubled, start, side="left")
        e_idx = np.searchsorted(doubled, start + 2.0 * w, side="right")
        counts = e_idx - s_idx
        keep = counts > 0
        if keep.any():
            out_j.append(pos2[_ranges_to_indices(s_idx[keep], e_idx[keep])])
            out_i.append(np.repeat(live[own[keep]], counts[keep]))

    if len(deg):
        out_i.append(np.repeat(deg, len(index)))
        out_j.append(np.tile(np.arange(len(index), dtype=np.int32), len(deg)))

    if not out_i:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    return np.concatenate(out_i), np.concatenate(out_j)


def _ranges_to_indices(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate arange(s, e) for every (s, e) pair with s < e, vectorized:
    a cumulative sum of unit steps, with each range's first step jumping
    from the previous range's last index."""
    counts = ends - starts
    step = np.ones(int(counts.sum()), dtype=np.int32)
    step[0] = starts[0]
    step[np.cumsum(counts[:-1])] = starts[1:] - ends[:-1] + 1
    return np.cumsum(step, dtype=np.int32)


def candidate_pairs(current_beam: Beam, index: DirectionIndex, adjacent_origin) -> list:
    """Adjacent point indices that might form a coplanar pair with the beam.

    Conservative superset: every beam whose direction lies within half the
    index's cell size of the coplanarity plane is included, on both sides
    of the baseline axis (no forward pruning).  When the plane is degenerate
    (baseline collinear with the beam, or origins coincide) all indexed
    beams are returned.  ``adjacent_origin`` must be the indexed scan's
    sensor origin, the baseline the index frame is built on.
    """
    a = np.asarray(adjacent_origin, dtype=float)
    if not np.array_equal(a, index.origin):
        raise ValueError("adjacent_origin is not the sensor origin of the indexed scan")
    d = np.asarray(current_beam.direction, dtype=float)[None, :]
    _, degenerate = _band_planes(d, a)
    _, jj = _band_candidates(index, d, degenerate, math.sin(index.cell_size / 2.0))
    return sorted(int(index.beam_ids[j]) for j in jj)


def _band_planes(d, a):
    """Band planes of beams with unit directions ``d`` (n, 3) against the
    adjacent origin ``a``: (normals, degenerate).

    The normals are those of the planes spanned by each beam and the
    baseline.  A baseline of ORIGIN_EPS or less, or a beam within
    PARALLEL_EPS of its line, spans no plane; such beams are flagged
    degenerate (their normal is meaningless).
    """
    a_norm = math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
    if a_norm <= ORIGIN_EPS:
        return np.zeros_like(d), np.ones(len(d), dtype=bool)
    cvec = np.cross(d, a / a_norm)
    c_norm = np.linalg.norm(cvec, axis=1)
    degenerate = c_norm < PARALLEL_EPS
    return cvec / np.where(degenerate, 1.0, c_norm)[:, None], degenerate


# ---------------------------------------------------------------------------
# pair extraction


def _emit_records(i, j, offset, pos, rho, s_j, time, sensor, cfg, r_i, range_cur, rank, keep=None):
    """Apply the shared point filters (after ``keep``, if given), label, and
    pack records."""
    b = cfg.bounds
    keep = rho >= 0.0 if keep is None else keep & (rho >= 0.0)
    keep &= range_cur >= 0.0
    keep &= range_cur <= r_i + cfg.tail_m(sensor)
    keep &= pos[:, 0] >= b[0]
    keep &= pos[:, 0] <= b[1]
    keep &= pos[:, 1] >= b[2]
    keep &= pos[:, 1] <= b[3]
    keep &= pos[:, 2] >= b[4]
    keep &= pos[:, 2] <= b[5]
    idx = np.nonzero(keep)[0]
    if len(idx) == 0:
        return None
    if len(idx) < len(keep):
        i, j, rho, s_j, rank = i[idx], j[idx], rho[idx], s_j[idx], rank[idx]
        pos = pos.take(idx, axis=0)

    rate = sensor.decay_rate_per_meter
    band = sensor.occupied_band_m
    past = rho > s_j
    conf = np.ones(len(rho))
    conf[past] = np.exp(-rate * (rho[past] - s_j[past]))
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


def _extract_chunk(lo, hi, cur_dirs, cur_ranges, cur_valid, index, adj_scan, offset, time, cfg, sensor):
    """Records of current beams [lo, hi) against one adjacent scan taken
    ``time`` seconds after the current one, in (current, adjacent, rank)
    order; None when there are none."""
    theta = sensor.divergence_angle_rad
    # beams on the sensor origin have no direction and draw no candidates
    rows = lo + np.nonzero(cur_valid[lo:hi])[0]
    d = cur_dirs.take(rows, axis=0)
    normals, degenerate = _band_planes(d, adj_scan.sensor_origin)
    # the coarse coplanarity bound of _pair_runs: every pair within it is
    # a candidate
    s_lim = math.sin(theta / 2.0) + 1e-9
    ii, jj = _band_candidates(index, d, degenerate, s_lim, theta)
    # the pair stages run on cache-sized blocks of candidates
    runs = []
    for b in range(0, len(ii), PAIR_BLOCK):
        runs += _pair_runs(
            ii[b:b + PAIR_BLOCK], jj[b:b + PAIR_BLOCK], rows, d, normals, degenerate, s_lim,
            cur_ranges, index, adj_scan, offset, time, cfg, sensor,
        )
    if not runs:
        return None
    rec = (np.concatenate(runs) if len(runs) > 1 else runs[0]).view(RECORD_DTYPE)
    # (current, adjacent, rank) order; with the chunk-local current index
    # (below CHUNK) the key fits 64 bits for any u4 adjacent index
    key = (rec["current_index"] - lo).astype(np.uint64) << np.uint64(35)
    key |= rec["adjacent_index"].astype(np.uint64) << np.uint64(3)
    key |= rec["sample_rank"]
    return rec.view(_RECORD_BYTES).take(np.argsort(key)).view(RECORD_DTYPE)


def _pair_runs(ii, jj, rows, d, normals, degenerate, s_lim, cur_ranges, index, adj_scan, offset, time, cfg,
               sensor):
    """Records of candidate pairs (current beam ``rows[ii]`` with direction
    ``d[ii]``, index-local adjacent jj), as a list of unsorted record runs
    viewed as bytes.  ``s_lim`` bounds |n . e| in a coarse coplanarity test
    ahead of the exact one."""
    theta = sensor.divergence_angle_rad
    a = adj_scan.sensor_origin
    if len(ii) == 0:
        return []

    # exact coplanarity (skipped for degenerate planes, which pass by fiat);
    # (n, 3) gathers use take(axis=0), several times faster than fancy indexing
    pair_deg = degenerate[ii]
    e_j = index.directions.take(jj, axis=0)
    ndote = np.einsum("ij,ij->i", normals.take(ii, axis=0), e_j)
    coarse = pair_deg | (np.abs(ndote) <= s_lim)
    sel = np.nonzero(coarse)[0]
    cop = np.abs(np.arccos(np.clip(ndote[sel], -1.0, 1.0)) - np.pi / 2.0) <= theta / 2.0
    cop |= pair_deg[sel]
    sel = sel[cop]
    if len(sel) == 0:
        return []
    ii, jj, e_j = ii[sel], jj[sel], e_j.take(sel, axis=0)

    # centerline crossing q = t * d_i, kept where the lines truly cross ahead
    # of both sensors (t > 0 and p_adj > 0; NaN from parallel lines fails both)
    d_i = d.take(ii, axis=0)
    d0, d1, d2 = d_i[:, 0], d_i[:, 1], d_i[:, 2]
    e0, e1, e2 = e_j[:, 0], e_j[:, 1], e_j[:, 2]
    m = np.empty_like(d_i)
    m[:, 0] = d1 * e2 - d2 * e1
    m[:, 1] = d2 * e0 - d0 * e2
    m[:, 2] = d0 * e1 - d1 * e0
    w = np.empty_like(e_j)
    w[:, 0] = a[1] * e2 - a[2] * e1
    w[:, 1] = a[2] * e0 - a[0] * e2
    w[:, 2] = a[0] * e1 - a[1] * e0
    mm = np.einsum("ij,ij->i", m, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("ij,ij->i", w, m) / mm
        q = t[:, None] * d_i
        p_adj = np.einsum("ij,ij->i", q - a, e_j)
    ok = (mm >= PARALLEL_EPS ** 2) & (t > 0.0) & (p_adj > 0.0)
    sel = np.nonzero(ok)[0]
    if len(sel) == 0:
        return []
    gi = rows[ii[sel]]
    jj, t, p_adj = jj[sel], t[sel], p_adj[sel]
    d_i, e_j, q = d_i.take(sel, axis=0), e_j.take(sel, axis=0), q.take(sel, axis=0)
    r_i = cur_ranges[gi]
    s_j = index.ranges[jj]
    j_ids = index.beam_ids[jj]

    dot_de = np.clip(np.einsum("ij,ij->i", d_i, e_j), -1.0, 1.0)
    alpha = np.arccos(dot_de)
    # one sample at the crossing, unless the beams cross at under theta
    single = alpha > theta
    runs = [
        _emit_records(
            gi, j_ids, offset, q, p_adj, s_j, time, sensor, cfg, r_i, t,
            np.zeros(len(gi), dtype=np.uint8), single,
        )
    ]
    two = np.nonzero(~single)[0]
    if len(two):
        runs.append(
            _five_sample_records(
                gi[two], j_ids[two], d_i.take(two, axis=0), e_j.take(two, axis=0),
                q.take(two, axis=0), t[two], alpha[two], r_i[two], s_j[two],
                adj_scan, offset, time, cfg, sensor,
            )
        )
    return [rec.view(_RECORD_BYTES) for rec in runs if rec is not None]


def _five_sample_records(gi, j_ids, d_i, e_j, q, t, alpha, r_i, s_j, adj_scan, offset, time, cfg, sensor):
    """Records of pairs crossing at under the divergence angle: five samples
    along the overlap segment, after its start gate."""
    theta = sensor.divergence_angle_rad
    a = adj_scan.sensor_origin
    # segment start gate: reject pairs whose overlap segment degenerates
    l2 = np.linalg.norm(q - a, axis=1)
    s_half = np.sin(alpha / 2.0)
    tau = math.tan(theta / 2.0)
    start = (t * (s_half + tau) - l2 * tau) / (s_half + 2.0 * tau)
    ok = np.nonzero(start > 0.0)[0]
    if len(ok) == 0:
        return None
    gi, j_ids, r_i, s_j, t = gi[ok], j_ids[ok], r_i[ok], s_j[ok], t[ok]
    d_i = d_i.take(ok, axis=0)
    proj = np.einsum("ij,ij->i", adj_scan.points[j_ids], d_i)
    ranges5 = np.stack(
        [
            r_i,
            proj,
            0.5 * (r_i + proj),
            0.5 * (r_i + t),
            0.5 * (proj + t),
        ],
        axis=1,
    )  # (P, 5)
    p5 = ranges5[:, :, None] * d_i[:, None, :]
    rho5 = np.einsum("pkj,pj->pk", p5 - a, e_j.take(ok, axis=0))
    return _emit_records(
        np.repeat(gi, 5),
        np.repeat(j_ids, 5),
        offset,
        p5.reshape(-1, 3),
        rho5.reshape(-1),
        np.repeat(s_j, 5),
        time,
        sensor,
        cfg,
        np.repeat(r_i, 5),
        ranges5.reshape(-1),
        np.tile(np.arange(5, dtype=np.uint8), len(gi)),
    )


def _current_frame_arrays(current: Scan):
    """Directions/ranges of current beams; points on the origin are skipped."""
    ranges = np.linalg.norm(current.points, axis=1)
    valid = ranges >= MIN_BEAM_RANGE
    safe = np.where(valid, ranges, 1.0)
    dirs = current.points / safe[:, None]
    return dirs, ranges, valid


def _check_frames(current: Scan, adjacent: Scan | None = None):
    """Raise FrameMismatch unless the current scan is in its own sensor
    frame and the adjacent one, when given, in the current scan's frame."""
    if np.linalg.norm(current.sensor_origin) > 1e-9:
        raise FrameMismatch("current scan must be expressed in its own sensor frame (origin at 0)")
    if adjacent is not None and current.pose is not None and adjacent.pose is not None:
        if not current.pose.almost_equal(adjacent.pose, tol=1e-9):
            raise FrameMismatch("adjacent scan not re-expressed in the current scan's frame")


def _derive_offset(current: Scan, adjacent: Scan, cfg: ExtractionConfig) -> int:
    dt = adjacent.time - current.time
    if dt == 0.0:
        raise ValueError("adjacent scan time equals current scan time")
    if cfg.scan_period_s > 0:
        k = max(1, int(round(abs(dt) / cfg.scan_period_s)))
    else:
        k = 1
    if k > 127:  # the record field is a signed byte
        raise ValueError(f"adjacent scan is {k} periods away; scan offsets stop at 127")
    return k if dt > 0 else -k


def extract_scan_pair(
    current: Scan,
    adjacent: Scan,
    cfg: ExtractionConfig,
    sensor: SensorConfig,
    threads: int = 1,
) -> OverlapSet:
    """Overlap points of one (current, adjacent) scan pair.

    Both scans must already be expressed in the current scan's sensor frame
    (``Scan.in_frame_of``); the scan offset recorded on the points is
    derived from the time difference and the configured scan period.
    """
    _check_frames(current, adjacent)
    offset = _derive_offset(current, adjacent, cfg)
    return _extract_jobs(current, [(offset, adjacent)], cfg, sensor, threads)


def _extract_jobs(current, jobs, cfg, sensor, threads) -> OverlapSet:
    """Canonical overlap set of ``current`` against (offset, adjacent) jobs.

    Jobs come by ascending offset with the adjacent scans in the current
    sensor frame.  Each (job, current chunk) piece is extracted on its own,
    already in (current, adjacent, rank) order, so merging the pieces by
    current index gives the canonical order without a global sort; the
    pieces do not depend on the thread count, so neither does the output.
    """
    pieces = []
    if len(current):
        dirs, ranges, valid = _current_frame_arrays(current)
        spans = [(lo, min(lo + CHUNK, len(current))) for lo in range(0, len(current), CHUNK)]
        pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        try:
            for offset, adjacent in jobs:
                # a baseline of exactly zero (a stationary sensor) makes the
                # crossing parameter t zero or NaN for every pair, and t > 0
                # is a record's first gate: skip the index and band query
                if len(adjacent) == 0 or not np.any(adjacent.sensor_origin):
                    continue
                try:
                    index = build_direction_index(adjacent, cfg.cell_size(sensor))
                except EmptyScan:
                    continue
                # stored times are relative to the current scan
                time = adjacent.time - current.time
                args = [
                    (lo, hi, dirs, ranges, valid, index, adjacent, offset, time, cfg, sensor)
                    for lo, hi in spans
                ]
                pieces += (pool.map if pool is not None else map)(lambda a: _extract_chunk(*a), args)
        finally:
            if pool is not None:
                pool.shutdown()
    return OverlapSet(_merge_by_current(pieces, len(current)), presorted=True)


def _merge_by_current(pieces: list, n_current: int) -> np.ndarray:
    """Interleave record runs by current index, keeping run order on ties.

    Each run must be sorted by current index.  A counting pass gives every
    beam its slot range in the output, and each run is scattered into the
    next free slots of its beams, so runs listed by ascending offset, each in
    (current, adjacent, rank) order, come out in canonical order.
    """
    pieces = [p for p in pieces if p is not None and len(p)]
    out = np.empty(sum(len(p) for p in pieces), dtype=RECORD_DTYPE)
    if not pieces:
        return out
    counts = [np.bincount(p["current_index"], minlength=n_current) for p in pieces]
    per_beam = np.sum(counts, axis=0)
    free = np.cumsum(per_beam) - per_beam  # next free slot of every beam
    slots = out.view(_RECORD_BYTES)
    for p, c in zip(pieces, counts):
        cur = p["current_index"]
        first = np.cumsum(c) - c  # row of every beam's first record in p
        np.put(slots, free[cur] + (np.arange(len(p)) - first[cur]), p.view(_RECORD_BYTES))
        free += c
    return out


def extract_sequence(
    current: Scan,
    adjacents: list,
    cfg: ExtractionConfig,
    sensor: SensorConfig,
    threads: int = 1,
) -> OverlapSet:
    """Overlap points of a current scan against its 2n adjacent scans.

    ``adjacents`` must hold n past and n future scans (by time); they may be
    in any common reference frame, and are re-expressed in the current
    scan's sensor frame here.  Offsets -n..-1 and 1..n follow time order.
    """
    n = cfg.n_adjacent
    for s in adjacents:
        if s.pose is None:
            raise MissingPose("adjacent scan lacks a pose")
    if current.pose is None:
        raise MissingPose("current scan lacks a pose")
    past = sorted([s for s in adjacents if s.time < current.time], key=lambda s: s.time)
    future = sorted([s for s in adjacents if s.time > current.time], key=lambda s: s.time)
    if len(past) != n or len(future) != n:
        raise ValueError(
            f"need {n} past and {n} future scans, got {len(past)} and {len(future)}"
        )

    _check_frames(current)
    jobs = [(off, scan.in_frame_of(current)) for off, scan in zip(range(-n, 0), past)]
    jobs += [(off, scan.in_frame_of(current)) for off, scan in zip(range(1, n + 1), future)]
    oset = _extract_jobs(current, jobs, cfg, sensor, threads)
    if cfg.max_overlaps_per_beam is not None:
        oset = _cap_per_beam(oset, cfg.max_overlaps_per_beam)
    return oset


def _cap_per_beam(oset: OverlapSet, cap: int) -> OverlapSet:
    """Keep at most ``cap`` records per current beam, in canonical order."""
    rec = oset.records
    if len(rec) == 0:
        return oset
    i = rec["current_index"].astype(np.int64)
    _, starts, counts = np.unique(i, return_index=True, return_counts=True)
    within = np.arange(len(rec)) - np.repeat(starts, counts)
    return OverlapSet(rec[within < cap], presorted=True)


def balance_classes(oset: OverlapSet, seed: int) -> OverlapSet:
    """Class-balanced subset: all occupied points (count C), up to 5C free
    and up to C unknown points, drawn without replacement, seeded."""
    rec = oset.records
    state = rec["state"]
    occ = np.nonzero(state == int(OccupancyState.OCCUPIED))[0]
    free = np.nonzero(state == int(OccupancyState.FREE))[0]
    unk = np.nonzero(state == int(OccupancyState.UNKNOWN))[0]
    c = len(occ)
    rng = np.random.default_rng(seed)
    take_free = rng.choice(free, size=min(5 * c, len(free)), replace=False) if len(free) else free
    take_unk = rng.choice(unk, size=min(c, len(unk)), replace=False) if len(unk) else unk
    chosen = np.concatenate([occ, take_free, take_unk])
    return OverlapSet(rec[np.sort(chosen)], presorted=True)
