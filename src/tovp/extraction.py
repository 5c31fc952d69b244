"""Temporal overlap extraction over scan pairs and scan windows.

For every pair (current beam, adjacent beam) that is coplanar within the
divergence tolerance, the beams' centerline crossing is found and one or
five overlap points are emitted depending on the crossing angle, each
labeled FREE / OCCUPIED / UNKNOWN by projecting onto the adjacent beam and
applying the occupancy rule against that beam's reported range.

The all-pairs search is pruned by a spherical azimuth-elevation grid over
adjacent beam directions.  A beam pair can only be coplanar when the
adjacent direction lies near the great circle whose plane is spanned by the
current direction and the baseline, so candidates are read from the grid
cells intersecting that band (padded by half a cell for the binning error)
and then re-tested exactly.  Only the part of the great circle from the
adjacent sensor's view of the current origin to the current direction can
hold crossings ahead of both sensors, so band arcs far from that forward
arc are dropped in the query too.  Everything downstream of the candidate
query is vectorized; worker threads split the current scan into fixed-size
beam chunks, each sorted on its own and merged by current index, so
results are independent of thread count.
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
    ``cell_size_rad`` is the direction-grid resolution; finer cells shrink
    the candidate band at no accuracy cost.  Defaults to an eighth of the
    divergence angle.
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
            records = records.view(_RECORD_BYTES).take(_canonical_order(records)).view(RECORD_DTYPE)
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


def _canonical_order(records: np.ndarray) -> np.ndarray:
    """Sort permutation by (current, offset, adjacent, rank).

    The four keys fit one u64 when indices stay below 2^24 (16.7M beams),
    which is the fast common case; otherwise fall back to lexsort.
    """
    i = records["current_index"]
    j = records["adjacent_index"]
    if len(i) and max(int(i.max()), int(j.max())) < (1 << 24):
        key = i.astype(np.uint64)
        key <<= np.uint64(40)
        key |= (records["scan_offset"].astype(np.int64) + 128).astype(np.uint64) << np.uint64(32)
        key |= j.astype(np.uint64) << np.uint64(8)
        key |= records["sample_rank"].astype(np.uint64)
        return np.argsort(key)
    return np.lexsort(
        (records["sample_rank"], records["adjacent_index"], records["scan_offset"], records["current_index"])
    )


# ---------------------------------------------------------------------------
# direction index


class DirectionIndex:
    """Azimuth-elevation grid over adjacent beam directions (current frame).

    Beams are grouped into elevation rows of ``cell_size`` radians and kept
    azimuth-sorted within each row; a cell is one (azimuth, elevation) bin.
    Points sitting on the adjacent sensor origin form no direction and are
    left out (their indices never appear in any cell).
    """

    def __init__(self, adjacent: Scan, cell_size_rad: float):
        if len(adjacent) == 0:
            raise EmptyScan("cannot index an empty scan")
        self.cell_size = float(cell_size_rad)
        origin = adjacent.sensor_origin
        delta = adjacent.points - origin
        ranges = np.linalg.norm(delta, axis=1)
        valid = ranges >= MIN_BEAM_RANGE
        if not valid.any():
            raise EmptyScan("no adjacent point forms a valid beam")
        self.beam_ids = np.nonzero(valid)[0].astype(np.int64)
        self.directions = delta[valid] / ranges[valid, None]
        self.ranges = ranges[valid]

        az = np.arctan2(self.directions[:, 1], self.directions[:, 0])  # [-pi, pi)
        el = np.arcsin(np.clip(self.directions[:, 2], -1.0, 1.0))
        cs = self.cell_size
        self.az_cell = np.floor((az + np.pi) / cs).astype(np.int64)
        el_cell = np.floor((el + np.pi / 2) / cs).astype(np.int64)
        n_el = max(int(math.ceil(np.pi / cs)), 1)
        np.clip(el_cell, 0, n_el - 1, out=el_cell)
        self.el_cell = el_cell

        order = np.lexsort((az, el_cell))
        az_sorted = az[order]
        rows, starts = np.unique(el_cell[order], return_index=True)
        row_ptr = np.append(starts, len(order))
        self.row_el_centers = -np.pi / 2 + (rows.astype(float) + 0.5) * cs
        # per-row azimuths duplicated one turn up, so interval queries that
        # wrap the -pi seam need a single searchsorted; built once, queried
        # for every chunk of every current scan that hits this index
        self._az_doubled = [
            np.concatenate([az_sorted[lo:hi], az_sorted[lo:hi] + 2.0 * np.pi])
            for lo, hi in zip(row_ptr[:-1], row_ptr[1:])
        ]
        self._pos_doubled = [
            np.concatenate([order[lo:hi], order[lo:hi]]).astype(np.int32)
            for lo, hi in zip(row_ptr[:-1], row_ptr[1:])
        ]

    def __len__(self) -> int:
        return len(self.directions)

    def occupied_cell_count(self) -> int:
        keys = self.el_cell * (2 ** 32) + self.az_cell
        return len(np.unique(keys))


def build_direction_index(adjacent: Scan, cell_size_rad: float) -> DirectionIndex:
    """Index the adjacent scan's beam directions for band queries."""
    return DirectionIndex(adjacent, cell_size_rad)


def _band_candidates(index: DirectionIndex, normals: np.ndarray, degenerate: np.ndarray, s_lim: float,
                     forward=None):
    """Candidate (chunk-local current id, index-local adjacent id) pairs.

    ``normals`` holds the (not necessarily valid) coplanarity-plane normals
    of a chunk of current beams; rows flagged ``degenerate`` get every
    adjacent beam as a candidate.  ``s_lim`` is the sine-domain half-width
    of the band, tested at each row's center elevation.  A beam binned in a
    row can sit up to half a cell off that center, and the plane distance
    moves by at most the elevation offset (the gradient is at most one), so
    callers must fold cell/2 into whatever angular tolerance they need
    covered.  Azimuth intervals are snapped outward to whole cells.

    ``forward``, when given, is a pair (cap centres, cap radii) of unit
    vectors and angles, one per beam, such that every adjacent direction the
    caller can use lies in its beam's cap.  Each band arc whose cells all lie
    outside the cap is dropped, so the output stays a superset of the
    in-band directions the caller needs.  The test takes a reference point
    in the arc at the row's center elevation (where the band's center circle
    crosses it, or the middle of an arc merged across the normal's azimuth
    or its antipode) and widens the radius by how far a beam binned into the
    snapped arc can sit off that point: cell/2 in elevation plus the arc's
    longer side from the reference along the row.  An infinite radius keeps
    every arc of its beam; degenerate beams and full rows are never dropped.

    Output pairs are duplicate-free: the two azimuth arcs of a (beam, row)
    combination are merged into one whenever they meet across the band
    normal's azimuth or its antipode, so every emission is disjoint and no
    dedup pass is needed.
    """
    cs = index.cell_size
    s_lim = min(float(s_lim), 1.0)

    def snap_down(az):
        return np.floor((az + np.pi) / cs) * cs - np.pi

    def snap_up(az):
        return np.ceil((az + np.pi) / cs) * cs - np.pi

    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    cn = np.hypot(nx, ny)
    psi = np.arctan2(ny, nx)

    out_i: list = []
    out_j: list = []

    ce = np.cos(index.row_el_centers)
    se = np.sin(index.row_el_centers)

    active = np.nonzero(~degenerate)[0].astype(np.int32)
    psi_a = psi[active]
    cn_a = cn[active]
    nz_a = nz[active]
    # a row emits nothing unless some beam satisfies |k_off| <= s_lim + c_amp
    # (the per-beam interval test below, cleared of its divisions); the 1e-12
    # slack dwarfs the divide rounding, so skipped rows are provably empty
    reach = np.abs(nz_a[None, :] * se[:, None]) <= s_lim + cn_a[None, :] * ce[:, None] + 1e-12
    if forward is not None:
        # cap centres in each beam's band frame: u along the normal's
        # azimuth psi, v a quarter turn on, z up; radii as given
        cap = forward[0].take(active, axis=0)
        cap_r = forward[1][active]
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_psi, sin_psi = nx[active] / cn_a, ny[active] / cn_a
        cap_u = cap[:, 0] * cos_psi + cap[:, 1] * sin_psi
        cap_v = cap[:, 1] * cos_psi - cap[:, 0] * sin_psi
        cap_z = cap[:, 2]
    live_rows = np.nonzero(reach.any(axis=1))[0] if len(active) else []
    for r in live_rows:
        c_amp = cn_a * ce[r]
        k_off = nz_a * se[r]
        flat = c_amp < 1e-300
        c_safe = np.where(flat, 1.0, c_amp)
        lo = (-s_lim - k_off) / c_safe
        hi = (s_lim - k_off) / c_safe
        empty = (lo > 1.0) | (hi < -1.0)
        full = flat & (np.abs(k_off) <= s_lim)
        empty = np.where(flat, ~full, empty)
        full |= (~flat) & (lo <= -1.0) & (hi >= 1.0)

        pos2 = index._pos_doubled[r]
        n_row = len(pos2) >> 1
        row_pos = pos2[:n_row]
        full_ids = [active[np.nonzero(full)[0]]] if full.any() else []

        sel = np.nonzero(~empty & ~full)[0]
        if len(sel):
            phi1 = np.arccos(np.clip(hi[sel], -1.0, 1.0))
            phi2 = np.arccos(np.clip(lo[sel], -1.0, 1.0))
            base = psi_a[sel]
            # arcs [phi1, phi2] and [-phi2, -phi1] around the normal azimuth;
            # within a cell of 0 or pi they meet once snapped, so merge them
            top = phi1 <= cs
            bot = phi2 >= np.pi - cs
            # per arc: snapped ends, owner (position in active), and for the
            # forward test a reference azimuth psi + delta inside the arc
            # with (cos delta, sin delta)
            lo_arcs, hi_arcs, owners, refs = [], [], [], []
            both = top & bot
            if both.any():
                full_ids.append(active[sel[both]])
            m = np.nonzero(top & ~bot)[0]
            if len(m):
                lo_arcs.append(snap_down(base[m] - phi2[m]))
                hi_arcs.append(snap_up(base[m] + phi2[m]))
                owners.append(sel[m])
                if forward is not None:  # reference: the middle, psi
                    refs.append((base[m], np.ones(len(m)), np.zeros(len(m))))
            m = np.nonzero(bot & ~top)[0]
            if len(m):
                lo_arcs.append(snap_down(base[m] + phi1[m]))
                hi_arcs.append(snap_up(base[m] + 2 * np.pi - phi1[m]))
                owners.append(sel[m])
                if forward is not None:  # reference: the middle, psi + pi
                    refs.append((base[m] + np.pi, -np.ones(len(m)), np.zeros(len(m))))
            m = np.nonzero(~top & ~bot)[0]
            if len(m):
                lo_arcs.extend((snap_down(base[m] + phi1[m]), snap_down(base[m] - phi2[m])))
                hi_arcs.extend((snap_up(base[m] + phi2[m]), snap_up(base[m] - phi1[m])))
                owners.extend((sel[m], sel[m]))
                if forward is not None:  # reference: the center circle's crossing
                    cos0 = np.clip(-k_off[sel[m]] / c_amp[sel[m]], -1.0, 1.0)
                    phi0 = np.arccos(cos0)
                    sin0 = np.sqrt(1.0 - cos0 * cos0)
                    refs.extend(((base[m] + phi0, cos0, sin0), (base[m] - phi0, cos0, -sin0)))
            if lo_arcs:
                a_lo = np.concatenate(lo_arcs)
                a_hi = np.concatenate(hi_arcs)
                own = np.concatenate(owners)
                if forward is not None:
                    # drop an arc when its reference point is farther from the
                    # cap than the radius plus how far a beam binned into the
                    # arc can sit from it: cell/2 across the row, the arc's
                    # longer side from the reference along it
                    x, cos_d, sin_d = (np.concatenate(v) for v in zip(*refs))
                    dot = ce[r] * (cos_d * cap_u[own] + sin_d * cap_v[own]) + se[r] * cap_z[own]
                    side = np.maximum(x - a_lo, a_hi - x)
                    near = np.arccos(np.clip(dot, -1.0, 1.0)) <= cap_r[own] + (0.5 * cs + 1e-9) + ce[r] * side
                    a_lo, a_hi, own = a_lo[near], a_hi[near], own[near]
                own = active[own]
                span = a_hi - a_lo
                wrap = span >= 2 * np.pi
                if wrap.any():
                    full_ids.append(own[wrap])
                    a_lo, span, own = a_lo[~wrap], span[~wrap], own[~wrap]
                start = np.mod(a_lo + np.pi, 2 * np.pi) - np.pi
                doubled = index._az_doubled[r]
                s_idx = np.searchsorted(doubled, start, side="left")
                e_idx = np.searchsorted(doubled, start + span, side="right")
                counts = e_idx - s_idx
                keep = counts > 0
                if keep.any():
                    flat_pos = _ranges_to_indices(s_idx[keep], e_idx[keep])
                    out_j.append(pos2[flat_pos])
                    out_i.append(np.repeat(own[keep], counts[keep]))

        if full_ids:
            who = np.concatenate(full_ids)
            out_i.append(np.repeat(who, n_row))
            out_j.append(np.tile(row_pos, len(who)))

    deg = np.nonzero(degenerate)[0].astype(np.int32)
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
    index's cell size of the coplanarity plane is included, which covers
    half the divergence angle whenever the cell is at least that coarse.
    When the plane is degenerate (baseline collinear with the beam, or
    origins coincide) all indexed beams are returned.
    """
    d = np.asarray(current_beam.direction, dtype=float)[None, :]
    normals, degenerate, _ = _band_planes(d, np.asarray(adjacent_origin, dtype=float))
    # half-width cell/2 for the promise above, plus cell/2 of binning slack
    ii, jj = _band_candidates(index, normals, degenerate, math.sin(index.cell_size))
    return sorted(int(index.beam_ids[j]) for j in jj)


def _band_planes(d, a, theta=None):
    """Band planes of beams with unit directions ``d`` (n, 3) against the
    adjacent origin ``a``: (normals, degenerate, forward).

    The normals are those of the planes spanned by each beam and the
    baseline.  A baseline of ORIGIN_EPS or less, or a beam within
    PARALLEL_EPS of its line, spans no plane; such beams are flagged
    degenerate (their normal is meaningless).  ``forward`` holds the
    :func:`_forward_caps` of the beams when ``theta`` is given and the
    baseline spans planes, else None.
    """
    a_norm = math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
    if a_norm <= ORIGIN_EPS:
        return np.zeros_like(d), np.ones(len(d), dtype=bool), None
    a_hat = a / a_norm
    cvec = np.cross(d, a_hat)
    c_norm = np.linalg.norm(cvec, axis=1)
    degenerate = c_norm < PARALLEL_EPS
    normals = cvec / np.where(degenerate, 1.0, c_norm)[:, None]
    forward = None if theta is None else _forward_caps(d, a_hat, c_norm, theta)
    return normals, degenerate, forward


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


def _forward_caps(d, a_hat, sin_g, theta):
    """Per-beam spherical caps holding every adjacent direction that can
    yield a record, for the band query's ``forward`` argument.

    A record needs its centerlines to cross ahead of both sensors (t > 0 and
    p_adj > 0).  For a direction e in the plane of d and the baseline that
    happens exactly on the great-circle arc from -a_hat to d, which lies in
    the cap centred at normalize(d - a_hat) with radius (pi - gamma) / 2,
    gamma being the angle between a_hat and d.  A coplanar e sits up to
    theta/2 off that plane, and the off-plane tilt lets t > 0 spill past the
    arc's ends by at most tan^2(theta/2) * |cot gamma|, below theta/16 once
    sin(gamma) >= 4 theta; the radius is padded by theta to cover both.
    Beams closer than that to the baseline's line keep an infinite radius,
    so the caps only ever drop pairs with t <= 0 or p_adj <= 0.
    """
    cos_g = d @ a_hat
    gamma = np.arctan2(sin_g, cos_g)
    centres = d - a_hat
    centres /= np.maximum(np.linalg.norm(centres, axis=1), 1e-300)[:, None]
    radii = np.where(sin_g >= 4.0 * theta, 0.5 * (np.pi - gamma) + theta, np.inf)
    return centres, radii


def _extract_chunk(lo, hi, cur_dirs, cur_ranges, cur_valid, index, adj_scan, offset, time, cfg, sensor):
    """Records of current beams [lo, hi) against one adjacent scan taken
    ``time`` seconds after the current one, in (current, adjacent, rank)
    order; None when there are none."""
    theta = sensor.divergence_angle_rad
    # beams on the sensor origin have no direction and draw no candidates
    rows = lo + np.nonzero(cur_valid[lo:hi])[0]
    d = cur_dirs.take(rows, axis=0)
    normals, degenerate, forward = _band_planes(d, adj_scan.sensor_origin, theta)
    # band half-width: the coplanarity tolerance theta/2 tested below, plus
    # the cell/2 of elevation binning slack the band query asks callers for
    s_lim = math.sin(theta / 2.0 + index.cell_size / 2.0)
    ii, jj = _band_candidates(index, normals, degenerate, s_lim, forward)
    # the pair stages run on cache-sized blocks of candidates
    runs = []
    for b in range(0, len(ii), PAIR_BLOCK):
        runs += _pair_runs(
            ii[b:b + PAIR_BLOCK], jj[b:b + PAIR_BLOCK], rows, d, normals, degenerate,
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


def _pair_runs(ii, jj, rows, d, normals, degenerate, cur_ranges, index, adj_scan, offset, time, cfg, sensor):
    """Records of candidate pairs (current beam ``rows[ii]`` with direction
    ``d[ii]``, index-local adjacent jj), as a list of unsorted record runs
    viewed as bytes."""
    theta = sensor.divergence_angle_rad
    a = adj_scan.sensor_origin
    if len(ii) == 0:
        return []

    # exact coplanarity (skipped for degenerate planes, which pass by fiat);
    # (n, 3) gathers use take(axis=0), several times faster than fancy indexing
    pair_deg = degenerate[ii]
    e_j = index.directions.take(jj, axis=0)
    ndote = np.einsum("ij,ij->i", normals.take(ii, axis=0), e_j)
    coarse = pair_deg | (np.abs(ndote) <= math.sin(theta / 2.0) + 1e-9)
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


def _check_frames(current: Scan, adjacent: Scan):
    if np.linalg.norm(current.sensor_origin) > 1e-9:
        raise FrameMismatch("current scan must be expressed in its own sensor frame (origin at 0)")
    if current.pose is not None and adjacent.pose is not None:
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
    k = min(k, 127)  # record field is a signed byte
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
                if len(adjacent) == 0:
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

    if np.linalg.norm(current.sensor_origin) > 1e-9:
        raise FrameMismatch("current scan must carry points in its own sensor frame")
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
