"""Temporal overlap extraction over scan pairs and scan windows.

For every pair (current beam, adjacent beam) that is coplanar within the
divergence tolerance, the beams' centerline crossing is found and one or
five overlap points are emitted depending on the crossing angle, each
labeled FREE / OCCUPIED / UNKNOWN by projecting onto the adjacent beam and
applying the occupancy rule against that beam's reported range.  That
per-pair formula lives in one column kernel, :func:`_pair_records`, which
the all-pairs test reference runs too; it makes every record from one
table of samples, one row per overlap point, computes in float64 and
rounds once, as it packs them in the ``.tovp`` layout, ``RECORD_DTYPE``.  A
beam that spans no plane with the baseline (see :func:`_band_planes`)
gives no record; with a baseline of ORIGIN_EPS or less, as from a
stationary sensor, no beam does, and the scan pair gives nothing.

The all-pairs search is pruned by an index of the adjacent beam directions
in the frame of the baseline between the two sensors.  Every coplanarity
plane contains the baseline, so it is an epipolar plane of the two sensors
and one angle fixes it: its azimuth around the baseline axis.  Coplanarity
then is a window test on the azimuth, read from rows of adjacent
directions with similar angles to the axis, and the kernel keeps a
candidate by one mask, the coplanarity and crossing gates read off one
triple product.
Crossings ahead of both sensors need an adjacent beam farther from the
baseline axis than the current one, on the current beam's side of that
axis except in a thin band by the far end of the axis, so the query
skips the other rows and windows (see :func:`_band_candidates`).
Everything downstream of the candidate query is vectorized.  The current
scan is extracted in fixed blocks of CHUNK beams, each against every
adjacent scan and sorted once into canonical order; the blocks cover
increasing current indices, so joined end to end they are the canonical
set, whatever the block size or the thread count.  No other code orders
records: an :class:`OverlapSet` and the ``.tovp`` reader refuse records out
of order.  Blocks bound the memory: a window is streamed one block per
thread, never held whole.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math

import numpy as np

from .errors import EmptyScan, FrameMismatch, MissingPose
from .geometry import ORIGIN_EPS, PARALLEL_EPS
from .sensor_model import DEFAULT_BOUNDS, FRAME_TOL, Beam, OccupancyState, RecordSet, Scan, SensorConfig

# Current beams per block: a constant, so that what a block costs and holds
# depends on no option.  Peak memory grows with it (one block per thread in
# flight); the output bytes do not depend on it.  It must stay below 2^16,
# the width of the block-local current index in the block sort key.
CHUNK = 2048
PAIR_BLOCK = 1 << 14

# the record layout in memory and in a .tovp file, 31 bytes: values are
# computed in float64 and rounded once as they are packed
RECORD_DTYPE = np.dtype(
    [
        ("current_index", "<u4"),
        ("scan_offset", "<i1"),
        ("adjacent_index", "<u4"),
        ("position", "<f4", (3,)),
        ("time", "<f4"),
        ("state", "u1"),
        ("confidence", "<f4"),
        ("sample_rank", "u1"),
    ]
)

# records as opaque bytes: numpy moves these several times faster than the
# structured dtype when gathering, scattering or concatenating records
_RECORD_BYTES = np.dtype((np.void, RECORD_DTYPE.itemsize))

# records per chunk of the order check in _canonical_tail: 256 KiB of keys
_ORDER_CHUNK = 1 << 15
_OUT_OF_ORDER = "overlap records are not in (current, offset, adjacent, rank) order"


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs that shape an overlap file, and so enter ``config_hash``.

    ``scan_period_s`` turns a scan's time difference to the current scan
    into its offset.  ``max_tail_beyond_hit_m`` limits how far past the
    current beam's own hit overlap points are kept; None means one
    occupied-band length.  ``rng_seed`` is read by no extraction step;
    leave it at 0, so that the digest does not move with it.
    """

    n_adjacent: int = 6
    scan_period_s: float = 0.5
    bounds: tuple = DEFAULT_BOUNDS
    max_tail_beyond_hit_m: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        # scan_offset is stored as a signed byte
        if not 1 <= self.n_adjacent <= 127:
            raise ValueError(f"n_adjacent must be in 1..127: {self.n_adjacent}")
        if not self.scan_period_s > 0:
            raise ValueError(f"scan_period_s must be > 0: {self.scan_period_s}")
        b = tuple(float(v) for v in self.bounds)
        if len(b) != 6 or not (b[0] < b[1] and b[2] < b[3] and b[4] < b[5]):
            raise ValueError(f"bounds must be (x0,x1,y0,y1,z0,z1) with lo < hi: {self.bounds}")
        object.__setattr__(self, "bounds", b)
        if self.max_tail_beyond_hit_m is not None and not self.max_tail_beyond_hit_m >= 0:  # NaN fails
            raise ValueError(f"max_tail_beyond_hit_m must be >= 0: {self.max_tail_beyond_hit_m}")

    def tail_m(self, sensor: SensorConfig) -> float:
        if self.max_tail_beyond_hit_m is not None:
            return self.max_tail_beyond_hit_m
        return sensor.occupied_band_m

    def cell_size(self, sensor: SensorConfig) -> float:
        """The direction-index cell: an eighth of the divergence angle.  It
        sets only the half-width of :func:`candidate_pairs`."""
        return sensor.divergence_angle_rad / 8.0


class OverlapSet(RecordSet):
    """Canonically ordered collection of overlap records.

    Stores a packed numpy record array in the ``.tovp`` layout (see
    RECORD_DTYPE), so a set is written and read without a cast, and read
    through its ``records`` fields.  Order is (current index, scan offset,
    adjacent index, sample rank), which makes serialization deterministic.
    Records out of that order are a ValueError, never sorted.
    """

    record_dtype = RECORD_DTYPE

    def __init__(self, records: np.ndarray, presorted: bool = False):
        records = np.asarray(records, dtype=RECORD_DTYPE)
        if not presorted and _canonical_tail(records, (0, 0)) is None:
            raise ValueError(_OUT_OF_ORDER)
        self.records = records


def _tail_keys(records: np.ndarray) -> np.ndarray:
    """One u64 key per record, ascending in (offset, adjacent, rank) order:
    offset + 128 (the offset byte with its top bit flipped) in bits 40-47,
    the adjacent index in bits 8-39 and the rank in bits 0-7."""
    key = (records["scan_offset"].view(np.uint8) ^ np.uint8(0x80)).astype(np.uint64)
    key <<= np.uint64(32)
    key |= records["adjacent_index"]
    key <<= np.uint64(8)
    key |= records["sample_rank"]
    return key


def _canonical_tail(records: np.ndarray, last: tuple, tail_keys=_tail_keys):
    """The key of the last record of ``records``, a run of records that
    follows a record whose key is ``last`` (``last`` itself for an empty
    run), when the run keeps canonical order: the current index never
    falls, and among equal current indices the ``tail_keys`` key never
    falls.  None when it does not.  A key is (current, tail key), or
    (current,) with ``tail_keys`` None, the beam order of ``.trcn``
    records.  Checked ``_ORDER_CHUNK`` records at a time, so one chunk of
    keys is held whatever the run's size."""
    for lo in range(0, len(records), _ORDER_CHUNK):
        chunk = records[lo:lo + _ORDER_CHUNK]
        # a contiguous copy: the comparisons read it several times
        keys = [np.ascontiguousarray(chunk["current_index"])]
        cur = keys[0]
        falls = cur[1:] < cur[:-1]
        if tail_keys is not None:
            tail = tail_keys(chunk)
            falls |= (cur[1:] == cur[:-1]) & (tail[1:] < tail[:-1])
            keys.append(tail)
        if tuple(int(k[0]) for k in keys) < last or falls.any():
            return None
        last = tuple(int(k[-1]) for k in keys)
    return last


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
    then, and extraction builds no index).  A direction sits at angle beta
    to a_hat and azimuth psi in [-pi, pi) around it.  Beams are grouped
    into ROWS rows of equal beta width, each sorted by psi; per row the
    index keeps the smallest and the largest beta of its beams and the
    smallest sin(beta), which is the smaller of their sines since sine is
    concave on [0, pi].  Points sitting on the adjacent sensor origin form
    no direction and are left out (their indices never appear in any row).
    ``cell_size`` only sets the half-width of :func:`candidate_pairs`.
    """

    def __init__(self, adjacent: Scan, cell_size_rad: float):
        self.cell_size = float(cell_size_rad)
        self.origin = adjacent.sensor_origin.copy()
        self.beam_ids, self.directions, self.ranges = adjacent.beams()
        if len(self.beam_ids) == 0:
            raise EmptyScan("no adjacent point forms a valid beam")

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
        self.row_beta_lo = np.minimum.reduceat(beta[order], starts)
        self.row_beta_hi = np.maximum.reduceat(beta[order], starts)
        self.row_sin_lo = np.minimum(np.sin(self.row_beta_lo), np.sin(self.row_beta_hi))
        # each row's azimuths, then the same one turn up so that a window
        # across the -pi seam is one range, all rows in one array with row r
        # shifted by 16 r: one searchsorted, its queries shifted alike,
        # serves every row (see _band_candidates)
        n_row = np.diff(np.append(starts, len(order)))
        self._row_start, self._row_len = 2 * starts, n_row
        self._row_shift = 16.0 * np.arange(len(starts))
        first = np.arange(len(order)) + np.repeat(starts, n_row)
        second = first + np.repeat(n_row, n_row)
        psi_sorted, shift = psi[order], np.repeat(self._row_shift, n_row)
        self._psi = np.empty(2 * len(order))
        self._psi[first], self._psi[second] = psi_sorted + shift, (psi_sorted + 2.0 * np.pi) + shift
        self._pos = np.empty(2 * len(order), dtype=np.int32)
        self._pos[first], self._pos[second] = order, order

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


def _band_candidates(index: DirectionIndex, d: np.ndarray, s_lim: float, theta=None):
    """Candidate (block-local current id, index-local adjacent id) pairs.

    ``d`` holds unit directions of current beams that span a band plane
    (see :func:`_band_planes`).  Each beam gets at least each adjacent
    direction e within sine distance ``s_lim`` of that plane
    (|m . a| <= s_lim |d x a|, with m = d x e), and no pair twice, in no
    set order.

    The plane of a beam at angle gamma to a_hat has the beam's own azimuth
    psi_d, and e lies sin(beta_e) |sin(psi_e - psi_d)| from it.  In a row
    whose smallest sin(beta) is m, that bounds |sin(psi_e - psi_d)| by
    x = s_lim / m: the beam reads the window psi_d +- asin(x) on its own
    half-plane and, where asked, the same window around psi_d + pi.  From
    x = 0.999 on it reads the whole row instead, which costs little more
    and keeps the two windows from meeting.  s_lim is padded by
    1e-13 / sin(gamma).  That is at least 1e-13, far above the rounding of
    the frame and of psi_e; near the baseline axis, where psi_d and the
    kernel's |m . a| / |d x a| are off by a few ulps over sin(gamma), it is
    a thousand times their error.  One searchsorted reads every window,
    shifted as its row is; rounding is monotone, so no azimuth in a window
    is lost.

    ``theta``, when given, also skips pairs that cannot give a record in
    :func:`_pair_records`.  With c = cos(psi_e - psi_d), t has the sign of
    A = cos(gamma) sin(beta) - sin(gamma) cos(beta) c and p_adj that of
    B = c cos(gamma) sin(beta) - sin(gamma) cos(beta).  As
    A + B = (1 + c) sin(beta - gamma), a record needs beta > gamma, so rows
    whose largest beta is below gamma - theta are skipped.  On the far
    half-plane (c < 0) A and B are both positive only for gamma < pi/2, and
    for in-band e only within theta of beta = pi (by -a_hat, where the
    half-planes meet) or of beta = pi - gamma.  The theta margins dwarf the
    rounding of t and p_adj near their sign changes.  By -a_hat the far
    window stays: an in-band e there tilted out of the plane by nearly
    theta / 2 lies a little over a quarter turn from psi_d, and can still
    cross d ahead of both sensors within the beam radii.  The far window
    is read only in rows that reach pi - theta, as the kernel's gap gate
    drops every pair at pi - gamma when sin(gamma) >= 4 theta.  There e
    lies within alpha <= theta + 2 asin(s_lim / sqrt(2)) < 1.75 theta of
    -d; write e = -cos(alpha) d + sin(alpha) (cos(phi) k + sin(phi) n),
    with k the unit normal to d in the band plane (k . a_hat = sin(gamma)).
    Then t = |a| (cos(gamma) + cot(alpha) cos(phi) sin(gamma)),
    p_adj = -|a| cos(phi) sin(gamma) / sin(alpha), and the centerlines pass
    |a| sin(gamma) |sin(phi)| apart.  p_adj > 0 alone bounds t + p_adj by
    -a . e / cos(alpha) <= |a| (1 + theta), whatever the rounding of t, so
    the gate allows a gap of at most 0.56 |a| theta; as |d x e| >=
    PARALLEL_EPS, the computed gap is within 4e-7 |a| of the true one (for
    theta >= 1e-5).  A kept pair so has |sin(phi)| < 0.15: then t < 0 if
    cos(phi) < 0, and p_adj < 0 if cos(phi) > 0, each by over twenty times
    its rounding.  Beams nearer the baseline axis than 4 theta read both
    windows of every row.
    """
    gamma, sin_g, psi = _baseline_angles(d, index.frame)
    with np.errstate(divide="ignore"):
        s = s_lim + 1e-13 / sin_g
    # a beam reads a row when the row's largest beta is >= near_from, and
    # its far window too when that beta is >= far_from
    near_from = np.full(len(d), -np.inf)
    far_from = near_from.copy()
    if theta is not None:
        prune = sin_g >= 4.0 * theta
        near_from[prune] = gamma[prune] - theta
        far_from[prune] = np.pi - theta
    # (row, beam) matrices, so that the windows come row by row, and the
    # pair stages gather from one row of the index at a time
    beta_hi = index.row_beta_hi[:, None]
    near = beta_hi >= near_from
    with np.errstate(divide="ignore"):  # a beam on the axis: whole rows
        x = s / index.row_sin_lo[:, None]
    full = near & (x >= 0.999)
    near &= ~full
    far = near & (beta_hi >= far_from)

    # (row, beam) of every window, near ones first, and of every whole row
    flat = np.concatenate([np.flatnonzero(near), np.flatnonzero(far)])
    wr, wi = np.divmod(flat, len(d))
    row_r, row_i = np.divmod(np.flatnonzero(full), len(d))
    w = np.arcsin(x.ravel()[flat])
    start = psi[wi] - w
    start[np.count_nonzero(near):] += np.pi
    start = np.mod(start + np.pi, 2.0 * np.pi) - np.pi
    shift = index._row_shift[wr]
    lo = np.concatenate([np.searchsorted(index._psi, start + shift, side="left"), index._row_start[row_r]])
    hi = np.concatenate([np.searchsorted(index._psi, (start + 2.0 * w) + shift, side="right"),
                         index._row_start[row_r] + index._row_len[row_r]])
    who = np.concatenate([wi, row_i]).astype(np.int32)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    return np.repeat(who[keep], hi - lo), index._pos[_ranges_to_indices(lo, hi)]


def _ranges_to_indices(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate arange(s, e) for every (s, e) pair with s < e, vectorized:
    a cumulative sum of unit steps, with each range's first step jumping
    from the previous range's last index, or from 0; no pair gives an
    empty array."""
    counts = ends - starts
    step = np.ones(int(counts.sum()), dtype=np.int32)
    step[np.cumsum(counts) - counts] = starts - np.concatenate(([0], ends[:-1] - 1))
    return np.cumsum(step, dtype=np.int32)


def candidate_pairs(current_beam: Beam, index: DirectionIndex, adjacent_origin) -> list:
    """Adjacent point indices that might form a coplanar pair with the beam.

    Conservative superset: every beam whose direction lies within half the
    index's cell size of the coplanarity plane is included, on both sides
    of the baseline axis (no forward pruning).  A beam that spans no plane
    with the baseline (see :func:`_band_planes`) forms no record and gets
    no candidate.  ``adjacent_origin`` must be the indexed scan's sensor
    origin, the baseline the index frame is built on.
    """
    a = np.asarray(adjacent_origin, dtype=float)
    if not np.array_equal(a, index.origin):
        raise ValueError("adjacent_origin is not the sensor origin of the indexed scan")
    d = np.asarray(current_beam.direction, dtype=float)[None, :]
    live, _ = _band_planes(d, a)
    if len(live) == 0:
        return []
    _, jj = _band_candidates(index, d, math.sin(index.cell_size / 2.0))
    return sorted(int(index.beam_ids[j]) for j in jj)


def _band_planes(d, a):
    """Band planes of beams with unit directions ``d`` (n, 3) against the
    adjacent origin ``a``: (live, span).

    Each beam spans a plane with the baseline unless the baseline is
    ORIGIN_EPS or shorter, or the beam lies within PARALLEL_EPS of its
    line (|d x a_hat| < PARALLEL_EPS); a beam without a plane gives no
    record (as in :func:`geometry.plane_normal`).  ``live`` holds the rows
    of ``d`` that span one, and ``span`` their |d x a|, the length that
    turns the kernel's triple product into a sine distance from the plane.
    """
    a_norm = math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
    if a_norm <= ORIGIN_EPS:
        return np.empty(0, dtype=np.intp), np.empty(0)
    c_norm = np.linalg.norm(np.cross(d, a / a_norm), axis=1)
    live = np.nonzero(c_norm >= PARALLEL_EPS)[0]
    return live, c_norm[live] * a_norm


# ---------------------------------------------------------------------------
# pair extraction


def _pair_records(ii, jj, cur, adj, a, offset, time, cfg, sensor) -> np.ndarray:
    """Records of (current, adjacent) beam pairs: the one copy of the
    per-pair formula, in column form.

    ``cur`` is (ids, unit directions, ranges, spans |d x a|) of current
    beams that span a band plane (see :func:`_band_planes`), ``adj`` is
    (ids, unit directions, ranges, points) of adjacent beams in the current
    frame, with ``points`` the adjacent scan's points by id, and ``a`` is
    the adjacent sensor origin.  Pair k joins row ``ii[k]`` of ``cur`` with
    row ``jj[k]`` of ``adj``.

    A pair gives records when the adjacent direction lies within theta / 2
    of the current beam's band plane, and the centerlines cross at
    q = t * d ahead of both sensors (t > 0 and p_adj > 0), passing within
    the sum of the two beam radii there, (t + p_adj) tan(theta / 2).  Beams
    crossing at over theta give one sample at q; at or under it, five
    samples along their shared segment, when that segment starts ahead of
    the sensor.  Samples outside the crop box, behind either sensor, or
    farther than the tail past the current hit are dropped, and the rest
    are labeled against the adjacent beam's range.

    With m = d x e, m . a = -(d x a) . e, so |m . a| / |d x a| is |n . e|,
    the sine of e's angle to the band plane of unit normal n: the angle
    test |arccos(n . e) - pi / 2| <= theta / 2 (as in
    :func:`geometry.coplanarity_angle`) holds exactly where
    |m . a| <= sin(theta / 2) |d x a|, and |m . a| / |m| is the centerline
    gap.  One mask holds every gate.  The beams cross at over theta where
    d . e < cos(theta).  Every sample is a row of one table of four
    columns: the pair k it comes from, its range along d (t at q), its rho
    along e (p_adj at q) and its rank.  One filter chain, one labeling and
    one pack run on that table, and each position is made there, as
    range * d, the product that gives q, so a position at q has q's bits.
    Returns the records, unsorted, as one RECORD_DTYPE array, empty when
    no sample is kept.
    """
    theta = sensor.divergence_angle_rad
    tau = math.tan(theta / 2.0)
    ids, d, r, span = cur
    adj_ids, e, s, points = adj

    # coplanarity, and the crossing q = t * d_i, where the lines truly cross
    # ahead of both sensors (t > 0 and p_adj > 0; NaN from parallel lines
    # fails both) within the beam radii; (n, 3) gathers use take(axis=0),
    # several times faster than fancy indexing
    d_i, e_j = d.take(ii, axis=0), e.take(jj, axis=0)
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
    ma = np.abs(m @ a)
    ok = ma <= math.sin(theta / 2.0) * span[ii]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("ij,ij->i", w, m) / mm
        q = t[:, None] * d_i
        p_adj = np.einsum("ij,ij->i", q - a, e_j)
        ok &= ma <= (t + p_adj) * tau * np.sqrt(mm)
    ok &= (mm >= PARALLEL_EPS ** 2) & (t > 0.0) & (p_adj > 0.0)

    # the sample table (pair, range, rho, rank): one sample at the
    # crossing, unless the beams cross at under theta
    dot_de = np.einsum("ij,ij->i", d_i, e_j)
    single = dot_de < math.cos(theta)
    k = np.nonzero(ok & single)[0]
    samples = (k, t[k], p_adj[k], np.zeros(len(k), dtype=np.uint8))
    two = np.nonzero(ok & ~single)[0]
    if len(two):
        # five samples, where the overlap segment starts ahead of the sensor
        l2 = np.linalg.norm(q.take(two, axis=0) - a, axis=1)
        s_half = np.sin(np.arccos(np.minimum(dot_de[two], 1.0)) / 2.0)
        start = (t[two] * (s_half + tau) - l2 * tau) / (s_half + 2.0 * tau)
        two = two[start > 0.0]
    if len(two):
        r_i, t_i, d_two = r[ii[two]], t[two], d_i.take(two, axis=0)
        proj = np.einsum("ij,ij->i", points.take(adj_ids[jj[two]], axis=0), d_two)
        ranges5 = np.stack([r_i, proj, 0.5 * (r_i + proj), 0.5 * (r_i + t_i), 0.5 * (proj + t_i)], axis=1)
        rho5 = np.einsum("pkj,pj->pk", ranges5[:, :, None] * d_two[:, None, :] - a, e_j.take(two, axis=0))
        five = (np.repeat(two, 5), ranges5.ravel(), rho5.ravel(), np.tile(np.arange(5, dtype=np.uint8), len(two)))
        samples = tuple(np.concatenate(c) for c in zip(samples, five))
    k, ranges, rho, rank = samples

    # the point filters, the labels and the pack, once for every sample
    pos = ranges[:, None] * d_i.take(k, axis=0)
    b = cfg.bounds
    keep = rho >= 0.0
    keep &= ranges >= 0.0
    keep &= ranges <= r[ii[k]] + cfg.tail_m(sensor)
    keep &= pos[:, 0] >= b[0]
    keep &= pos[:, 0] <= b[1]
    keep &= pos[:, 1] >= b[2]
    keep &= pos[:, 1] <= b[3]
    keep &= pos[:, 2] >= b[4]
    keep &= pos[:, 2] <= b[5]
    idx = np.nonzero(keep)[0]
    if len(idx) < len(keep):
        k, rho, rank, pos = k[idx], rho[idx], rank[idx], pos.take(idx, axis=0)
    ii, jj = ii[k], jj[k]
    s_j = s[jj]

    rate = sensor.decay_rate_per_meter
    band = sensor.occupied_band_m
    past = rho > s_j
    conf = np.ones(len(rho))
    conf[past] = np.exp(-rate * (rho[past] - s_j[past]))
    state = np.full(len(rho), int(OccupancyState.OCCUPIED), dtype=np.uint8)
    state[rho < s_j] = int(OccupancyState.FREE)
    state[rho > s_j + band] = int(OccupancyState.UNKNOWN)

    rec = np.empty(len(rho), dtype=RECORD_DTYPE)
    rec["current_index"] = ids[ii]
    rec["scan_offset"] = offset
    rec["adjacent_index"] = adj_ids[jj]
    rec["position"] = pos
    rec["time"] = time
    rec["state"] = state
    rec["confidence"] = conf
    rec["sample_rank"] = rank
    return rec


def _check_frames(current: Scan, adjacent: Scan | None = None):
    """Raise FrameMismatch unless the current scan is in its own sensor
    frame and the adjacent one, when given, in the current scan's frame."""
    if np.linalg.norm(current.sensor_origin) > FRAME_TOL:
        raise FrameMismatch("current scan must be expressed in its own sensor frame (origin at 0)")
    if adjacent is not None and current.pose is not None and adjacent.pose is not None:
        if not current.pose.almost_equal(adjacent.pose):
            raise FrameMismatch("adjacent scan not re-expressed in the current scan's frame")


def _derive_offset(current: Scan, adjacent: Scan, cfg: ExtractionConfig) -> int:
    dt = adjacent.time - current.time
    if dt == 0.0:
        raise ValueError("adjacent scan time equals current scan time")
    periods = abs(dt) / cfg.scan_period_s
    if not math.isfinite(periods):  # NaN or inf
        raise ValueError(f"time difference to the adjacent scan is {dt} s, not a finite number of periods")
    k = max(1, int(round(periods)))
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
    return _joined(_extract_blocks(current, [(offset, adjacent)], cfg, sensor, threads))


def _extract_blocks(current, jobs, cfg, sensor, threads):
    """Record blocks of ``current`` against (offset, adjacent) jobs, the
    adjacent scans in the current sensor frame.  Each job is prepared once:
    its live current beams, its direction index and its column tuples.
    Each block of CHUNK current points runs the band query and then the
    pair kernel against every job, and is sorted into canonical order on
    one u64 key: the block-local current index (below CHUNK) in bits 48-63
    over the :func:`_tail_keys` key."""
    theta = sensor.divergence_angle_rad
    ids, dirs, ranges = current.beams()
    prepared = []
    for offset, adjacent in jobs:
        # only beams that span a band plane give records; a baseline of
        # ORIGIN_EPS or less (a stationary sensor) leaves none, and the job
        # ends before the index build
        live, span = _band_planes(dirs, adjacent.sensor_origin)
        if len(live) == 0:
            continue
        cur = (ids, dirs, ranges, span)
        if len(live) < len(ids):
            cur = (ids[live], dirs.take(live, axis=0), ranges[live], span)
        try:
            index = build_direction_index(adjacent, cfg.cell_size(sensor))
        except EmptyScan:
            continue
        adj = (index.beam_ids, index.directions, index.ranges, adjacent.points)
        # stored times are relative to the current scan
        prepared.append((cur, index, adj, adjacent.sensor_origin, offset, adjacent.time - current.time))

    def block(lo):
        # each job's band query on the block's live beams, then the pair
        # stages on cache-sized blocks of candidates
        runs = [np.empty(0, dtype=_RECORD_BYTES)]
        for cur, index, adj, a, offset, time in prepared:
            first, last = np.searchsorted(cur[0], (lo, lo + CHUNK))
            cur = tuple(col[first:last] for col in cur)
            ii, jj = _band_candidates(index, cur[1], math.sin(theta / 2.0), theta)
            for b in range(0, len(ii), PAIR_BLOCK):
                runs.append(_pair_records(ii[b:b + PAIR_BLOCK], jj[b:b + PAIR_BLOCK], cur, adj, a,
                                          offset, time, cfg, sensor).view(_RECORD_BYTES))
            del ii, jj  # freed before the next band query
        rec = np.concatenate(runs).view(RECORD_DTYPE)
        del runs  # freed before the sort
        key = _tail_keys(rec)
        key |= (rec["current_index"] - np.uint32(lo)).astype(np.uint64) << np.uint64(48)
        return rec.view(_RECORD_BYTES).take(np.argsort(key)).view(RECORD_DTYPE)

    yield from _map_in_order(block, range(0, len(current), CHUNK), threads)


def _map_in_order(fn, items, threads):
    """``map(fn, items)``, on ``threads`` worker threads when that is over
    one.  At most threads + 1 results are in flight: the one the consumer
    holds and ``threads`` computed ahead of it."""
    if threads == 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    ahead = deque()
    try:
        for item in items:
            if len(ahead) > threads:
                yield ahead.popleft().result()
            ahead.append(pool.submit(fn, item))
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _joined(blocks) -> OverlapSet:
    """The overlap set of canonically ordered blocks, joined end to end."""
    runs = [np.empty(0, dtype=_RECORD_BYTES)] + [b.view(_RECORD_BYTES) for b in blocks]
    return OverlapSet(np.concatenate(runs).view(RECORD_DTYPE), presorted=True)


def extract_sequence(current: Scan, adjacents: list, cfg: ExtractionConfig, sensor: SensorConfig,
                     threads: int = 1) -> OverlapSet:
    """Overlap points of a current scan against its 2n adjacent scans.

    ``adjacents`` must hold n past and n future scans (by time); they may be
    in any common reference frame, and are re-expressed in the current
    scan's sensor frame here.  Offsets -n..-1 and 1..n follow time order.
    """
    return _joined(extract_sequence_blocks(current, adjacents, cfg, sensor, threads))


def extract_sequence_blocks(current: Scan, adjacents: list, cfg: ExtractionConfig,
                            sensor: SensorConfig, threads: int = 1):
    """The records of :func:`extract_sequence` as an iterator of canonically
    ordered record arrays that joined end to end form its set.  The window
    is checked here, before any block is extracted; a caller that writes
    each block as it comes holds one block per thread, not the set."""
    n = cfg.n_adjacent
    for s in adjacents:
        if s.pose is None:
            raise MissingPose("adjacent scan lacks a pose")
    if current.pose is None:
        raise MissingPose("current scan lacks a pose")
    past = sorted([s for s in adjacents if s.time < current.time], key=lambda s: s.time)
    future = sorted([s for s in adjacents if s.time > current.time], key=lambda s: s.time)
    if len(past) != n or len(future) != n:
        raise ValueError(f"need {n} past and {n} future scans, got {len(past)} and {len(future)}")

    _check_frames(current)
    jobs = [(off, scan.in_frame_of(current)) for off, scan in zip(range(-n, 0), past)]
    jobs += [(off, scan.in_frame_of(current)) for off, scan in zip(range(1, n + 1), future)]
    return _extract_blocks(current, jobs, cfg, sensor, threads)


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
