"""Occupancy reconstruction samples drawn along current-scan beams.

Each beam contributes a fixed number of occupied samples, uniform over the
occupied band starting at the reported range, and free samples, uniform
between the sensor and the reported range.  Draws come from the
counter-based generator Philox4x64-10 (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11) keyed on (seed, beam index), so any
subset of beams can be generated in any order, or in parallel, with
identical results.  The generator runs in numpy uint64 arithmetic over all
beams at once and gives, bit for bit, the stream of
``numpy.random.Generator(numpy.random.Philox(key=[seed, beam])).uniform``.
Positions are computed in float64 one coordinate column at a time and
rounded once into the float32 column, and the fields that every beam
shares are copied from one per-beam byte template: numpy runs its inner
loop once per record row on (3,) subarrays and structured fields, and once
per column or per beam here, for the same bytes.

Records are held in the ``.trcn`` layout, ``RECON_DTYPE``, so a set is
written and read without a cast.
"""

import operator

import numpy as np

from .sensor_model import SEED_LIMIT, OccupancyState, RecordSet, Scan, SensorConfig

# beams per pass of the generator; bounds the temporaries, not the output
_BEAM_BLOCK = 2048

# Philox4x64 multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# the record layout in memory and in a .trcn file, 21 bytes
RECON_DTYPE = np.dtype(
    [
        ("current_index", "<u4"),
        ("position", "<f4", (3,)),
        ("time", "<f4"),
        ("state", "u1"),
    ]
)


class ReconSet(RecordSet):
    """Reconstruction samples in beam order (occupied block, then free)."""

    record_dtype = RECON_DTYPE

    def __init__(self, records: np.ndarray):
        self.records = np.asarray(records, dtype=RECON_DTYPE)


def _mulhilo(m: int, x: np.ndarray, hi: np.ndarray, lo: np.ndarray, t: np.ndarray, w: np.ndarray):
    """High and low words of the 128-bit products m * x, from 32-bit
    halves, into ``hi`` and ``lo``; ``t`` and ``w`` are scratch.  All four
    have the shape of ``x`` and none is ``x``."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LOW32, out=w)  # x_lo
    np.multiply(w, m_lo, out=t)
    t >>= _SHIFT32
    w *= m_hi
    t += w  # m_hi x_lo + (m_lo x_lo >> 32)
    np.right_shift(x, _SHIFT32, out=hi)  # x_hi
    np.bitwise_and(t, _LOW32, out=w)
    np.multiply(hi, m_lo, out=lo)
    w += lo  # (t & low) + m_lo x_hi
    hi *= m_hi
    t >>= _SHIFT32
    hi += t
    w >>= _SHIFT32
    hi += w
    np.multiply(x, np.uint64(m), out=lo)


def _philox_uniform(seed: int, beams: np.ndarray, k: int) -> np.ndarray:
    """The first k doubles in [0, 1) of each beam's Philox4x64-10 stream.

    Row i equals ``Generator(Philox(key=[seed, beams[i]])).uniform(size=k)``
    bit for bit.  numpy increments the counter before each block of four
    words, so block j runs counter (j + 1, 0, 0, 0); the words come out in
    order, and each word u gives the double (u >> 11) * 2**-53.

    Counter words 1-3 are zero and key word 0 is the seed for every beam,
    so round 0 and the _M0 product of round 1 are the same for every beam
    and are computed in exact integers; the rest runs on (beams, blocks)
    arrays, in buffers allocated once per call.
    """
    n_blocks = -(-k // 4)
    mask = 2**64 - 1
    key0 = [np.uint64((seed + r * _W0) & mask) for r in range(_ROUNDS)]
    bump1 = [np.uint64(r * _W1 & mask) for r in range(_ROUNDS)]
    key1 = beams.astype(np.uint64)[:, None]
    # round 0 on counter (j, 0, 0, 0) gives (seed, 0, hi(M0 j) ^ beam,
    # lo(M0 j)); round 1's M0 product is then M0 * seed
    m0j = [_M0 * j for j in range(1, n_blocks + 1)]
    hi_j = np.array([p >> 64 for p in m0j], dtype=np.uint64)
    lo_j = np.array([p & mask for p in m0j], dtype=np.uint64)
    m0s = _M0 * (seed & mask)
    shape = (len(beams), n_blocks)
    c0, c1, c2, c3, hi0, lo0, hi1, lo1, t, w = (np.empty(shape, dtype=np.uint64) for _ in range(10))
    np.bitwise_xor(hi_j, key1, out=c2)
    # round 1: c1 is zero, and c3 is the constant lo(M0 * seed) after it
    _mulhilo(_M1, c2, hi1, lo1, t, w)
    np.bitwise_xor(hi1, key0[1], out=c0)
    c1, lo1 = lo1, c1
    np.bitwise_xor(lo_j, np.uint64(m0s >> 64), out=c2)
    c2 ^= key1 + bump1[1]
    c3.fill(m0s & mask)
    for r in range(2, _ROUNDS):
        _mulhilo(_M0, c0, hi0, lo0, t, w)
        _mulhilo(_M1, c2, hi1, lo1, t, w)
        np.bitwise_xor(hi1, c1, out=c0)
        c0 ^= key0[r]
        c1, lo1 = lo1, c1
        np.bitwise_xor(hi0, c3, out=c2)
        c2 ^= key1 + bump1[r]
        c3, lo0 = lo0, c3
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(beams), -1)
    return (words[:, :k] >> 11) * 2.0**-53


def sample_recon_points(
    current: Scan,
    occupied_per_beam: int,
    free_per_beam: int,
    sensor: SensorConfig,
    seed: int,
) -> ReconSet:
    """Sample occupancy targets on every beam of the current scan.

    Per beam with reported range r: ``occupied_per_beam`` ranges uniform in
    [r, r + band) and ``free_per_beam`` ranges uniform in [0, r), both on
    the beam's centerline from the sensor origin (see ``Scan.beams``).
    States are FREE and OCCUPIED by construction.
    Points sitting on the sensor origin, or with a non-finite coordinate,
    form no beam and contribute nothing, so a scan with such points yields fewer than N * (occupied +
    free) samples.  ``seed`` must lie in [0, 2**63).
    """
    seed = operator.index(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
    if occupied_per_beam < 0 or free_per_beam < 0:
        raise ValueError("per-beam sample counts must be >= 0")
    per_beam = occupied_per_beam + free_per_beam
    valid, dirs, ranges = current.beams()
    if len(valid) == 0 or per_beam == 0:
        return ReconSet.empty()
    origin = current.sensor_origin

    # time and state are the same for every beam: one record template per
    # beam, broadcast over each block's record bytes, then the beam indices
    template = np.zeros(per_beam, dtype=RECON_DTYPE)
    template["time"] = current.time
    template["state"][:occupied_per_beam] = int(OccupancyState.OCCUPIED)
    template["state"][occupied_per_beam:] = int(OccupancyState.FREE)
    rec = np.empty((len(valid), per_beam), dtype=RECON_DTYPE)
    pos = rec["position"]
    # one coordinate column of a block in float64, rounded once into pos
    coord = np.empty((min(_BEAM_BLOCK, len(valid)), per_beam))
    for start in range(0, len(valid), _BEAM_BLOCK):
        rows = slice(start, start + _BEAM_BLOCK)
        rec[rows].view(np.uint8)[:] = template.view(np.uint8)
        rec["current_index"][rows] = valid[rows, None]
        # unit draws become ranges in place: r + u * band, then u * r
        sample_r = _philox_uniform(seed, valid[rows], per_beam)
        r = ranges[rows, None]
        sample_r[:, :occupied_per_beam] *= sensor.occupied_band_m
        sample_r[:, :occupied_per_beam] += r
        sample_r[:, occupied_per_beam:] *= r
        col = coord[:len(sample_r)]
        for j in range(3):
            np.multiply(sample_r, dirs[rows, j, None], out=col)
            if origin[j]:  # skipped at zero, which would turn -0.0 into 0.0
                col += origin[j]
            pos[rows, :, j] = col
    return ReconSet(rec.reshape(-1))
