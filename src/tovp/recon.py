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
Positions are written one coordinate column at a time, and the fields that
every beam shares are copied from one per-beam byte template: numpy runs
its inner loop once per record row on (3,) subarrays and structured
fields, and once per column or per beam here, for the same bytes.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .sensor_model import MIN_BEAM_RANGE, OccupancyState, Scan, SensorConfig

# seeds are the first key word, kept to the non-negative int64 range: there
# every seed has its own stream, equal to numpy's Philox(key=[seed, beam]),
# which sends larger seeds through float64 and makes them collide
SEED_LIMIT = 2**63

# beams per pass of the generator; bounds the temporaries, not the output
_BEAM_BLOCK = 2048

# Philox4x64 multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

RECON_DTYPE = np.dtype(
    [
        ("current_index", "<u4"),
        ("position", "<f8", (3,)),
        ("time", "<f8"),
        ("state", "u1"),
    ]
)


@dataclass(frozen=True)
class ReconSample:
    """One reconstruction target on a current beam's centerline."""

    position: np.ndarray
    time: float
    state: OccupancyState
    current_point_index: int


class ReconSet:
    """Reconstruction samples in beam order (occupied block, then free)."""

    def __init__(self, records: np.ndarray):
        self.records = np.asarray(records, dtype=RECON_DTYPE)

    @classmethod
    def empty(cls) -> "ReconSet":
        return cls(np.empty(0, dtype=RECON_DTYPE))

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, idx: int) -> ReconSample:
        r = self.records[idx]
        return ReconSample(
            position=r["position"].copy(),
            time=float(r["time"]),
            state=OccupancyState(int(r["state"])),
            current_point_index=int(r["current_index"]),
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


def _mulhilo(m: int, x: np.ndarray):
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = m_hi * x_lo + ((m_lo * x_lo) >> _SHIFT32)
    w = (t & _LOW32) + m_lo * x_hi
    return m_hi * x_hi + (t >> _SHIFT32) + (w >> _SHIFT32), np.uint64(m) * x


def _philox_uniform(seed: int, beams: np.ndarray, k: int) -> np.ndarray:
    """The first k doubles in [0, 1) of each beam's Philox4x64-10 stream.

    Row i equals ``Generator(Philox(key=[seed, beams[i]])).uniform(size=k)``
    bit for bit.  numpy increments the counter before each block of four
    words, so block j runs counter (j + 1, 0, 0, 0); the words come out in
    order, and each word u gives the double (u >> 11) * 2**-53.
    """
    n_blocks = -(-k // 4)
    # the first key word is the seed for every beam, so its schedule is
    # built in exact integers; the beam word is bumped per round below
    key0 = [np.uint64((seed + r * _W0) % 2**64) for r in range(_ROUNDS)]
    bump1 = [np.uint64(r * _W1 % 2**64) for r in range(_ROUNDS)]
    key1 = beams.astype(np.uint64)[:, None]
    zero = np.zeros((1, 1), dtype=np.uint64)
    counter = np.arange(1, n_blocks + 1, dtype=np.uint64)[None, :]
    c0, c1, c2, c3 = counter, zero, zero, zero
    for r in range(_ROUNDS):
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = (hi1 ^ c1 ^ key0[r], lo1,
                          hi0 ^ c3 ^ (key1 + bump1[r]), lo0)
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
    the beam's centerline.  States are FREE and OCCUPIED by construction.
    Points sitting on the sensor origin form no beam and contribute
    nothing, so a scan with such points yields fewer than N * (occupied +
    free) samples.  ``seed`` must lie in [0, 2**63).
    """
    seed = operator.index(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
    if occupied_per_beam < 0 or free_per_beam < 0:
        raise ValueError("per-beam sample counts must be >= 0")
    per_beam = occupied_per_beam + free_per_beam
    if len(current) == 0 or per_beam == 0:
        return ReconSet.empty()

    # the columns of the points; the sum runs in np.linalg.norm's order
    cols = [current.points[:, j] for j in range(3)]
    ranges = np.sqrt(cols[0] * cols[0] + cols[1] * cols[1] + cols[2] * cols[2])
    valid = np.nonzero(ranges >= MIN_BEAM_RANGE)[0]
    if len(valid) == 0:
        return ReconSet.empty()
    dirs = [c[valid] / ranges[valid] for c in cols]

    # time and state are the same for every beam: one record template per
    # beam, broadcast over the record bytes, then the beam indices
    template = np.zeros(per_beam, dtype=RECON_DTYPE)
    template["time"] = current.time
    template["state"][:occupied_per_beam] = int(OccupancyState.OCCUPIED)
    template["state"][occupied_per_beam:] = int(OccupancyState.FREE)
    rec = np.empty((len(valid), per_beam), dtype=RECON_DTYPE)
    rec.view(np.uint8)[:] = template.view(np.uint8)
    rec["current_index"] = valid[:, None]
    pos = rec["position"]
    for start in range(0, len(valid), _BEAM_BLOCK):
        rows = slice(start, start + _BEAM_BLOCK)
        # unit draws become ranges in place: r + u * band, then u * r
        sample_r = _philox_uniform(seed, valid[rows], per_beam)
        r = ranges[valid[rows], None]
        sample_r[:, :occupied_per_beam] *= sensor.occupied_band_m
        sample_r[:, :occupied_per_beam] += r
        sample_r[:, occupied_per_beam:] *= r
        for j in range(3):
            np.multiply(sample_r, dirs[j][rows, None], out=pos[rows, :, j])
    return ReconSet(rec.reshape(-1))
