"""Reconstruction sampling: counts, supports, per-beam stream isolation."""

import hashlib
import warnings

import numpy as np
import pytest
from scipy import stats

from tovp.formats import write_recon_file
from tovp.recon import (
    _BEAM_BLOCK,
    RECON_DTYPE,
    SEED_LIMIT,
    _philox_uniform,
    sample_recon_points,
)
from tovp.sensor_model import (
    MIN_BEAM_RANGE,
    OccupancyState,
    Scan,
    SensorConfig,
    occupancy_state,
)

SENSOR = SensorConfig()
BAND = SENSOR.occupied_band_m


def ball_scan(n, seed=0, r_lo=1.0, r_hi=50.0, time=0.0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.uniform(r_lo, r_hi, size=n)
    return Scan(points=v * r[:, None], time=time)


def test_default_counts_per_beam():
    scan = ball_scan(100)
    out = sample_recon_points(scan, 5, 25, SENSOR, seed=7)
    assert len(out) == 3000
    counts = np.bincount(out.records["state"], minlength=3)
    assert counts[OccupancyState.OCCUPIED] == 500
    assert counts[OccupancyState.FREE] == 2500
    assert counts[OccupancyState.UNKNOWN] == 0


def test_occupied_samples_live_in_band():
    scan = Scan(points=np.array([[2.0, 0.0, 0.0]]))
    out = sample_recon_points(scan, 200, 0, SENSOR, seed=3)
    r = np.linalg.norm(out.records["position"], axis=1)
    assert np.all(r >= 2.0)
    assert np.all(r < 2.0 + BAND)
    assert np.all(out.records["state"] == int(OccupancyState.OCCUPIED))


def test_free_samples_before_hit():
    scan = Scan(points=np.array([[0.0, 8.0, 0.0]]))
    out = sample_recon_points(scan, 0, 300, SENSOR, seed=3)
    r = np.linalg.norm(out.records["position"], axis=1)
    assert np.all(r < 8.0)
    assert np.all(out.records["state"] == int(OccupancyState.FREE))


def test_states_reverify_against_beam_model():
    scan = ball_scan(64, seed=11)
    out = sample_recon_points(scan, 5, 25, SENSOR, seed=2)
    ranges = np.linalg.norm(scan.points, axis=1)
    for rec in out.records:
        i = rec["current_index"]
        r_at = np.linalg.norm(rec["position"])
        assert occupancy_state(SENSOR, r_at, ranges[i]) == rec["state"]


def test_samples_sit_on_beam_centerline():
    # the float64 positions lie on the centerline; the set holds them
    # rounded once to float32
    scan = ball_scan(32, seed=5)
    out = sample_recon_points(scan, 2, 2, SENSOR, seed=9)
    valid, exact = reference_positions(scan, 2, 2, seed=9)
    dirs = scan.points / np.linalg.norm(scan.points, axis=1)[:, None]
    for i, p in zip(np.repeat(valid, 4), exact):
        d = dirs[i]
        off_axis = np.linalg.norm(p - (p @ d) * d)
        assert off_axis < 1e-12
    assert out.records["position"].tobytes() == exact.astype("<f4").tobytes()


def test_deterministic_and_seed_sensitive():
    scan = ball_scan(50, seed=1)
    a = sample_recon_points(scan, 5, 25, SENSOR, seed=42).records
    b = sample_recon_points(scan, 5, 25, SENSOR, seed=42).records
    c = sample_recon_points(scan, 5, 25, SENSOR, seed=43).records
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_per_beam_streams_do_not_interact():
    scan = ball_scan(10, seed=4)
    pts2 = scan.points.copy()
    pts2[[0, 1, 2, 4, 5, 6, 7, 8, 9]] *= 1.5
    other = Scan(points=pts2)
    a = sample_recon_points(scan, 5, 25, SENSOR, seed=0).records
    b = sample_recon_points(other, 5, 25, SENSOR, seed=0).records
    mine = a[a["current_index"] == 3]
    theirs = b[b["current_index"] == 3]
    assert mine.tobytes() == theirs.tobytes()


def test_time_and_order():
    scan = ball_scan(20, seed=8, time=3.25)
    out = sample_recon_points(scan, 2, 3, SENSOR, seed=1)
    assert np.all(out.records["time"] == 3.25)
    idx = out.records["current_index"]
    assert np.all(np.diff(idx) >= 0)
    # occupied block precedes free block within each beam
    per = out.records["state"].reshape(20, 5)
    assert np.all(per[:, :2] == int(OccupancyState.OCCUPIED))
    assert np.all(per[:, 2:] == int(OccupancyState.FREE))


def test_origin_point_contributes_nothing():
    pts = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    out = sample_recon_points(Scan(points=pts), 1, 1, SENSOR, seed=0)
    assert len(out) == 4
    assert set(np.unique(out.records["current_index"])) == {0, 2}


def test_beams_start_at_the_sensor_origin():
    # the same beams, seen from a sensor away from the frame origin
    scan = ball_scan(300, seed=12)
    origin = np.array([4.0, -2.5, 1.5])
    moved = Scan(points=scan.points + origin, sensor_origin=origin)
    got = sample_recon_points(moved, 5, 25, SENSOR, seed=4).records
    want = sample_recon_points(scan, 5, 25, SENSOR, seed=4).records
    assert np.array_equal(got["current_index"], want["current_index"])
    assert np.array_equal(got["state"], want["state"])
    _, exact_moved = reference_positions(moved, 5, 25, seed=4)
    _, exact = reference_positions(scan, 5, 25, seed=4)
    np.testing.assert_allclose(exact_moved - origin, exact, rtol=0, atol=1e-11)
    assert got["position"].tobytes() == exact_moved.astype("<f4").tobytes()
    assert want["position"].tobytes() == exact.astype("<f4").tobytes()


def test_empty_scan_and_zero_budget():
    scan = ball_scan(5)
    assert len(sample_recon_points(scan, 0, 0, SENSOR, seed=0)) == 0
    empty = Scan(points=np.empty((0, 3)))
    assert len(sample_recon_points(empty, 5, 25, SENSOR, seed=0)) == 0
    with pytest.raises(ValueError):
        sample_recon_points(scan, -1, 5, SENSOR, seed=0)


def test_sample_access_api():
    scan = ball_scan(3, seed=2)
    out = sample_recon_points(scan, 1, 1, SENSOR, seed=5)
    first = out.records[0]
    assert first["current_index"] == 0
    assert first["state"] == OccupancyState.OCCUPIED
    assert out.records.dtype == RECON_DTYPE
    assert len(out) == 6


def scalar_uniform(seed, beams, k):
    """Reference: one numpy Philox generator per beam, drawn in a loop."""
    return np.stack([
        np.random.Generator(np.random.Philox(key=[seed, int(beam)])).uniform(size=k)
        for beam in beams])


@pytest.mark.parametrize("k", [1, 3, 4, 5, 30, 33])
@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 1])
def test_vector_philox_matches_numpy_stream(seed, k):
    beams = np.r_[0, 1, 2**31, 2**32 - 1, np.arange(2, 300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _philox_uniform(seed, beams, k)
        want = scalar_uniform(seed, beams, k)
    assert got.shape == (len(beams), k)
    assert got.tobytes() == want.tobytes()


def reference_positions(scan, occupied, free, seed):
    """(beam ids, float64 sample positions in record order) of the per-beam
    generator loop that sample_recon_points replaces."""
    delta = scan.points - scan.sensor_origin
    ranges = np.linalg.norm(delta, axis=1)
    valid = np.nonzero(ranges >= MIN_BEAM_RANGE)[0]
    dirs = delta[valid] / ranges[valid, None]
    draws = scalar_uniform(seed, valid, occupied + free)
    r = ranges[valid]
    sample_r = np.empty_like(draws)
    sample_r[:, :occupied] = r[:, None] + draws[:, :occupied] * BAND
    sample_r[:, occupied:] = draws[:, occupied:] * r[:, None]
    pos = sample_r[:, :, None] * dirs[:, None, :]
    moved = scan.sensor_origin != 0.0  # adding 0.0 would turn -0.0 into 0.0
    pos[:, :, moved] += scan.sensor_origin[moved]
    return valid, pos.reshape(-1, 3)


def reference_recon_records(scan, occupied, free, seed):
    """The records of :func:`reference_positions`, positions rounded once."""
    valid, pos = reference_positions(scan, occupied, free, seed)
    rec = np.empty(len(valid) * (occupied + free), dtype=RECON_DTYPE)
    rec["current_index"] = np.repeat(valid, occupied + free)
    rec["position"] = pos
    rec["time"] = scan.time
    states = np.empty((len(valid), occupied + free), dtype=np.uint8)
    states[:, :occupied] = int(OccupancyState.OCCUPIED)
    states[:, occupied:] = int(OccupancyState.FREE)
    rec["state"] = states.reshape(-1)
    return rec


@pytest.mark.parametrize("occupied,free", [(1, 0), (0, 4), (2, 1), (1, 3), (5, 25), (3, 30)])
def test_beam_blocks_match_per_beam_generators(occupied, free):
    # more beams than one block, ending partway through the next, with
    # origin points that form no beam on both sides of the block boundary
    scan = ball_scan(2 * _BEAM_BLOCK + 37, seed=6, time=0.75)
    scan.points[[0, 5, _BEAM_BLOCK - 1, _BEAM_BLOCK, 2 * _BEAM_BLOCK + 36]] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in [0, 2**63 - 1]:
            got = sample_recon_points(scan, occupied, free, SENSOR, seed=seed)
            want = reference_recon_records(scan, occupied, free, seed)
            assert len(got) == (len(scan) - 5) * (occupied + free)
            assert got.records.tobytes() == want.tobytes()


def test_negative_zero_coordinates_keep_their_sign():
    scan = ball_scan(64, seed=13)
    scan.points[::3, 2] = -0.0
    got = sample_recon_points(scan, 2, 3, SENSOR, seed=5).records
    assert np.signbit(got["position"][:, 2]).any()
    assert got.tobytes() == reference_recon_records(scan, 2, 3, 5).tobytes()


def test_golden_bytes(tmp_path):
    # digest of the .trcn file of the stream as numpy's per-beam Philox
    # generators drew it, taken when records were held in float64 and
    # cast at write time, so sampling must round to the same bits
    out = sample_recon_points(ball_scan(257, seed=3), 5, 25, SENSOR, seed=11)
    path = tmp_path / "x.trcn"
    write_recon_file(path, out)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "5de957ad42a078e06e9b9082d3aaca133ded98ce80f66a6480d89b1b6d67dc2e"


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT, SEED_LIMIT + 5, 2**64 - 1])
def test_seed_outside_the_stream_domain_rejected(seed):
    scan = ball_scan(4)
    with pytest.raises(ValueError, match="seed"):
        sample_recon_points(scan, 1, 1, SENSOR, seed=seed)
    assert len(sample_recon_points(scan, 1, 1, SENSOR, seed=SEED_LIMIT - 1)) == 8


@pytest.mark.slow
def test_free_ranges_uniform_chi_square():
    scan = Scan(points=np.tile([[10.0, 0.0, 0.0]], (40000, 1)))
    out = sample_recon_points(scan, 0, 25, SENSOR, seed=123)
    r = np.linalg.norm(out.records["position"], axis=1)
    assert len(r) == 1_000_000
    observed, _ = np.histogram(r, bins=100, range=(0.0, 10.0))
    assert observed.sum() == len(r)
    _, p = stats.chisquare(observed)
    assert p > 0.001


@pytest.mark.slow
def test_occupied_ranges_uniform_chi_square():
    scan = Scan(points=np.tile([[10.0, 0.0, 0.0]], (40000, 1)))
    out = sample_recon_points(scan, 5, 0, SENSOR, seed=321)
    r = np.linalg.norm(out.records["position"], axis=1)
    observed, _ = np.histogram(r, bins=50, range=(10.0, 10.0 + BAND))
    assert observed.sum() == len(r)
    _, p = stats.chisquare(observed)
    assert p > 0.001
