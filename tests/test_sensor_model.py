"""Sensor model: beam reconstruction, divergence radius, occupancy rule."""

import math

import numpy as np
import pytest

from tovp.errors import NonPositiveReportedRange, ZeroRange
from tovp.sensor_model import (
    MIN_BEAM_RANGE,
    Beam,
    OccupancyState,
    RigidTransform,
    Scan,
    SensorConfig,
    beam_from_point,
    beam_radius_at,
    confidence,
    occupancy_state,
    range_along_beam,
)

CFG = SensorConfig()


def make_scan(points, origin=(0.0, 0.0, 0.0)):
    return Scan(points=np.asarray(points, dtype=float), sensor_origin=np.asarray(origin))


class TestBeamFromPoint:
    def test_3_4_5_triangle(self):
        scan = make_scan([[3.0, 4.0, 0.0]])
        b = beam_from_point(scan, 0)
        np.testing.assert_allclose(b.direction, [0.6, 0.8, 0.0], atol=1e-12)
        assert b.range == pytest.approx(5.0)

    def test_offset_origin(self):
        scan = make_scan([[1.0, 0.0, 2.0]], origin=(1.0, 0.0, 0.0))
        b = beam_from_point(scan, 0)
        np.testing.assert_allclose(b.direction, [0.0, 0.0, 1.0], atol=1e-12)
        assert b.range == pytest.approx(2.0)

    def test_zero_range(self):
        scan = make_scan([[0.0, 0.0, 0.0]])
        with pytest.raises(ZeroRange):
            beam_from_point(scan, 0)

    @pytest.mark.parametrize("point", [[np.inf, 1.0, 0.0], [np.nan, 0.0, 0.0], [1e308, 1e308, 0.0]],
                             ids=["inf", "nan", "range-overflows"])
    def test_non_finite_range_forms_no_beam(self, point):
        # the rule of Scan.beams(), which leaves such points out
        scan = make_scan([point])
        assert len(scan.beams()[0]) == 0
        with pytest.raises(ZeroRange, match="forms no beam"):
            beam_from_point(scan, 0)

    def test_roundtrip_identity(self):
        # hit point reconstruction, 1e4 random beams
        rng = np.random.default_rng(7)
        pts = rng.normal(scale=30.0, size=(10_000, 3))
        origin = np.array([0.5, -0.2, 1.1])
        keep = np.linalg.norm(pts - origin, axis=1) > 1e-3
        scan = make_scan(pts[keep], origin=origin)
        for i in range(len(scan)):
            b = beam_from_point(scan, i)
            rebuilt = b.origin + b.range * b.direction
            err = np.linalg.norm(rebuilt - scan.points[i]) / b.range
            assert err < 1e-9


class TestScanBeams:
    """Scan.beams builds its table one coordinate column at a time, bit for
    bit the row form: the norm over rows, the mask (finite and at least
    MIN_BEAM_RANGE), then the division."""

    @staticmethod
    def row_form(scan):
        delta = scan.points - scan.sensor_origin
        ranges = np.linalg.norm(delta, axis=1)
        valid = (ranges >= MIN_BEAM_RANGE) & np.isfinite(ranges)
        return np.nonzero(valid)[0], delta[valid] / ranges[valid, None], ranges[valid]

    @pytest.mark.parametrize("origin", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (0.3, -1e-7, 12.5), (-40.0, 25.0, 1.7)])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 60.0, 1e5])
    def test_equals_the_row_form(self, origin, scale):
        rng = np.random.default_rng(int(scale) + 3)
        origin = np.array(origin)
        pts = origin + rng.normal(scale=scale, size=(5000, 3))
        pts[::97] = origin  # on the origin
        # at the MIN_BEAM_RANGE cut, and one ulp inside it
        pts[1::89] = origin + [MIN_BEAM_RANGE, 0.0, 0.0]
        pts[2::83] = origin + [0.0, np.nextafter(MIN_BEAM_RANGE, 0.0), 0.0]
        pts[3::79, 2] = -0.0
        # a non-finite coordinate forms no beam
        pts[4::73, 0], pts[5::71, 1], pts[6::67, 2] = np.inf, -np.inf, np.nan
        scan = make_scan(pts, origin=origin)
        got, want = scan.beams(), self.row_form(scan)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert got[1].flags.c_contiguous

    def test_no_beams(self):
        ids, dirs, ranges = make_scan(np.zeros((3, 3))).beams()
        assert (ids.shape, dirs.shape, ranges.shape) == ((0,), (0, 3), (0,))
        assert len(make_scan(np.empty((0, 3))).beams()[0]) == 0


class TestBeamRadius:
    def test_at_100m(self):
        assert beam_radius_at(CFG, 100.0) == pytest.approx(0.15000011250010126, rel=1e-12)

    def test_at_zero(self):
        assert beam_radius_at(CFG, 0.0) == 0.0

    def test_at_10m(self):
        assert beam_radius_at(CFG, 10.0) == pytest.approx(0.015000011, abs=1e-9)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            beam_radius_at(CFG, -1.0)


class TestBeam:
    @pytest.mark.parametrize("direction, range_m", [([np.nan, 0.0, 0.0], 1.0),
                                                    ([1.0, 0.0, 0.0], np.nan),
                                                    ([1.0, 0.0, 0.0], np.inf)],
                             ids=["nan-norm", "nan-range", "inf-range"])
    def test_non_finite_rejected(self, direction, range_m):
        with pytest.raises(ValueError):
            Beam(np.zeros(3), np.array(direction), range_m)


class TestRangeAlongBeam:
    def test_forward(self):
        b = Beam(np.zeros(3), np.array([1.0, 0, 0]), 10.0)
        assert range_along_beam(b, [7.0, 0.01, 0.0]) == pytest.approx(7.0)

    def test_behind(self):
        b = Beam(np.zeros(3), np.array([1.0, 0, 0]), 10.0)
        assert range_along_beam(b, [-2.0, 0.0, 0.0]) == pytest.approx(-2.0)

    def test_offset_origin(self):
        b = Beam(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0, 0]), 10.0)
        assert range_along_beam(b, [3.0, 1.0, 0.0]) == pytest.approx(3.0)


class TestConfidence:
    def test_before_hit(self):
        assert confidence(CFG, 5.0, 10.0) == 1.0

    def test_at_band_edge(self):
        # exp(-0.10536) = 0.9 to 5 decimals
        assert confidence(CFG, 10.10536, 10.0) == pytest.approx(0.9000004640921633, rel=1e-12)

    def test_two_meters_past(self):
        assert confidence(CFG, 12.0, 10.0) == pytest.approx(0.1353352832366127, rel=1e-12)

    def test_reported_must_be_positive(self):
        with pytest.raises(NonPositiveReportedRange):
            confidence(CFG, 1.0, 0.0)

    def test_continuous_and_decreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            reported = rng.uniform(0.5, 80.0)
            assert confidence(CFG, reported, reported) == 1.0
            assert confidence(CFG, reported + 1e-12, reported) == pytest.approx(1.0, abs=1e-11)
            r1 = reported + rng.uniform(0.0, 3.0)
            r2 = r1 + rng.uniform(1e-6, 3.0)
            assert confidence(CFG, r2, reported) < confidence(CFG, r1, reported) or r1 == reported


class TestOccupancyState:
    def test_free(self):
        assert occupancy_state(CFG, 9.99, 10.0) is OccupancyState.FREE

    def test_occupied_inside_band(self):
        assert occupancy_state(CFG, 10.05, 10.0) is OccupancyState.OCCUPIED

    def test_unknown_past_band(self):
        assert occupancy_state(CFG, 10.2, 10.0) is OccupancyState.UNKNOWN

    def test_occupied_at_exact_hit(self):
        assert occupancy_state(CFG, 10.0, 10.0) is OccupancyState.OCCUPIED

    def test_band_edge_closed(self):
        band = CFG.occupied_band_m
        assert occupancy_state(CFG, 10.0 + band, 10.0) is OccupancyState.OCCUPIED
        assert occupancy_state(CFG, 10.0 + band + 1e-9, 10.0) is OccupancyState.UNKNOWN

    def test_reported_must_be_positive(self):
        with pytest.raises(NonPositiveReportedRange):
            occupancy_state(CFG, 1.0, -3.0)

    def test_three_interval_partition(self):
        # FREE | OCCUPIED | UNKNOWN are contiguous with boundaries at the
        # reported range and reported + band, over 1e4 random triples.
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            lam = rng.uniform(0.05, 0.99)
            rate = rng.uniform(0.2, 4.0)
            cfg = SensorConfig(
                occupied_confidence_threshold=lam, decay_rate_per_meter=rate
            )
            reported = rng.uniform(0.1, 90.0)
            r = rng.uniform(0.0, reported * 2.5)
            state = occupancy_state(cfg, r, reported)
            band = -math.log(lam) / rate
            if r < reported:
                assert state is OccupancyState.FREE
            elif r <= reported + band:
                assert state is OccupancyState.OCCUPIED
            else:
                assert state is OccupancyState.UNKNOWN

    def test_occupied_iff_confident(self):
        # OCCUPIED exactly where confidence >= threshold, including the
        # equality-at-reported case.
        rng = np.random.default_rng(3)
        for _ in range(2000):
            reported = rng.uniform(0.5, 50.0)
            r = reported + rng.uniform(-0.05, 0.3)
            state = occupancy_state(CFG, r, reported)
            w = confidence(CFG, r, reported)
            if state is OccupancyState.OCCUPIED:
                assert w >= CFG.occupied_confidence_threshold
            elif state is OccupancyState.UNKNOWN:
                assert w < CFG.occupied_confidence_threshold
            else:
                assert r < reported


class TestStateEncoding:
    def test_values_match_file_encoding(self):
        assert int(OccupancyState.FREE) == 0
        assert int(OccupancyState.OCCUPIED) == 1
        assert int(OccupancyState.UNKNOWN) == 2


class TestSensorConfig:
    def test_defaults(self):
        assert CFG.divergence_angle_rad == 0.003
        assert CFG.occupied_confidence_threshold == 0.9
        assert CFG.decay_rate_per_meter == 1.0

    def test_band_length(self):
        assert CFG.occupied_band_m == pytest.approx(0.10536051565782628, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"divergence_angle_rad": 0.0},
            {"divergence_angle_rad": 0.2},
            {"occupied_confidence_threshold": 1.0},
            {"occupied_confidence_threshold": 0.0},
            {"decay_rate_per_meter": 0.0},
            {"decay_rate_per_meter": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SensorConfig(**kwargs)


class TestRigidTransform:
    def test_compose_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            t = RigidTransform(q, rng.normal(size=3))
            pts = rng.normal(size=(20, 3))
            back = t.inverse().apply(t.apply(pts))
            np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_scan_reframe_moves_origin(self):
        pose_a = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        pose_b = RigidTransform(np.eye(3), np.array([4.0, 0.0, 0.0]))
        a = Scan(points=np.array([[1.0, 1.0, 0.0]]), time=0.0, pose=pose_a)
        b = Scan(points=np.array([[0.0, 0.0, 0.0]]), time=0.5, pose=pose_b)
        a_in_b = a.in_frame_of(b)
        np.testing.assert_allclose(a_in_b.sensor_origin, [-3.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(a_in_b.points[0], [-2.0, 1.0, 0.0], atol=1e-12)
        assert a_in_b.time == 0.0
