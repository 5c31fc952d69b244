"""Box math: the culled ray and containment tests against their unculled
references, bit for bit, and golden digests of what they feed.

The references below are the box tests without any pre-test: every ray
goes through the slab test and every point through the box-frame test.
The cases sit where a pre-test could go wrong: rays tangent to a box's
bounding sphere at a corner, a few ulps either side; rays through edges
and corners; origins inside boxes; boxes behind the origin and thousands
of meters away; yawed boxes; per-ray origins; zero-length, tiny and NaN
directions; and points on the corners that reach a box's xy half-diagonal.
"""

import hashlib

import numpy as np
import pytest

from scan_factories import C10_SCENE_YAML
from tovp import formats
from tovp._boxes import points_in_box, ray_box_crossings, yaw_matrix
from tovp.cli import main
from tovp.labeling import TrackedBox, label_points
from tovp.sensor_model import RigidTransform, Scan
from tovp.simulator import (
    MIN_HIT_RANGE,
    SceneBox,
    SceneSpec,
    SpinningLidarSpec,
    _nearest_hits,
    simulate_scan_with_hits,
)

MARGINS = (-5.0, -0.5, 0.0, 0.3)


# ---------------------------------------------------------------------------
# unculled references


def reference_points_in_box(points, center, size, yaw, margin=0.0):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rel = pts - np.asarray(center, dtype=float)
    local = rel @ yaw_matrix(yaw)
    half = np.asarray(size, dtype=float) / 2.0 + margin
    return np.all(np.abs(local) <= half, axis=1)


def reference_ray_box_crossings(origins, directions, center, size, yaw):
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    rot = yaw_matrix(yaw)
    ol = (o - np.asarray(center, dtype=float)) @ rot
    dl = d @ rot
    half = np.asarray(size, dtype=float) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - ol) / dl
        t2 = (half - ol) / dl
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    parallel = dl == 0.0
    inside_slab = np.abs(ol) <= half
    near = np.where(parallel, np.where(inside_slab, -np.inf, np.inf), near)
    far = np.where(parallel, np.where(inside_slab, np.inf, -np.inf), far)
    t_enter = near.max(axis=1)
    t_exit = far.min(axis=1)
    hits_line = t_enter <= t_exit
    t = np.where(t_enter > 0.0, t_enter, t_exit)
    valid = hits_line & (t > 0.0) & np.isfinite(t)
    return np.where(valid, t, np.inf), valid


def reference_nearest_hits(origins, dirs_unit, scene, time):
    n = dirs_unit.shape[0]
    nearest = np.full(n, np.inf)
    hit_box = np.full(n, -1, dtype=np.int64)
    for b_idx, box in enumerate(scene.all_boxes()):
        t, valid = reference_ray_box_crossings(origins, dirs_unit, box.center_at(time), box.size, box.yaw)
        t = np.where(valid & (t > MIN_HIT_RANGE), t, np.inf)
        closer = t < nearest
        nearest[closer] = t[closer]
        hit_box[closer] = b_idx
    if scene.ground_plane:
        dz = dirs_unit[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -origins[:, 2] / dz
        t = np.where((dz != 0.0) & (t > MIN_HIT_RANGE), t, np.inf)
        closer = t < nearest
        nearest[closer] = t[closer]
        hit_box[closer] = -1
    return nearest, hit_box


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_hits_match(origins, dirs, scene, time=0.0):
    """_nearest_hits equals the reference bit for bit; returns the
    reference's (distance, hit) for coverage checks."""
    want = reference_nearest_hits(origins, dirs, scene, time)
    got = _nearest_hits(origins, dirs, scene, time)
    bad = np.nonzero(~((got[0] == want[0]) | (np.isnan(got[0]) & np.isnan(want[0])))
                     | (got[1] != want[1]))[0]
    assert len(bad) == 0, f"{len(bad)} of {len(dirs)} rays differ, first {bad[:5]}"
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    return want


# ---------------------------------------------------------------------------
# case builders


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def ulp_neighbours(rows):
    """Every row with each component stepped by -1, 0 or +1 ulp: 27 rows
    per input row, the input itself included."""
    rows = np.atleast_2d(rows)
    steps = np.stack(np.meshgrid(*[(-1, 0, 1)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    out = np.repeat(rows, len(steps), axis=0)
    s = np.tile(steps, (len(rows), 1))
    out = np.where(s > 0, np.nextafter(out, np.inf), out)
    return np.where(s < 0, np.nextafter(out, -np.inf), out)


def random_box_shape(rng):
    size = rng.uniform(0.3, 6.0, 3)
    return size, rng.uniform(-np.pi, np.pi)


def corner_offset(size, yaw, signs):
    """World offset from a box's center to its corner of the given signs."""
    return yaw_matrix(yaw) @ (np.asarray(signs, dtype=float) * size / 2.0)


def perpendicular(rng, r):
    """A random unit vector perpendicular to r."""
    w = np.cross(r, rng.normal(size=3))
    return w / np.linalg.norm(w)


def tangent_scene(rng, origin, n_boxes, dist_lo, dist_hi):
    """Boxes placed so that, from ``origin``, the ray to one corner of each
    is tangent to that box's bounding sphere at the corner.  Returns the
    scene and the unit directions of those rays."""
    boxes, dirs = [], []
    for _ in range(n_boxes):
        size, yaw = random_box_shape(rng)
        r = corner_offset(size, yaw, rng.choice((-1.0, 1.0), 3))
        w = perpendicular(rng, r) * rng.uniform(dist_lo, dist_hi)
        boxes.append(SceneBox(center=tuple(origin + w - r), size=tuple(size), yaw=yaw))
        dirs.append(unit(w))
    return SceneSpec(static_boxes=boxes), np.array(dirs)


# ---------------------------------------------------------------------------
# rays


class TestRayCulling:
    @pytest.mark.parametrize("dist", [(2.0, 50.0), (1e3, 1e4)])
    def test_tangent_at_a_corner_one_origin(self, dist):
        rng = np.random.default_rng(11)
        origin = np.array([3.0, -1.0, 1.7])
        scene, dirs = tangent_scene(rng, origin, 60, *dist)
        rays = ulp_neighbours(dirs)
        _, hit = assert_hits_match(origin[None, :], rays, scene)
        # the cases straddle the box: some tangent rays graze it, some miss
        assert 0 < np.sum(hit >= 0) < len(rays)

    @pytest.mark.parametrize("dist", [(2.0, 50.0), (1e3, 1e4)])
    def test_tangent_at_a_corner_per_ray_origins(self, dist):
        rng = np.random.default_rng(12)
        size, yaw = random_box_shape(rng)
        center = rng.uniform(-20.0, 20.0, 3)
        box = SceneBox(center=tuple(center), size=tuple(size), yaw=yaw)
        origins, dirs = [], []
        for _ in range(300):
            k = center + corner_offset(size, yaw, rng.choice((-1.0, 1.0), 3))
            u = perpendicular(rng, k - center)
            origins.append(k - rng.uniform(*dist) * u)
            dirs.append(u)
        origins = ulp_neighbours(np.array(origins))
        dirs = np.repeat(np.array(dirs), 27, axis=0)
        _, hit = assert_hits_match(origins, dirs, SceneSpec(static_boxes=[box]))
        assert 0 < np.sum(hit >= 0) < len(dirs)

    def test_rays_through_edges_and_corners(self):
        rng = np.random.default_rng(13)
        origin = np.array([0.0, 0.0, 1.7])
        boxes, targets = [], []
        for _ in range(40):
            size, yaw = random_box_shape(rng)
            center = origin + unit(rng.normal(size=3)) * rng.uniform(3.0, 80.0)
            boxes.append(SceneBox(center=tuple(center), size=tuple(size), yaw=yaw))
            # corners, and points on edges: two coordinates at +-half
            signs = rng.choice((-1.0, 1.0), (20, 3))
            signs[10:, rng.integers(0, 3)] = rng.uniform(-1.0, 1.0, 10)
            targets += [center + corner_offset(size, yaw, s) for s in signs]
        rays = ulp_neighbours(unit(np.array(targets) - origin))
        _, hit = assert_hits_match(origin[None, :], rays, SceneSpec(static_boxes=boxes))
        assert 0 < np.sum(hit >= 0) < len(rays)

    def test_origins_inside_boxes(self):
        rng = np.random.default_rng(14)
        scene = SceneSpec(static_boxes=[
            SceneBox(center=(1.0, 2.0, 0.5), size=(4.0, 2.0, 1.5), yaw=0.4),
            SceneBox(center=(1.5, 2.0, 0.8), size=(1.0, 3.0, 1.0), yaw=-1.2),
        ], ground_plane=True)
        box = scene.static_boxes[0]
        local = rng.uniform(-0.5, 0.5, (4000, 3)) * np.asarray(box.size)
        origins = np.asarray(box.center) + local @ yaw_matrix(box.yaw).T
        dirs = unit(rng.normal(size=(4000, 3)))
        dist, hit = assert_hits_match(origins, dirs, scene)
        assert np.all(np.isfinite(dist))
        # one origin for all rays, inside both boxes
        assert_hits_match(np.array([[1.2, 2.0, 0.6]]), dirs, scene)

    @pytest.mark.parametrize("length", [1e-12, 1e-14])
    def test_exit_through_a_corner_with_tiny_directions(self, length):
        # origins an ulp inside a corner, leaving along the diagonal: the
        # sphere lies all but wholly behind the origin, and with so short a
        # direction the exit an ulp away still lies beyond MIN_HIT_RANGE
        # (in units of the direction length).  Boxes centered on the world
        # origin keep the corner exact to the ulp.
        rng = np.random.default_rng(15)
        hits = 0
        for _ in range(300):
            size, yaw = random_box_shape(rng)
            r = corner_offset(size, yaw, rng.choice((-1.0, 1.0), 3))
            scene = SceneSpec(static_boxes=[SceneBox(center=(0.0, 0.0, 0.0), size=tuple(size), yaw=yaw)])
            origins = ulp_neighbours(r * (1.0 - 2.0 ** -52))
            dirs = np.repeat(unit(r)[None, :] * length, len(origins), axis=0)
            hits += int(np.sum(assert_hits_match(origins, dirs, scene)[1] >= 0))
        assert 0 < hits < 300 * 27

    def test_boxes_behind_the_origin(self):
        rng = np.random.default_rng(16)
        origin = np.array([0.0, 0.0, 1.7])
        boxes = []
        for _ in range(30):
            size, yaw = random_box_shape(rng)
            boxes.append(SceneBox(center=tuple(origin + rng.uniform(5.0, 40.0) * np.array([-1.0, 0.0, 0.0])
                                               + rng.uniform(-4.0, 4.0, 3)),
                                  size=tuple(size), yaw=yaw))
        scene = SceneSpec(static_boxes=boxes)
        # rays pointing away from the boxes, and back at them
        dirs = unit(rng.normal(size=(5000, 3)) + np.array([3.0, 0.0, 0.0]))
        dist, _ = assert_hits_match(origin[None, :], dirs, scene)
        assert np.all(np.isinf(dist))
        dist, _ = assert_hits_match(origin[None, :], -dirs, scene)
        assert np.any(np.isfinite(dist))

    def test_distant_yawed_boxes(self):
        rng = np.random.default_rng(17)
        origin = np.array([10.0, -20.0, 1.7])
        boxes, targets = [], []
        for _ in range(40):
            size, yaw = random_box_shape(rng)
            center = origin + unit(rng.normal(size=3)) * rng.uniform(1e3, 1e4)
            boxes.append(SceneBox(center=tuple(center), size=tuple(size), yaw=yaw))
            targets.append(center + (rng.uniform(-0.7, 0.7, (50, 3)) * size) @ yaw_matrix(yaw).T)
        dirs = unit(np.concatenate(targets) - origin)
        _, hit = assert_hits_match(origin[None, :], dirs, SceneSpec(static_boxes=boxes))
        assert 0 < np.sum(hit >= 0) < len(dirs)

    # inf * 0 in the rotation, as in the unculled tests
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_zero_length_and_nan_directions(self):
        scene = SceneSpec(static_boxes=[
            SceneBox(center=(5.0, 0.0, 0.0), size=(2.0, 2.0, 2.0), yaw=0.3),
            SceneBox(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0)),
        ], ground_plane=True)
        dirs = np.array([
            [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [np.nan, 0.0, 0.0], [np.nan] * 3,
            [np.inf, 0.0, 0.0], [1.0, 0.0, np.nan], [1e-300, 0.0, 0.0], [1e-9, 1e-10, 0.0],
            [1.0, 0.0, 0.0],
        ])
        for origin in ([0.0, 0.0, 0.0], [0.2, 0.1, -0.3], [-3.0, 0.0, 0.5], [np.nan, 0.0, 0.0]):
            o = np.array([origin])
            assert_hits_match(o, dirs, scene)
            assert_hits_match(np.repeat(o, len(dirs), axis=0), dirs, scene)

    def test_empty_ray_set(self):
        scene = SceneSpec(static_boxes=[SceneBox(center=(5.0, 0.0, 0.0), size=(2.0, 2.0, 2.0))])
        assert_hits_match(np.zeros((1, 3)), np.empty((0, 3)), scene)


class TestSlabReductions:
    def test_columnwise_min_max_equal_axis_reductions(self):
        rng = np.random.default_rng(21)
        n = 20000
        origins = rng.normal(size=(n, 3)) * 5.0
        dirs = rng.normal(size=(n, 3))
        # axis-parallel rays, zero and NaN components, and origins on faces
        dirs[np.arange(2000), rng.integers(0, 3, 2000)] = 0.0
        dirs[2000:2100] = 0.0
        dirs[2100:2200, 1] = np.nan
        origins[2200:2400, 0] = 1.0
        for yaw in (0.0, 0.7, -2.9):
            got = ray_box_crossings(origins, dirs, (0.5, 0.0, 0.0), (1.0, 2.0, 3.0), yaw)
            want = reference_ray_box_crossings(origins, dirs, (0.5, 0.0, 0.0), (1.0, 2.0, 3.0), yaw)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


class TestColumnKernels:
    """The slab and containment tests run on 1-D columns; the row forms
    above are their references, bit for bit, where each axis matters on
    its own: directions with zero components, origins and points on faces,
    non-finite directions and empty inputs."""

    def assert_rays_match(self, origins, dirs, center, size, yaw):
        got = ray_box_crossings(origins, dirs, center, size, yaw)
        want = reference_ray_box_crossings(origins, dirs, center, size, yaw)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        return want

    def test_zero_direction_components(self):
        # a yaw of 0 keeps zeros and face coordinates exact in the box frame;
        # the z axis stays exact at any yaw
        rng = np.random.default_rng(41)
        center, size = np.array([1.0, -2.0, 0.5]), np.array([4.0, 2.0, 1.0])
        half = size / 2.0
        hits = 0
        for zero in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            yaw = 0.0 if zero != [2] else 0.6
            origins = center + rng.uniform(-1.5, 1.5, (3000, 3)) * size
            # a third of the origins on a face of each zeroed axis, so the
            # ray runs inside that face
            for j in zero:
                on = rng.random(3000) < 0.33
                origins[on, j] = center[j] + rng.choice((-1.0, 1.0), on.sum()) * half[j]
            # rays aimed at the box, with the zeroed components of either sign
            dirs = center + rng.uniform(-0.4, 0.4, (3000, 3)) * size - origins
            dirs[:, zero] = rng.choice((0.0, -0.0), (3000, len(zero)))
            for o in (origins, origins[:1]):
                _, valid = self.assert_rays_match(o, dirs, center, size, yaw)
                hits += int(valid.sum())
        assert hits > 0

    def test_rays_inside_a_face_hit_the_box(self):
        # origins on each face, directions in its plane: the slab of that
        # axis is entered at t = 0/0 without the axis-parallel rule
        center, size = np.zeros(3), np.array([2.0, 4.0, 6.0])
        half = size / 2.0
        for j in range(3):
            for side in (-1.0, 1.0):
                o = np.array([-5.0, -5.0, -5.0])
                o[j] = side * half[j]
                d = -o
                d[j] = 0.0
                _, valid = self.assert_rays_match(o[None, :], d[None, :], center, size, 0.0)
                assert valid.tolist() == [True]

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_origins_on_faces_and_non_finite_directions(self):
        center, size = np.array([0.5, 0.0, -1.0]), np.array([1.0, 2.0, 3.0])
        half = size / 2.0
        faces = []
        for j in range(3):
            for side in (-1.0, 1.0):
                o = center.copy()
                o[j] += side * half[j]
                faces.append(o)
        faces = ulp_neighbours(np.array(faces))
        dirs = np.array([
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0],
            [np.nan, 0.0, 0.0], [0.0, np.nan, 1.0], [np.inf, 0.0, 0.0], [-np.inf, 1.0, 0.0],
            [np.inf, np.inf, np.inf], [0.3, -0.2, 0.9],
        ])
        origins = np.repeat(faces, len(dirs), axis=0)
        rays = np.tile(dirs, (len(faces), 1))
        for yaw in (0.0, 1.1):
            self.assert_rays_match(origins, rays, center, size, yaw)

    @pytest.mark.parametrize("margin", [-0.5, 0.0, 0.3])
    def test_points_on_faces(self, margin):
        # distinct extents, so a test against the wrong axis shows
        center, size = np.array([3.0, -7.0, 1.25]), np.array([4.0, 2.5, 1.75])
        half = size / 2.0 + margin
        rng = np.random.default_rng(42)
        pts = []
        for j in range(3):
            for side in (-1.0, 1.0):
                p = center + rng.uniform(-1.0, 1.0, (40, 3)) * half
                p[:, j] = center[j] + side * half[j]
                pts.append(p)
        pts = ulp_neighbours(np.concatenate(pts))
        got = points_in_box(pts, center, size, 0.0, margin)
        want = reference_points_in_box(pts, center, size, 0.0, margin)
        assert same_bits(got, want)
        assert 0 < want.sum() < len(pts)
        got = points_in_box(pts, center, size, 0.9, margin)
        assert same_bits(got, reference_points_in_box(pts, center, size, 0.9, margin))

    def test_empty_inputs(self):
        empty = np.empty((0, 3))
        for origins in (empty, np.zeros((1, 3))):
            t, valid = self.assert_rays_match(origins, empty, (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.3)
            assert t.shape == valid.shape == (0,)
        for margin in MARGINS:
            assert same_bits(points_in_box(empty, (0.0, 0.0, 0.0), (1.0, 2.0, 3.0), 0.4, margin),
                             reference_points_in_box(empty, (0.0, 0.0, 0.0), (1.0, 2.0, 3.0), 0.4, margin))


# ---------------------------------------------------------------------------
# points


class TestPointCulling:
    @pytest.mark.parametrize("margin", MARGINS)
    def test_corners_on_the_half_diagonal(self, margin):
        # yaw turns a corner onto a world axis, so the corner's |dx| or |dy|
        # is the xy half-diagonal: the pre-test's bound, an ulp each way.
        # Boxes centered on the world origin keep dx and dy exact to the ulp.
        rng = np.random.default_rng(31)
        total = 0
        for _ in range(60):
            size = rng.uniform(0.5, 12.0, 3)
            half = size / 2.0 + margin
            yaw = -np.arctan2(half[1], half[0]) + rng.integers(0, 4) * np.pi / 2.0
            center = np.zeros(3)
            corners = np.array([yaw_matrix(yaw) @ (np.array(s) * half)
                                for s in [(1, 1, 1), (1, 1, -1), (-1, -1, 1), (1, -1, 0)]])
            pts = ulp_neighbours(center + corners)
            got = points_in_box(pts, center, size, yaw, margin)
            want = reference_points_in_box(pts, center, size, yaw, margin)
            assert same_bits(got, want)
            total += int(want.sum())
        assert total > 0

    @pytest.mark.parametrize("margin", MARGINS)
    def test_random_points_yawed_and_distant(self, margin):
        rng = np.random.default_rng(32)
        for scale in (1.0, 1e3, 1e4):
            center = rng.uniform(-scale, scale, 3)
            size = rng.uniform(0.5, 8.0, 3)
            yaw = rng.uniform(-np.pi, np.pi)
            pts = center + rng.normal(size=(20000, 3)) * 4.0
            got = points_in_box(pts, center, size, yaw, margin)
            assert same_bits(got, reference_points_in_box(pts, center, size, yaw, margin))

    # inf * 0 in the rotation, as in the unculled tests
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_non_finite_and_empty_points(self):
        pts = np.array([[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf],
                        [np.inf, np.inf, 0.0], [0.1, 0.1, 0.1]])
        for margin in MARGINS:
            got = points_in_box(pts, (0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.5, margin)
            assert same_bits(got, reference_points_in_box(pts, (0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.5, margin))
        assert points_in_box(np.empty((0, 3)), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0).shape == (0,)
        assert points_in_box([0.1, 0.0, 0.0], (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0).tolist() == [True]


# ---------------------------------------------------------------------------
# golden digests, computed with the unculled box tests


def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def tracks_of(boxes, times):
    return [TrackedBox(instance_id=f"b{i}", category=b.category,
                       centers=np.stack([b.center_at(t) for t in times]),
                       sizes=np.tile(np.asarray(b.size, dtype=float), (len(times), 1)),
                       yaws=np.full(len(times), b.yaw), timestamps=np.asarray(times, dtype=float))
            for i, b in enumerate(boxes)]


def street_scene():
    """A straight street between two walls with parked and moving cars,
    seen by a 64x2048 lidar."""
    car = (4.5, 1.9, 1.6)
    boxes = [SceneBox(center=(60.0, s * 9.5, 4.0), size=(320.0, 0.5, 8.0)) for s in (1.0, -1.0)]
    boxes += [SceneBox(center=(x, s * 7.7, 0.9), size=car, yaw=yaw)
              for x, s, yaw in [(-9.2, 1.0, 0.03), (6.8, -1.0, -0.05), (15.1, 1.0, 0.07),
                                (31.0, -1.0, 0.0), (38.6, 1.0, -0.02), (54.9, -1.0, 0.04)]]
    boxes += [SceneBox(center=(x, s * 2.5, 0.9), size=car, velocity=(s * v, 0.0, 0.0))
              for x, s, v in [(-12.0, 1.0, 9.0), (4.0, 1.0, 9.0), (21.5, 1.0, 9.0),
                              (-3.0, -1.0, 6.5), (14.0, -1.0, 6.5), (33.0, -1.0, 6.5)]]
    scene = SceneSpec(static_boxes=[b for b in boxes if not b.is_moving],
                      moving_boxes=[b for b in boxes if b.is_moving], ground_plane=True)
    lidar = SpinningLidarSpec(elevation_angles_rad=tuple(np.linspace(-0.42, 0.18, 64)),
                              azimuth_step_rad=2.0 * np.pi / 2048)
    return scene, lidar


def scene_digests(scene, lidar, poses, times):
    """sha256 of every scan's points and hit indices, and of its labels."""
    tracks = tracks_of(scene.all_boxes(), times)
    sims, labels = [], []
    for i, (pose, t) in enumerate(zip(poses, times)):
        scan, hit = simulate_scan_with_hits(scene, lidar, pose, t, noise_seed=i)
        sims += [scan.points, hit]
        labels.append(label_points(Scan(points=pose.apply(scan.points), time=t), tracks))
    return sha256(*sims), sha256(*labels)


class TestGoldenDigests:
    def test_criterion10_scene(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(C10_SCENE_YAML)
        sim = formats.read_scene(str(path))
        assert scene_digests(sim.scene, sim.lidar, sim.poses, sim.times) == (
            "939040897055e8a3cb2e57a23ca3f3e46994af7e1a1140cfc02f421f780dc3fc",
            "5a1e2c9abe13c49be7be7c4ef759903ac09ee5222c2c7d1dcff69f28c1a8584c",
        )

    def test_street_scene_64x2048(self):
        scene, lidar = street_scene()
        times = [0.0, 0.1]
        poses = [RigidTransform(np.eye(3), np.array([10.0 * t, 0.0, 1.7])) for t in times]
        assert scene_digests(scene, lidar, poses, times) == (
            "2cac7159258ab3d0a7bb72fce8123c132a6ce32d38b330d4f0b8e6f4d7f015cc",
            "2d939b62fb17e97eba330351ccb904504b7514f6137f8d40428c4d60be5b44f4",
        )

    def test_simulate_and_label_cli_bytes(self, tmp_path):
        scene = tmp_path / "scene.yaml"
        scene.write_text(C10_SCENE_YAML)
        sim, pred = tmp_path / "sim", tmp_path / "pred"
        assert main(["simulate", "--scene", str(scene), "--out", str(sim)]) == 0
        assert main(["label", "--scans", str(sim / "scans"), "--boxes", str(sim / "boxes.jsonl"),
                     "--poses", str(sim / "poses.txt"), "--out", str(pred)]) == 0
        digests = {}
        for root in (sim, pred):
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    digests[str(p.relative_to(tmp_path))] = hashlib.sha256(p.read_bytes()).hexdigest()
        assert sha256(np.frombuffer(repr(sorted(digests.items())).encode(), np.uint8)) == (
            "9580308d67e77532e17c003fee7d9463e51fc084a2fde831b55a1bad5ab018c3")
