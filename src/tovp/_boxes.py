"""Shared yaw-oriented box math: containment tests and ray casting.

Boxes are axis-aligned in their own frame, rotated about world z by a yaw
angle and centered at a point.  Sizes are full extents (length, width,
height).  Used by the simulator, motion labeling, and evaluation.

The exact box-frame test of :func:`points_in_box` runs only on the points
that pass a cheap conservative pre-test: world |dx| and |dy| from the
center within the box's xy half-diagonal r, grown by ``CULL_PAD * r``.
The pad is far more than the rounding of the pre-test and of the exact
test, so every point the exact test accepts survives.
``simulator._nearest_hits`` casts each box only against the rays whose
azimuth lies in the box's :func:`footprint_azimuths` span, padded by
``SECTOR_PAD`` radians, plus the rays with no usable azimuth.  The exact
tests work row by row (the rotation is an (n, 3) @ (3, 3) product, which
gives each row the same bits whichever rows share the call), so on the
surviving rows they give the same bits as on all rows.

Apart from the rotation, both tests run on the three coordinate columns as
1-D arrays: numpy runs its inner loop once per row when it broadcasts a
(3,) vector over (n, 3) rows or reduces over an axis of length 3, and once
per column here, for the same values.
"""

import math

import numpy as np

# Relative pad of the points_in_box pre-test.  Both it and the exact test
# round at a few ulps (~1e-15) of the lengths involved; 1e-10 is 1e5 times
# that, and grows a 2.5 m half-diagonal by a quarter of a nanometer.
CULL_PAD = 1e-10

# Pad of the azimuth sectors: radians added to each end of a footprint's
# azimuth span, and the distance, relative to |v| + r, within which an
# origin counts as on the footprint.  From an origin that far out, the
# rounding of the corners and of the slab test (a few ulps of |v| + r)
# turns a ray by under 1e-9 rad, a thousandth of the pad.
SECTOR_PAD = 1e-6


def yaw_matrix(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def points_in_box(points, center, size, yaw, margin: float = 0.0) -> np.ndarray:
    """Boolean mask of points inside the oriented box, grown by ``margin``
    on every face.

    A point on a face, such as a simulated hit, may test either way: its
    box-frame coordinates carry the rounding of the point, the center and
    the rotation.  Of the float64 hits on the boxes of a 64x2048 street
    (four scans), 3.2% on moving and 8.4% on parked cars and walls test
    outside at ``margin`` 0, and none at 1e-9 m.  Rounded to float32, as
    in a scan file, far more do, up to 81% on the moving cars, since a
    face at a fixed coordinate rounds one way; a margin above the float32
    spacing of the coordinates (1e-5 m there) takes them in.  ``tovp
    label --margin`` passes the margin.

    Only points with world |dx| and |dy| from the center within the grown
    box's xy half-diagonal r, padded by ``CULL_PAD * r``, reach the exact
    box-frame test.  The yaw turns about z only, so a point inside has
    |dx|, |dy| <= |(dx, dy)| <= r; the pad covers the rounding of the
    rotation.  The rest are outside.  The exact test works row by row, so
    its result on the kept points is bit for bit its result on all points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c = np.asarray(center, dtype=float)
    half = np.asarray(size, dtype=float) / 2.0 + margin
    r = np.sqrt(half[0] ** 2 + half[1] ** 2) * (1.0 + CULL_PAD)
    near = np.nonzero((np.abs(pts[:, 0] - c[0]) <= r) & (np.abs(pts[:, 1] - c[1]) <= r))[0]
    local = (pts.take(near, axis=0) - c) @ yaw_matrix(yaw)  # world->box uses R^T; (p @ R) == R^T p row-wise
    inside = np.zeros(len(pts), dtype=bool)
    inside[near] = ((np.abs(local[:, 0]) <= half[0]) & (np.abs(local[:, 1]) <= half[1])
                    & (np.abs(local[:, 2]) <= half[2]))
    return inside


def footprint_azimuths(v, size, yaw):
    """Azimuth span (lo, hi) of a box's xy footprint seen from an origin,
    padded by ``SECTOR_PAD`` at each end; None when every azimuth is kept.

    ``v`` is the box center seen from the origin.  Seen from outside, the
    convex footprint spans less than pi, between two of its four corners,
    so the span runs from the smallest to the largest corner azimuth
    relative to the first corner's.  lo may lie below -pi or hi above pi
    when the span crosses the seam behind the origin.  An origin within
    ``SECTOR_PAD * (|v| + r)`` of the footprint (on or inside it, too), or
    a non-finite one, keeps every azimuth: a ray from there may leave in
    any direction, or its corners' azimuths may carry more than the pad.
    """
    vx, vy = float(v[0]), float(v[1])
    hx, hy = size[0] / 2.0, size[1] / 2.0
    c, s = math.cos(yaw), math.sin(yaw)
    grow = SECTOR_PAD * (math.hypot(vx, vy) + math.hypot(hx, hy))
    # the origin in the box frame, R^T (-v); NaN fails both tests
    lx, ly = -(c * vx + s * vy), s * vx - c * vy
    if not ((abs(lx) > hx + grow or abs(ly) > hy + grow) and math.isfinite(grow)):
        return None
    az = [math.atan2(vy + s * sx * hx + c * sy * hy, vx + c * sx * hx - s * sy * hy)
          for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    rel = [(a - az[0] + math.pi) % (2.0 * math.pi) - math.pi for a in az]
    return az[0] + min(rel) - SECTOR_PAD, az[0] + max(rel) + SECTOR_PAD


def ray_box_crossings(origins, directions, center, size, yaw):
    """First positive surface crossing of rays against one oriented box.

    Returns (t, valid): the smallest positive parameter where each ray
    crosses the box surface (entry face, or exit face for rays starting
    inside) and a mask of rays that cross at all.  Slab method in the box
    frame; directions need not be normalized but the returned t is in
    units of the direction length.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    rot = yaw_matrix(yaw)
    ol = (o - np.asarray(center, dtype=float)) @ rot
    dl = d @ rot
    half = np.asarray(size, dtype=float) / 2.0

    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(3):
            oj, dj, h = ol[:, j], dl[:, j], half[j]
            t1 = (-h - oj) / dj
            t2 = (h - oj) / dj
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2)
            # axis-parallel rays: inside the slab -> (-inf, inf), outside -> empty
            parallel = dj == 0.0
            inside_slab = np.abs(oj) <= h
            near = np.where(parallel, np.where(inside_slab, -np.inf, np.inf), near)
            far = np.where(parallel, np.where(inside_slab, np.inf, -np.inf), far)
            if j == 0:
                t_enter, t_exit = near, far
            else:
                t_enter = np.maximum(t_enter, near)
                t_exit = np.minimum(t_exit, far)
    hits_line = t_enter <= t_exit
    # nearest positive crossing: entry if ahead, else exit (ray starts inside)
    t = np.where(t_enter > 0.0, t_enter, t_exit)
    valid = hits_line & (t > 0.0) & np.isfinite(t)
    return np.where(valid, t, np.inf), valid
