"""Shared yaw-oriented box math: containment tests and ray casting.

Boxes are axis-aligned in their own frame, rotated about world z by a yaw
angle and centered at a point.  Sizes are full extents (length, width,
height).  Used by the simulator, motion labeling, and evaluation.

The exact tests (the slab method for rays, the box-frame bounds for
points) run only on the rows that pass a cheap conservative pre-test.
:func:`points_in_box` keeps points whose world |dx| and |dy| from the
center are within the box's xy half-diagonal r, grown by ``CULL_PAD * r``.
``simulator._nearest_hits`` keeps rays whose line passes within the box's
bounding sphere, of radius R, unless the sphere lies wholly behind the ray
origin; R^2 grows by ``CULL_PAD * |v|^2``, v the center seen from the
origin.  Each pad is far more than the rounding of the pre-test and of
the exact test, so every row the exact test accepts survives.  The exact
tests work row by row (the rotation is an (n, 3) @ (3, 3) product, which
gives each row the same bits whichever rows share the call), so on the
surviving rows they give the same bits as on all rows.

Apart from the rotation, both tests run on the three coordinate columns as
1-D arrays: numpy runs its inner loop once per row when it broadcasts a
(3,) vector over (n, 3) rows or reduces over an axis of length 3, and once
per column here, for the same values.
"""

import numpy as np

# Relative pad of the pre-tests.  Both the pre-tests and the exact tests
# round at a few ulps (~1e-15) of the lengths involved; 1e-10 is 1e5 times
# that, and still grows a 2.5 m bounding sphere by only 2 mm at 10 km.
CULL_PAD = 1e-10


def yaw_matrix(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def points_in_box(points, center, size, yaw, margin: float = 0.0) -> np.ndarray:
    """Boolean mask of points inside (or on) the oriented box, grown by
    ``margin`` on every face.

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
