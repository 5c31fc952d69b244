"""Pairwise beam geometry: coplanarity, centerline intersection, and the
two overlap scenarios.

All functions work in the current scan's sensor frame, where the current
beam starts at the origin.  Directions are unit 3-vectors; the adjacent
sensor origin is the baseline between the two viewpoints.

Scenario ONE (spatial angle above the divergence angle): beams cross
transversally and overlap only around the centerline intersection q.
Scenario TWO (at or below): beams run nearly parallel and share a whole
segment ending at q; five representative points are sampled from it.
"""

from enum import IntEnum
import math

import numpy as np

from .errors import BehindSensor, DegeneratePlane, NearParallel, NonPositiveStart
from .sensor_model import SensorConfig

# Baselines shorter than this give no usable coplanarity plane. [m]
ORIGIN_EPS = 1e-3
# Cross products smaller than this mean parallel lines / degenerate plane.
PARALLEL_EPS = 1e-9


class Scenario(IntEnum):
    ONE = 1
    TWO = 2


def _norm3(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _dot3(a, b) -> float:
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def plane_normal(d_current, adjacent_origin) -> np.ndarray:
    """Unit normal of the plane spanned by the current beam direction and
    the baseline to the adjacent sensor origin.

    Raises DegeneratePlane when the origins (nearly) coincide or the beam
    is collinear with the baseline; no unique plane exists then.
    """
    d = np.asarray(d_current, dtype=float)
    a = np.asarray(adjacent_origin, dtype=float)
    a_norm = _norm3(a)
    if a_norm <= ORIGIN_EPS:
        raise DegeneratePlane(f"adjacent origin only {a_norm:.2e} m from current origin")
    c = np.cross(d, a / a_norm)
    c_norm = _norm3(c)
    if c_norm < PARALLEL_EPS:
        raise DegeneratePlane("beam direction collinear with the baseline")
    return c / c_norm


def coplanarity_angle(normal, d_adjacent) -> float:
    """Angle between an adjacent beam direction and the plane with the given
    normal; zero means the direction lies in the plane.
    """
    dot = _dot3(normal, d_adjacent)
    return math.acos(min(1.0, max(-1.0, dot))) - math.pi / 2.0


def spatial_angle(d_current, d_adjacent) -> float:
    """Angle between two beam directions, in [0, pi]."""
    dot = _dot3(d_current, d_adjacent)
    return math.acos(min(1.0, max(-1.0, dot)))


def centerline_intersection(d_current, adjacent_origin, d_adjacent):
    """Intersection of the two beam centerlines, as a point on the current
    centerline.

    Returns (q, param_current, param_adjacent) where the params are the
    ranges of q along each beam.  For skew-but-near-coplanar lines, q is the
    point of the current centerline nearest the adjacent one.

    Raises NearParallel for (anti)parallel directions and BehindSensor when
    the crossing falls at or behind either origin: beams only travel forward.
    """
    d = np.asarray(d_current, dtype=float)
    a = np.asarray(adjacent_origin, dtype=float)
    e = np.asarray(d_adjacent, dtype=float)
    m = np.cross(d, e)
    mm = _dot3(m, m)
    if mm < PARALLEL_EPS * PARALLEL_EPS:
        raise NearParallel(f"|d_current x d_adjacent| = {math.sqrt(mm):.2e}")
    t = _dot3(np.cross(a, e), m) / mm
    q = t * d
    param_adjacent = _dot3(q - a, e)
    if t <= 0.0 or param_adjacent <= 0.0:
        raise BehindSensor(f"params ({t:.3g}, {param_adjacent:.3g})")
    return q, t, param_adjacent


def classify_scenario(alpha: float, cfg: SensorConfig) -> Scenario:
    """Scenario ONE above the divergence angle, TWO at or below it."""
    if alpha < 0.0:
        raise ValueError(f"spatial angle must be >= 0: {alpha}")
    return Scenario.ONE if alpha > cfg.divergence_angle_rad else Scenario.TWO


def segment_start_range(
    q_range_current: float,
    q_to_adjacent_origin: float,
    alpha: float,
    cfg: SensorConfig,
) -> float:
    """Range along the current beam where the Scenario-2 overlap segment
    starts.

    Solves the pair of approximations: the segments cut from both beams are
    equal in length, and the gap between their start points equals the sum
    of the beam radii there.  The closed form is

        [‖q‖(sin(α/2) + tan(θ/2)) − ‖q−a‖·tan(θ/2)] / [sin(α/2) + 2·tan(θ/2)]

    with θ the divergence angle.  Raises NonPositiveStart when the segment
    degenerates (start at or behind the sensor); such pairs are rejected.
    """
    if q_range_current <= 0.0 or q_to_adjacent_origin <= 0.0:
        raise ValueError("ranges to q must be > 0")
    s = math.sin(alpha / 2.0)
    tau = math.tan(cfg.divergence_angle_rad / 2.0)
    start = (q_range_current * (s + tau) - q_to_adjacent_origin * tau) / (s + 2.0 * tau)
    if start <= 0.0:
        raise NonPositiveStart(f"segment start = {start:.3g} m")
    return start


def sample_scenario2_points(current_hit, adjacent_hit, q, d_current) -> np.ndarray:
    """The five Scenario-2 overlap points, all on the current centerline.

    o1 is the current hit, o2 the projection of the adjacent hit onto the
    current centerline, o3 the midpoint of o1 and o2, and o4/o5 the
    midpoints of o1/o2 with the segment end q.
    """
    p_i = np.asarray(current_hit, dtype=float)
    p_j = np.asarray(adjacent_hit, dtype=float)
    qq = np.asarray(q, dtype=float)
    d = np.asarray(d_current, dtype=float)
    o1 = p_i
    o2 = _dot3(p_j, d) * d  # current beam starts at the frame origin
    o3 = 0.5 * (o1 + o2)
    o4 = 0.5 * (o1 + qq)
    o5 = 0.5 * (o2 + qq)
    return np.stack([o1, o2, o3, o4, o5])
