"""Seeded benchmark inputs.

Only the standard library is used here, so the same seed gives the same
inputs whatever numpy version runs the workload.
"""

import random

# The criterion-10 scene of tests/test_acceptance.py, verbatim.  Seed 0
# renders exactly this text.
C10_SCENE_YAML = """
ground_plane: true
boxes:
  - center: [12.0, 0.0, 1.0]
    size: [4.0, 2.0, 1.8]
    category: VEHICLE
    instance_id: parked
  - center: [8.0, -6.0, 1.0]
    size: [4.0, 2.0, 1.8]
    velocity: [1.5, 0.0, 0.0]
    category: VEHICLE
    instance_id: mover
lidar:
  elevations_rad: {min: -0.35, max: 0.03, count: 32}
  azimuth_count: 1024
  max_range_m: 120.0
trajectory:
  count: 13
  period_s: 0.5
  start: [0.0, 0.0, 1.7]
  velocity: [2.0, 0.0, 0.0]
"""

C10_N = 6
C10_CURRENT = "000006"


def c10_scene_yaml(seed: int) -> str:
    """Criterion-10 scene; seeds other than 0 jitter the two vehicles'
    placement and the mover's speed (kept well above the VEHICLE moving
    threshold of 1 m/s, so labels stay STATIC or MOVING)."""
    if seed == 0:
        return C10_SCENE_YAML
    rng = random.Random(seed)
    px = 12.0 + rng.uniform(-1.0, 1.0)
    py = rng.uniform(-0.5, 0.5)
    mx = 8.0 + rng.uniform(-1.0, 1.0)
    my = -6.0 + rng.uniform(-1.0, 1.0)
    mv = 1.5 * rng.uniform(0.85, 1.15)
    return (C10_SCENE_YAML
            .replace("center: [12.0, 0.0, 1.0]", f"center: [{px!r}, {py!r}, 1.0]")
            .replace("center: [8.0, -6.0, 1.0]", f"center: [{mx!r}, {my!r}, 1.0]")
            .replace("velocity: [1.5, 0.0, 0.0]", f"velocity: [{mv!r}, 0.0, 0.0]"))


# street drive of the prep workload
STREET_CHANNELS = 64
STREET_AZIMUTHS = 2048
STREET_SCANS = 16
STREET_PERIOD_S = 0.1
_CAR = (4.5, 1.9, 1.6)


def street_layout(seed: int) -> dict:
    """A straight street between two walls, 8 parked and 8 moving cars.

    Movers keep to two lanes, one speed per lane, at least 12 m apart, so
    no two boxes ever overlap and no box reaches the ego path (y = 0).
    Returns plain numbers; ``perfbench.worker`` turns them into a scene.
    """
    rng = random.Random(1_000_003 * seed + 7)
    half_width = rng.uniform(8.0, 11.0)
    boxes = []
    for side in (1.0, -1.0):
        boxes.append({"id": f"wall{int(side)}", "center": (60.0, side * half_width, 4.0),
                      "size": (320.0, 0.5, 8.0), "yaw": 0.0,
                      "velocity": (0.0, 0.0, 0.0), "category": "VEHICLE"})
    slots = rng.sample(range(12), 8)
    for k, slot in enumerate(slots):
        side = 1.0 if k % 2 == 0 else -1.0
        boxes.append({"id": f"parked{k}",
                      "center": (-10.0 + 8.0 * slot + rng.uniform(-1.0, 1.0),
                                 side * (half_width - 1.8), 0.9),
                      "size": _CAR, "yaw": rng.uniform(-0.08, 0.08),
                      "velocity": (0.0, 0.0, 0.0), "category": "VEHICLE"})
    for side in (1.0, -1.0):
        speed = side * rng.uniform(4.0, 12.0)
        x = rng.uniform(-20.0, 0.0)
        for k in range(4):
            boxes.append({"id": f"mover{'ab'[side < 0]}{k}",
                          "center": (x, side * 2.5, 0.9), "size": _CAR,
                          "yaw": 0.0, "velocity": (speed, 0.0, 0.0),
                          "category": "VEHICLE"})
            x += rng.uniform(12.0, 24.0)
    return {
        "boxes": boxes,
        "ego_speed": rng.uniform(8.0, 12.0),
        "elevations": (-0.42, 0.18),
    }
