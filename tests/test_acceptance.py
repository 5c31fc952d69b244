"""Acceptance checklist: one test per shipped guarantee.

Every test prints a single ``criterion NN: PASS/FAIL`` line with the
measured margin (visible under ``pytest -s``) and asserts the same
condition, so the file doubles as a human-readable report and a CI gate.
The tolerances are the ones the package promises; nothing is loosened
here to make a line go green.
"""

import hashlib
import math
import shutil
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from brute_force import brute_force_overlaps
from scan_factories import C10_SCENE_YAML, random_scan_pair, unit_rows
from tovp.cli import DEFAULTS, main
from tovp.errors import NonPositiveStart
from tovp.evaluation import EvalBox, ScanEvalInput, evaluate
from tovp.extraction import (
    RECORD_DTYPE,
    ExtractionConfig,
    OverlapSet,
    balance_classes,
    extract_scan_pair,
    extract_sequence,
)
from tovp.geometry import segment_start_range
from tovp.labeling import MotionClass, ThresholdTable, classify_motion
from tovp.objectives import ClassWeights, overlap_loss, recon_loss
from tovp.recon import sample_recon_points
from tovp.sensor_model import (
    OccupancyState,
    RigidTransform,
    Scan,
    SensorConfig,
    confidence,
    occupancy_state,
)
from tovp.simulator import (
    SceneBox, SceneSpec, SpinningLidarSpec, oracle_compare, simulate_scan_with_hits,
)

SENSOR = SensorConfig()
CFG = ExtractionConfig()
WEIGHTS = ClassWeights()

FREE = int(OccupancyState.FREE)
OCCUPIED = int(OccupancyState.OCCUPIED)
UNKNOWN = int(OccupancyState.UNKNOWN)


def _line(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_c01_indexed_extraction_matches_exhaustive_reference():
    # the index-pruned pipeline must return the exact records an index-free
    # scan of every beam pair returns, byte for byte: both run one pair
    # kernel, so any difference lies in the band query or the block sorts
    rng = np.random.default_rng(20240811)
    t0 = time.perf_counter()
    mismatches = 0
    total = 0
    for seed in range(100):
        n_cur = int(rng.integers(60, 501))
        n_adj = int(rng.integers(60, 501))
        cur, adj = random_scan_pair(seed, n_current=n_cur, n_adjacent=n_adj)
        got = extract_scan_pair(cur, adj, CFG, SENSOR).records
        ref = brute_force_overlaps(cur, adj, 1, CFG, SENSOR)
        mismatches += got.tobytes() != ref.tobytes()
        total += len(got)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and total > 0 and elapsed < 60.0
    _line(1, ok, f"100 random pairs, {total} records, {mismatches} byte mismatches, {elapsed:.1f} s")


def test_c02_segment_start_satisfies_both_defining_equations():
    # the closed form is derived from two approximations: the segments cut
    # from both beams are equal in length, and the gap between their start
    # points equals the sum of the beam radii there.  Back-substitute each
    # equation's solution into the other and demand closure.
    rng = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        theta = rng.uniform(1e-4, 0.099)
        cfg = SensorConfig(divergence_angle_rad=theta)
        alpha = rng.uniform(0.0, theta)
        l1 = rng.uniform(0.5, 200.0)
        l2 = rng.uniform(0.5, 200.0)
        try:
            b_i = segment_start_range(l1, l2, alpha, cfg)
        except NonPositiveStart:
            continue
        s = math.sin(alpha / 2.0)
        tau = math.tan(theta / 2.0)
        b_j = b_i - (l1 - l2)  # from equal lengths; the gap equation must close
        lhs = (l1 - b_i) * s
        rhs = (b_i + b_j) * tau
        r_gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
        b_j2 = lhs / tau - b_i  # from the gap equation; lengths must match
        r_len = abs((l1 - b_i) - (l2 - b_j2)) / max(abs(l1 - b_i), abs(l2 - b_j2), 1e-12)
        worst = max(worst, r_gap, r_len)
        checked += 1
    ok = worst < 1e-9
    _line(2, ok, f"10^4 segment starts, worst relative residual {worst:.2e}")


def test_c03_occupied_band_and_state_partition():
    # confidence exactly one band past the hit equals the occupied
    # threshold, and the three states tile the ray without gap or overlap
    band = SENSOR.occupied_band_m
    conf_err = max(abs(confidence(SENSOR, r + 0.105361, r) - 0.9)
                   for r in (0.5, 3.0, 20.0, 80.0))
    band_err = max(abs(confidence(SENSOR, r + band, r) - 0.9)
                   for r in (0.5, 3.0, 20.0, 80.0))
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(10_000):
        s = rng.uniform(0.1, 100.0)
        probe_free = rng.uniform(0.0, s * (1.0 - 1e-12))
        probe_occ = s + rng.uniform(0.0, band)
        probe_unk = s + band + rng.uniform(1e-9, 60.0)
        triple = (
            occupancy_state(SENSOR, probe_free, s),
            occupancy_state(SENSOR, probe_occ, s),
            occupancy_state(SENSOR, probe_unk, s),
        )
        if triple != (OccupancyState.FREE, OccupancyState.OCCUPIED, OccupancyState.UNKNOWN):
            bad += 1
    ok = conf_err <= 1e-6 and band_err <= 1e-12 and bad == 0
    _line(3, ok, f"confidence at hit+0.105361 within {conf_err:.2e} of 0.9, "
                 f"{bad} partition violations in 10^4 triples")


def _lidar(channels, azimuths):
    return SpinningLidarSpec(
        elevation_angles_rad=tuple(np.linspace(-0.30, 0.05, channels)),
        azimuth_step_rad=2.0 * np.pi / azimuths,
    )


def _pose(x, y, z=1.7):
    return RigidTransform(np.eye(3), np.array([x, y, z]))


def _pair_agreement(scene, p0, p1, lidar):
    cur = simulate_scan_with_hits(scene, lidar, p0, 0.0)[0]
    adj = simulate_scan_with_hits(scene, lidar, p1, 0.5)[0].in_frame_of(cur)
    oset = extract_scan_pair(cur, adj, CFG, SENSOR)
    cmp = oracle_compare(oset, scene, {0: (p0, 0.0), 1: (p1, 0.5)}, 0.02, SENSOR)
    return cmp


def test_c04_simulated_scenes_agree_with_ray_cast_oracle():
    t0 = time.perf_counter()
    lidar = _lidar(16, 360)

    room = SceneSpec(
        static_boxes=[
            SceneBox(center=(10.0, 0.0, 1.5), size=(0.4, 20.0, 4.0)),
            SceneBox(center=(-10.0, 0.0, 1.5), size=(0.4, 20.0, 4.0)),
            SceneBox(center=(0.0, 10.0, 1.5), size=(20.0, 0.4, 4.0)),
            SceneBox(center=(0.0, -10.0, 1.5), size=(20.0, 0.4, 4.0)),
        ],
        ground_plane=True,
    )
    cmp_room = _pair_agreement(room, _pose(0.0, 0.0), _pose(0.7, 0.25), lidar)

    wall = SceneSpec(static_boxes=[SceneBox(center=(12.0, 0.0, 2.0), size=(0.4, 30.0, 4.0))])
    cmp_wall = _pair_agreement(wall, _pose(0.0, -3.0), _pose(0.0, -1.5), lidar)

    # a box crossing a corridor: hidden behind the south wall half a scan
    # before the current sweep, parked mid-corridor half a scan after.
    # The crossing sits off the motion axis; beams along the baseline have
    # no parallax and can never produce overlap points there.
    corridor = SceneSpec(
        static_boxes=[
            SceneBox(center=(15.0, 6.0, 2.0), size=(40.0, 0.4, 4.0)),
            SceneBox(center=(15.0, -6.0, 2.0), size=(40.0, 0.4, 4.0)),
        ],
        moving_boxes=[
            SceneBox(center=(8.0, -5.0, 1.0), size=(2.5, 2.5, 2.0),
                     velocity=(0.0, 10.0, 0.0), instance_id="crosser"),
        ],
        ground_plane=True,
    )
    dense = _lidar(24, 720)
    cfg1 = ExtractionConfig(n_adjacent=1)
    poses = {-1: (_pose(-0.3, -0.2), -0.5), 0: (_pose(0.0, 0.0), 0.0), 1: (_pose(0.3, 0.2), 0.5)}
    scans = {off: simulate_scan_with_hits(corridor, dense, p, t)[0] for off, (p, t) in poses.items()}
    oset = extract_sequence(scans[0], [scans[-1], scans[1]], cfg1, SENSOR)
    cmp_box = oracle_compare(oset, corridor, poses, 0.02, SENSOR)

    # the crossing must leave the same location free at one time and
    # occupied at another: compare records inside the box's later footprint
    rec = oset.records
    pos_w = poses[0][0].apply(rec["position"])
    inside = (np.abs(pos_w[:, 0] - 8.0) <= 1.3) & (np.abs(pos_w[:, 1]) <= 1.3) \
        & (pos_w[:, 2] >= -0.1) & (pos_w[:, 2] <= 2.1)
    early_free = inside & (rec["state"] == FREE) & (rec["time"] < 0.0)
    late_occ = inside & (rec["state"] == OCCUPIED) & (rec["time"] > 0.0)
    if early_free.any() and late_occ.any():
        flip_dist = float(cKDTree(pos_w[late_occ]).query(pos_w[early_free])[0].min())
    else:
        flip_dist = float("inf")

    elapsed = time.perf_counter() - t0
    agreements = [cmp_room, cmp_box, cmp_wall]
    ok = (
        all(c.agreement >= 0.99 and c.compared >= 500 for c in agreements)
        and flip_dist <= 0.5
        and elapsed < 120.0
    )
    _line(4, ok, "room/box/wall agreement "
                 + "/".join(f"{100 * c.agreement:.2f}%" for c in agreements)
                 + f" on {sum(c.compared for c in agreements)} points, "
                 f"free-to-occupied flip within {flip_dist:.2f} m, {elapsed:.0f} s")


def test_c05_class_balance_exact_and_thread_invariant():
    n = 100 + 10_000 + 1_000
    rec = np.zeros(n, dtype=RECORD_DTYPE)
    rec["current_index"] = np.arange(n)
    rec["scan_offset"] = 1
    states = np.array([OCCUPIED] * 100 + [FREE] * 10_000 + [UNKNOWN] * 1_000, dtype=np.uint8)
    np.random.default_rng(3).shuffle(states)
    rec["state"] = states
    oset = OverlapSet(rec)
    bal = balance_classes(oset, seed=11)
    got = tuple(int((bal.records["state"] == s).sum()) for s in (OCCUPIED, FREE, UNKNOWN))
    repeat = balance_classes(oset, seed=11).records.tobytes() == bal.records.tobytes()

    # the balanced subset may not depend on how many threads extracted it
    cur, adj = random_scan_pair(5, n_current=9000, n_adjacent=300)
    one = balance_classes(extract_scan_pair(cur, adj, CFG, SENSOR, threads=1), seed=4)
    three = balance_classes(extract_scan_pair(cur, adj, CFG, SENSOR, threads=3), seed=4)
    threads_same = one.records.tobytes() == three.records.tobytes()

    ok = got == (100, 500, 100) and repeat and threads_same and len(one) > 0
    _line(5, ok, f"occupied/free/unknown {got[0]}/{got[1]}/{got[2]} from 100/10000/1000, "
                 f"seed-stable {repeat}, thread-invariant {threads_same}")


def test_c06_recon_sampling_counts_and_states():
    n = 137
    rng = np.random.default_rng(21)
    dirs = unit_rows(rng, n)
    ranges = rng.uniform(2.0, 60.0, n)
    scan = Scan(points=dirs * ranges[:, None], time=0.25)
    occ_n, free_n = DEFAULTS["occupied_per_beam"], DEFAULTS["free_per_beam"]
    rset = sample_recon_points(scan, occ_n, free_n, SENSOR, seed=9)
    rec = rset.records

    per_beam = np.bincount(rec["current_index"], minlength=n)
    occ_per_beam = np.bincount(rec["current_index"][rec["state"] == OCCUPIED], minlength=n)
    free_per_beam = np.bincount(rec["current_index"][rec["state"] == FREE], minlength=n)
    counts_ok = (
        (occ_n, free_n) == (5, 25)
        and len(rec) == n * 30
        and per_beam.min() == per_beam.max() == 30
        and occ_per_beam.min() == occ_per_beam.max() == 5
        and free_per_beam.min() == free_per_beam.max() == 25
    )

    rho = np.linalg.norm(rec["position"], axis=1)
    reported = ranges[rec["current_index"]]
    reverified = sum(
        occupancy_state(SENSOR, float(rho[k]), float(reported[k])) == rec["state"][k]
        for k in range(len(rec))
    )
    ok = counts_ok and reverified == len(rec) and bool(np.all(rec["time"] == 0.25))
    _line(6, ok, f"{n} beams -> {len(rec)} samples, 5+25 per beam, "
                 f"{reverified}/{len(rec)} states re-verified")


def _naive_overlap(states, conf, probs, weights):
    w = [weights.free, weights.occupied, weights.unknown]
    terms = [conf[k] * w[states[k]] * -math.log(probs[k][states[k]]) for k in range(len(states))]
    return math.fsum(terms) / len(states)


def _naive_recon(states, probs, weights):
    w = [weights.free, weights.occupied, weights.unknown]
    terms = [w[states[k]] * -math.log(probs[k][states[k]]) for k in range(len(states))]
    return math.fsum(terms) / len(states)


def test_c07_losses_match_scalar_reference():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1_000):
        m = int(rng.integers(1, 65))
        states = rng.integers(0, 3, m)
        conf = rng.uniform(0.01, 1.0, m)
        probs = rng.dirichlet([2.0, 2.0, 2.0], m)
        got = overlap_loss(states, conf, probs, WEIGHTS)
        ref = _naive_overlap(states, conf, probs, WEIGHTS)
        worst = max(worst, abs(got - ref) / abs(ref))

        beams = int(rng.integers(1, 13))
        per = int(rng.integers(1, 9))
        states_r = rng.integers(0, 3, beams * per)
        probs_r = rng.dirichlet([2.0, 2.0, 2.0], beams * per)
        got_r = recon_loss(states_r, probs_r, WEIGHTS, n_beams=beams, per_beam=per)
        ref_r = _naive_recon(states_r, probs_r, WEIGHTS)
        worst = max(worst, abs(got_r - ref_r) / abs(ref_r))

    # five occupied points, full confidence, probability one half each
    hand = overlap_loss(
        np.full(5, OCCUPIED), np.ones(5), np.full((5, 3), [0.25, 0.5, 0.25]), WEIGHTS
    )
    hand_err = abs(hand - 3.4657359027997265)
    ok = worst < 1e-12 and hand_err < 1e-15
    _line(7, ok, f"2000 random batches, worst relative error {worst:.2e}, "
                 f"hand case -5 ln(1/2) off by {hand_err:.1e}")


def _counted_scan(tp, fp, fn, ego_tp=0, boxes=()):
    rows = []
    for i in range(tp):
        rows.append(([float(i), 0.0, 0.0], True, MotionClass.MOVING, i < ego_tp))
    for i in range(fp):
        rows.append(([float(i), 5.0, 0.0], True, MotionClass.STATIC, False))
    for i in range(fn):
        rows.append(([float(i), 10.0, 0.0], False, MotionClass.MOVING, False))
    pts = np.array([r[0] for r in rows])
    return ScanEvalInput(
        points=pts,
        predicted_moving=np.array([r[1] for r in rows], dtype=bool),
        gt_labels=np.array([r[2] for r in rows], dtype=np.uint8),
        ego_mask=np.array([r[3] for r in rows], dtype=bool),
        moving_boxes=boxes,
    )


def test_c08_metric_hand_cases():
    # two moving objects: one fully recovered, one quarter recovered
    box_a = EvalBox("a", np.zeros(3), np.array([2.0, 2.0, 2.0]), 0.0)
    box_b = EvalBox("b", np.array([10.0, 0.0, 0.0]), np.array([2.0, 2.0, 2.0]), 0.0)
    pts = np.zeros((8, 3))
    pts[:4, 0] = np.linspace(-0.4, 0.4, 4)
    pts[4:, 0] = 10.0 + np.linspace(-0.4, 0.4, 4)
    scan = ScanEvalInput(
        points=pts,
        predicted_moving=np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=bool),
        gt_labels=np.full(8, MotionClass.MOVING, dtype=np.uint8),
        moving_boxes=(box_a, box_b),
    )
    recall = evaluate([scan]).recall_obj

    # 100 of 105 true positives sit on the data-collection vehicle itself;
    # keeping them inflates the conventional ratio, dropping them does not
    inflated = evaluate([_counted_scan(tp=105, fp=5, fn=5, ego_tp=100)])
    iou_strict = inflated.iou_excluding_ego
    iou_conv = inflated.iou_conventional

    ok = (
        recall == 62.5
        and abs(iou_strict - 100.0 / 3.0) < 1e-12
        and abs(iou_conv - 91.30434782608695) < 1e-12
        and iou_conv > iou_strict
    )
    _line(8, ok, f"recall_obj {recall}, iou {iou_strict:.2f}% without ego "
                 f"vs {iou_conv:.2f}% conventional")


def test_c09_motion_threshold_boundaries_are_strict():
    table = ThresholdTable()
    eps = 1e-9
    boundary_unknown = 0
    strict_sides = 0
    for cat, (static_max, moving_min) in sorted(table.speeds.items()):
        boundary_unknown += classify_motion(static_max, cat, table) is MotionClass.UNKNOWN_MOTION
        boundary_unknown += classify_motion(moving_min, cat, table) is MotionClass.UNKNOWN_MOTION
        strict_sides += classify_motion(static_max - eps, cat, table) is MotionClass.STATIC
        strict_sides += classify_motion(moving_min + eps, cat, table) is MotionClass.MOVING
    ok = boundary_unknown == 6 and strict_sides == 6
    _line(9, ok, f"{boundary_unknown}/6 boundary speeds undecided, "
                 f"{strict_sides}/6 strict neighbours classified")


def _file_digests(out_dir):
    digests = {}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.md5(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.slow
def test_c10_extract_cli_runtime_and_thread_determinism(tmp_path):
    scene = tmp_path / "scene.yaml"
    scene.write_text(C10_SCENE_YAML)
    sim = tmp_path / "sim"
    assert main(["simulate", "--scene", str(scene), "--out", str(sim)]) == 0

    outs = {}
    elapsed = None
    for threads in (1, 2, 8):
        out = tmp_path / f"out{threads}"
        t0 = time.perf_counter()
        code = main(["extract", "--scans", str(sim / "scans"),
                     "--poses", str(sim / "poses.txt"),
                     "--out", str(out), "--threads", str(threads)])
        dt = time.perf_counter() - t0
        assert code == 0
        if threads == 1:
            elapsed = dt
        outs[threads] = _file_digests(out)

    # the output bytes any change to extraction must keep
    pinned = outs[1] == {
        "000006.tovp": "0f4a2e4548e3538a6be6db755fb3357d",
        "000006.trcn": "68cd72bb2f7468ca4076a2065ac184ee",
        "config.json": "2c88e729d1ac3dc18fbca96a46ac36c3",
    }
    identical = outs[1] == outs[2] == outs[8]
    ok = pinned and identical and elapsed < 30.0
    for threads in (1, 2, 8):
        shutil.rmtree(tmp_path / f"out{threads}")
    _line(10, ok, f"13 scans of 32x1024, window extracted in {elapsed:.1f} s, "
                  f"threads 1/2/8 byte-identical {identical}, pinned digests {pinned}")
