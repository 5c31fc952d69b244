"""One benchmark run of one workload, in its own process.

``perfbench/run.py`` starts this script with BLAS pinned to one thread and
``src`` on the import path.  It builds the workload's inputs from the seed,
prints ``READY <CPU seconds so far>`` when set-up is done, runs
operations back to back (one client, closed loop) for the given seconds,
checks every operation's outputs, and prints one ``RESULT <json>`` line.
``--setup-only`` stops after ``READY``.  An untraced run also prints
``PROBE`` between operations and waits for a line on stdin while
``run.py`` times another set-up.

Operations of ``prep-64x2048`` run in this process.  Operations of the
other workloads are ``tovp`` commands in fresh child processes, exactly as
a user runs them.  With ``--trace 1`` each operation's calls into tovp run
in this process (for a command workload, the calls the command makes, in
its order), once untraced and once with a span around every call, and
the per-layer figures come from those spans.
"""

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from tovp import formats  # noqa: E402
from tovp._boxes import points_in_box  # noqa: E402
from tovp.evaluation import EvalBox, ScanEvalInput, evaluate, object_size_cdf  # noqa: E402
from tovp.extraction import (  # noqa: E402
    ExtractionConfig, OverlapSet, build_direction_index, candidate_pairs, extract_sequence,
)
from tovp.labeling import MotionClass, ThresholdTable, TrackedBox, box_motion_class, label_points  # noqa: E402
from tovp.objectives import recon_loss  # noqa: E402
from tovp.recon import sample_recon_points  # noqa: E402
from tovp.sensor_model import MIN_BEAM_RANGE, RigidTransform, Scan, SensorConfig, beam_from_point  # noqa: E402
from tovp.simulator import (  # noqa: E402
    SceneBox, SceneSpec, SpinningLidarSpec, oracle_compare, simulate_scan_with_hits,
)

import scenes  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

OCC_PER_BEAM, FREE_PER_BEAM = 5, 25
PER_BEAM = OCC_PER_BEAM + FREE_PER_BEAM
SENSOR = SensorConfig()  # the CLI defaults
ORACLE_EPS_M = 0.02
ORACLE_STRIDE = 97
ORACLE_MIN = 0.99
# how far outside its box a simulated surface hit may land by rounding:
# in float64, and after the float32 round trip of a .bin scan
BOUNDARY_TOL_M = 1e-9
BOUNDARY_TOL_F32_M = 1e-5
# per-layer metric -> the span-name prefix it sums
LAYERS = {
    "simulator_s": "simulator.",
    "labeling_s": "labeling.",
    "recon_s": "recon.",
    "objectives_s": "objectives.",
    "sensor_model_s": "sensor_model.",
    "formats.write_s": "formats.write",
    "formats.read_s": "formats.read",
    "evaluation_s": "evaluation.",
    "extraction.build_direction_index_s": "extraction.build_direction_index",
}


# set-ups measured in a run besides the worker's own
SETUP_PROBES = 8


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def tovp_cmd(*args):
    return [sys.executable, "-m", "tovp.cli", *map(str, args)]


def run_child(argv):
    """Run a tovp command; returns (seconds, completed process, cpu seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    dt = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return dt, proc, cpu


def require_exit0(proc, what):
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        raise CheckFailed(f"{what}: exit {proc.returncode}: {lines[0]}")


def first_line(exc):
    text = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {text[0] if text else ''}"


def digest_files(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def tracks_from_scene(boxes, times):
    """Ground-truth tracks of scene boxes, keyed at the scan times."""
    return [TrackedBox(
        instance_id=box.instance_id, category=box.category,
        centers=np.stack([box.center_at(t) for t in times]),
        sizes=np.tile(np.asarray(box.size, dtype=float), (len(times), 1)),
        yaws=np.full(len(times), box.yaw), timestamps=np.asarray(times, dtype=float),
    ) for box in boxes]


def check_moving_labels(points, labels, sim_moving, tracks, k, tol):
    """MOVING labels must match the simulator's hits on moving boxes.  A
    hit the labels miss passes only if it lies within ``tol`` of a moving
    box: hits sit on a box face, and rounding can put them just outside."""
    moving = labels == MotionClass.MOVING
    extra = int(np.sum(moving & ~sim_moving))
    check(extra == 0, f"{extra} points labeled MOVING off any moving box")
    missed = np.nonzero(sim_moving & ~moving)[0]
    near = np.zeros(len(missed), dtype=bool)
    for tb in tracks:
        if box_motion_class(tb, k) == MotionClass.MOVING:
            near |= points_in_box(points[missed], tb.centers[k], tb.sizes[k], tb.yaws[k], tol)
    check(near.all(), f"{int(np.sum(~near))} moving-box hits not labeled MOVING")


def iou_percent(preds, gts):
    """Conventional moving IoU in percent, counted directly."""
    tp = fp = fn = 0
    for pred, gt in zip(preds, gts):
        valid = gt != MotionClass.UNKNOWN_MOTION
        gt_m = gt == MotionClass.MOVING
        tp += int(np.sum(valid & pred & gt_m))
        fp += int(np.sum(valid & pred & ~gt_m))
        fn += int(np.sum(valid & ~pred & gt_m))
    return 100.0 * tp / (tp + fp + fn) if tp + fp + fn else None


def cpu_seconds(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def timed(fn, *args):
    """(wall seconds, cpu seconds of this process) of one call."""
    cpu0, t0 = cpu_seconds(resource.RUSAGE_SELF), time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0, cpu_seconds(resource.RUSAGE_SELF) - cpu0


def tree_bytes(d):
    return sum(os.path.getsize(os.path.join(dp, f)) for dp, _, fs in os.walk(d) for f in fs)


class Workload:
    """``op`` is the measured operation.  ``traced_op`` makes the same calls
    into tovp in this process, with spans when given a Tracer; both return
    (seconds, cpu seconds, bytes written, info)."""

    in_process = False
    layers = LAYERS
    commands = ()  # the tovp commands one operation runs

    def traced_op(self, k, tr):
        raise NotImplementedError

    def after_op(self, k, info, tr):
        pass

    def separate_calls(self, tr):
        return {}

    def finish(self, tr):
        return {}

    def startup_s(self):
        """Process start, imports and argument parsing of one operation's
        commands, timed as `tovp <command> --help`."""
        return sum(run_child(tovp_cmd(c, "--help"))[0] for c in self.commands)


# ---------------------------------------------------------------------------
# prep-64x2048: one scan of a street drive, in this process

class Prep(Workload):
    in_process = True

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        lay = scenes.street_layout(seed)
        boxes = [SceneBox(center=b["center"], size=b["size"], yaw=b["yaw"],
                          velocity=b["velocity"], category=b["category"],
                          instance_id=b["id"]) for b in lay["boxes"]]
        self.scene = SceneSpec(static_boxes=[b for b in boxes if not b.is_moving],
                               moving_boxes=[b for b in boxes if b.is_moving],
                               ground_plane=True)
        lo, hi = lay["elevations"]
        self.lidar = SpinningLidarSpec(
            elevation_angles_rad=tuple(np.linspace(lo, hi, scenes.STREET_CHANNELS)),
            azimuth_step_rad=2.0 * np.pi / scenes.STREET_AZIMUTHS)
        self.times = [k * scenes.STREET_PERIOD_S for k in range(scenes.STREET_SCANS)]
        self.poses = [RigidTransform(rotation=np.eye(3),
                                     translation=np.array([lay["ego_speed"] * t, 0.0, 1.7]))
                      for t in self.times]
        all_boxes = self.scene.all_boxes()
        self.moving = np.array([b.is_moving for b in all_boxes])
        self.tracks = tracks_from_scene(all_boxes, self.times)
        # predicted state distributions fed to the loss, one row per sample
        rng = np.random.default_rng(seed)
        probs = rng.random((scenes.STREET_CHANNELS * scenes.STREET_AZIMUTHS * PER_BEAM, 3)) + 0.05
        self.probs = probs / probs.sum(axis=1, keepdims=True)
        self.eval_inputs = []

    def op(self, k, tr):
        """Returns (seconds, cpu seconds, bytes written, info); the checks
        run after the clock stops."""
        i = k % scenes.STREET_SCANS
        pose, t = self.poses[i], self.times[i]
        path = os.path.join(self.work, f"{i:06d}.trcn")
        cpu0, t0 = cpu_seconds(resource.RUSAGE_SELF), time.perf_counter()
        with tr.span("simulator.simulate_scan_with_hits"):
            scan, hit_box = simulate_scan_with_hits(self.scene, self.lidar, pose, t,
                                                    noise_seed=self.seed + i)
        with tr.span("sensor_model.apply"):
            world = Scan(points=pose.apply(scan.points), time=t)
        with tr.span("labeling.label_points"):
            labels = label_points(world, self.tracks)
        with tr.span("recon.sample_recon_points"):
            rset = sample_recon_points(scan, OCC_PER_BEAM, FREE_PER_BEAM, SENSOR,
                                       seed=self.seed + i)
        with tr.span("formats.write_recon_file"):
            formats.write_recon_file(path, rset)
        with tr.span("formats.read_recon_file"):
            back = formats.read_recon_file(path)
        n_beams = len(back) // PER_BEAM
        with tr.span("objectives.recon_loss"):
            loss = recon_loss(back.records["state"], self.probs[:len(back)],
                              n_beams=n_beams, per_beam=PER_BEAM)
        dt, cpu = time.perf_counter() - t0, cpu_seconds(resource.RUSAGE_SELF) - cpu0
        nbytes = os.path.getsize(path)
        os.remove(path)

        valid = np.nonzero(np.linalg.norm(scan.points, axis=1) >= MIN_BEAM_RANGE)[0]
        check(len(rset) == PER_BEAM * len(valid),
              f"{len(rset)} recon samples for {len(valid)} valid beams")
        rec = rset.records
        check(np.array_equal(rec["current_index"], np.repeat(valid, PER_BEAM)),
              "recon samples not grouped per valid beam")
        states = rec["state"].reshape(-1, PER_BEAM)
        check(np.all(states[:, :OCC_PER_BEAM] == 1) and np.all(states[:, OCC_PER_BEAM:] == 0),
              "recon samples are not 5 occupied then 25 free per beam")
        b = back.records
        check(np.array_equal(b["current_index"], rec["current_index"])
              and np.array_equal(b["state"], rec["state"])
              and np.array_equal(b["position"], rec["position"].astype("<f4"))
              and np.array_equal(b["time"], rec["time"].astype("<f4")),
              ".trcn read back differs from what was written")
        sim_moving = (hit_box >= 0) & self.moving[np.maximum(hit_box, 0)]
        check_moving_labels(world.points, labels, sim_moving, self.tracks, i, BOUNDARY_TOL_M)
        check(math.isfinite(loss), f"recon_loss not finite: {loss}")

        gt = np.where(sim_moving, np.uint8(MotionClass.MOVING), np.uint8(MotionClass.STATIC))
        self.eval_inputs.append(ScanEvalInput(
            points=world.points, predicted_moving=labels == MotionClass.MOVING,
            gt_labels=gt,
            moving_boxes=tuple(EvalBox(instance_id=tb.instance_id, center=tb.centers[i],
                                       size=tb.sizes[i], yaw=float(tb.yaws[i]))
                               for tb, m in zip(self.tracks, self.moving) if m)))
        return dt, cpu, nbytes, {"scan": scan}

    def traced_op(self, k, tr):
        return self.op(k, tr)

    def after_op(self, k, info, tr):
        """Separate call, traced run only: one direction-index build on the
        scan just processed."""
        with tr.span("extraction.build_direction_index"):
            build_direction_index(info["scan"], ExtractionConfig().cell_size(SENSOR))

    def finish(self, tr):
        """Evaluation once per run, outside the operations."""
        if not self.eval_inputs:
            return {}
        with tr.span("evaluation.evaluate"):
            report = evaluate(self.eval_inputs)
        want = iou_percent([e.predicted_moving for e in self.eval_inputs],
                           [e.gt_labels for e in self.eval_inputs])
        check(abs(report.iou_conventional - want) < 1e-9,
              f"evaluate iou {report.iou_conventional}, counted {want}")
        return {}


# ---------------------------------------------------------------------------
# cli-c10: simulate -> label -> eval -> stats on the criterion-10 scene

class CliC10(Workload):
    commands = ("simulate", "label", "eval", "stats")

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.scene_path = os.path.join(work, "scene.yaml")
        with open(self.scene_path, "w") as fh:
            fh.write(scenes.c10_scene_yaml(seed))
        self.digest = None

    def argvs(self, d):
        sim = os.path.join(d, "sim")
        common = ("--boxes", f"{sim}/boxes.jsonl", "--poses", f"{sim}/poses.txt")
        return [
            ("simulate", tovp_cmd("simulate", "--scene", self.scene_path, "--out", sim)),
            ("label", tovp_cmd("label", "--scans", f"{sim}/scans", *common,
                               "--out", f"{d}/pred")),
            ("eval", tovp_cmd("eval", "--scans", f"{sim}/scans", "--labels", f"{sim}/labels",
                              "--predictions", f"{d}/pred", *common)),
            ("stats", tovp_cmd("stats", "--scans", f"{sim}/scans", *common)),
        ]

    def op(self, k, tr):
        d = os.path.join(self.work, f"op{k}")
        total = cpu = 0.0
        out = {}
        try:
            for name, argv in self.argvs(d):
                dt, proc, c = run_child(argv)
                total, cpu = total + dt, cpu + c
                require_exit0(proc, f"tovp {name}")
                out[name] = proc.stdout
            nbytes = tree_bytes(d)
            self.check_outputs(d, out)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return total, cpu, nbytes, {}

    def check_outputs(self, d, out):
        sim = os.path.join(d, "sim")
        names = sorted(os.listdir(f"{sim}/scans"))
        check(names == [f"{i:06d}.bin" for i in range(13)], f"simulate wrote scans {names}")
        check(sorted(os.listdir(f"{d}/pred")) == [n[:-4] + ".label" for n in names],
              "label did not write one file per scan")
        poses = formats.read_poses(f"{sim}/poses.txt")
        tracks = formats.read_boxes(f"{sim}/boxes.jsonl")
        preds, gts = [], []
        for i, n in enumerate(names):
            points = poses[i].apply(formats.read_scan_bin(f"{sim}/scans/{n}")[0])
            gt = formats.read_labels(f"{sim}/labels/{n[:-4]}.label")
            pred = formats.read_labels(f"{d}/pred/{n[:-4]}.label")
            check_moving_labels(points, pred, gt == MotionClass.MOVING, tracks, i,
                                BOUNDARY_TOL_F32_M)
            preds.append(pred == MotionClass.MOVING)
            gts.append(gt)
        m = re.search(r"^iou_conventional: ([0-9.]+)$", out["eval"], re.M)
        want = iou_percent(preds, gts)
        check(m is not None and abs(float(m.group(1)) - want) <= 0.005 + 1e-9,
              f"eval printed iou {m and m.group(1)}, counted {want:.4f}")
        m = re.search(r"^objects: (\d+)$", out["stats"], re.M)
        check(m is not None and int(m.group(1)) > 0, "stats found no objects")
        digest = digest_files([os.path.join(dp, f) for dp, _, fs in os.walk(sim) for f in fs])
        if self.digest is None:
            self.digest = digest
        check(digest == self.digest, "simulate output differs between operations")

    def traced_op(self, k, tr):
        """The four commands' calls into tovp, in order, in this process."""
        d = os.path.join(self.work, f"rep{k}")
        for sub in ("sim/scans", "sim/labels", "pred"):
            os.makedirs(os.path.join(d, sub), exist_ok=True)
        try:
            dt, cpu = timed(self._replica, d, tr)
            return dt, cpu, tree_bytes(d), {}
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _replica(self, d, tr):
        sim = os.path.join(d, "sim")
        period, tol, table = 0.5, 1e-3, ThresholdTable()
        # simulate
        with tr.span("formats.read_scene"):
            sim_scene = formats.read_scene(self.scene_path)
        boxes = sim_scene.scene.all_boxes()
        moving = np.array([b.is_moving for b in boxes], dtype=bool)
        for i, (pose, t) in enumerate(zip(sim_scene.poses, sim_scene.times)):
            with tr.span("simulator.simulate_scan_with_hits"):
                scan, hit_box = simulate_scan_with_hits(sim_scene.scene, sim_scene.lidar,
                                                        pose, t, noise_seed=i)
            labels = np.where((hit_box >= 0) & moving[hit_box],
                              np.uint8(MotionClass.MOVING), np.uint8(MotionClass.STATIC))
            with tr.span("formats.write_scan_bin"):
                formats.write_scan_bin(f"{sim}/scans/{i:06d}.bin", scan.points, scan.intensities)
            with tr.span("formats.write_labels"):
                formats.write_labels(f"{sim}/labels/{i:06d}.label", labels)
        with tr.span("formats.write_poses"):
            formats.write_poses(f"{sim}/poses.txt", sim_scene.poses)
        with tr.span("formats.write_boxes"):
            formats.write_boxes(f"{sim}/boxes.jsonl", tracks_from_scene(boxes, sim_scene.times))
        with tr.span("formats.write_report"):
            formats.write_report(f"{sim}/meta.json", {"scan_period_s": sim_scene.period_s,
                                                      "n_scans": len(sim_scene.times), "seed": 0})
        n = len(sim_scene.times)

        def world_points():
            with tr.span("formats.read_poses"):
                poses = formats.read_poses(f"{sim}/poses.txt")
            for i in range(n):
                with tr.span("formats.read_scan_bin"):
                    points, _ = formats.read_scan_bin(f"{sim}/scans/{i:06d}.bin")
                with tr.span("sensor_model.apply"):
                    world = poses[i].apply(points)
                yield i, world

        # label
        with tr.span("formats.read_boxes"):
            tracks = formats.read_boxes(f"{sim}/boxes.jsonl")
        for i, points in world_points():
            with tr.span("labeling.label_points"):
                labels = label_points(Scan(points=points, time=i * period), tracks, table,
                                      time_tol=tol)
            with tr.span("formats.write_labels"):
                formats.write_labels(f"{d}/pred/{i:06d}.label", labels)
        # eval
        with tr.span("formats.read_boxes"):
            tracks = formats.read_boxes(f"{sim}/boxes.jsonl")
        inputs = []
        for i, points in world_points():
            with tr.span("formats.read_labels"):
                gt = formats.read_labels(f"{sim}/labels/{i:06d}.label", len(points))
                pred = formats.read_labels(f"{d}/pred/{i:06d}.label", len(points))
            with tr.span("labeling.box_motion_class"):
                movers = []
                for track in tracks:
                    kf = track.keyframe_at(i * period, tol)
                    if kf is not None and box_motion_class(track, kf, table) == MotionClass.MOVING:
                        movers.append(EvalBox(instance_id=track.instance_id,
                                              center=track.centers[kf], size=track.sizes[kf],
                                              yaw=float(track.yaws[kf])))
            inputs.append(ScanEvalInput(points=points, predicted_moving=pred.astype(bool),
                                        gt_labels=gt, moving_boxes=tuple(movers)))
        with tr.span("evaluation.evaluate"):
            report = evaluate(inputs)
        # stats
        with tr.span("formats.read_boxes"):
            tracks = formats.read_boxes(f"{sim}/boxes.jsonl")
        counts = []
        for i, points in world_points():
            for track in tracks:
                kf = track.keyframe_at(i * period, tol)
                if kf is not None:
                    inside = int(np.sum(points_in_box(points, track.centers[kf],
                                                      track.sizes[kf], track.yaws[kf])))
                    if inside:
                        counts.append(inside)
        with tr.span("evaluation.object_size_cdf"):
            cdf = object_size_cdf(counts)
        want = iou_percent([e.predicted_moving for e in inputs], [e.gt_labels for e in inputs])
        check(abs(report.iou_conventional - want) < 1e-9 and len(cdf.counts) > 0,
              f"replica: evaluate iou {report.iou_conventional}, counted {want}")

    def separate_calls(self, tr):
        """What `tovp extract` would run on this window besides extraction:
        recon and its loss on scan 000006, and the 12 direction-index
        builds on the re-framed adjacent scans."""
        sim_scene = formats.read_scene(self.scene_path)
        scans = [simulate_scan_with_hits(sim_scene.scene, sim_scene.lidar, p, t)[0]
                 for p, t in zip(sim_scene.poses, sim_scene.times)]
        current = scans[scenes.C10_N]
        with tr.span("recon.sample_recon_points"):
            rset = sample_recon_points(current, OCC_PER_BEAM, FREE_PER_BEAM, SENSOR,
                                       seed=self.seed + scenes.C10_N)
        probs = np.full((len(rset), 3), 1.0 / 3.0)
        with tr.span("objectives.recon_loss"):
            recon_loss(rset.records["state"], probs, n_beams=len(rset) // PER_BEAM,
                       per_beam=PER_BEAM)
        cell = ExtractionConfig().cell_size(SENSOR)
        for j, scan in enumerate(scans):
            if j != scenes.C10_N:
                adj = scan.in_frame_of(current)
                with tr.span("extraction.build_direction_index"):
                    build_direction_index(adj, cell)
        return {}


# ---------------------------------------------------------------------------
# extract-c10-t1 / -t2: `tovp extract` on the criterion-10 window

class ExtractC10(Workload):
    commands = ("extract",)
    layers = {
        "formats.read_scans_s": "formats.read_scans",
        "extraction.extract_sequence_s": "extraction.extract_sequence",
        "recon.sample_recon_points_s": "recon.sample_recon_points",
        "formats.write_overlap_file_s": "formats.write_overlap_file",
        "formats.write_recon_file_s": "formats.write_recon_file",
        "extraction.build_direction_index_s": "extraction.build_direction_index",
        "formats.read_overlap_file_s": "formats.read_overlap_file",
    }

    def __init__(self, seed, work, threads):
        self.seed, self.work, self.threads = seed, work, threads
        self.scene_path = os.path.join(work, "scene.yaml")
        with open(self.scene_path, "w") as fh:
            fh.write(scenes.c10_scene_yaml(seed))
        self.sim = os.path.join(work, "sim")
        _, proc, _ = run_child(tovp_cmd("simulate", "--scene", self.scene_path,
                                        "--out", self.sim))
        require_exit0(proc, "tovp simulate (set-up)")
        self.sim_scene = formats.read_scene(self.scene_path)
        self.digest = None
        self.agreements = []
        self.counts = {}
        self.sampled = None
        # digests per seed, shared by the t1 and t2 runs in one checkout
        self.digest_file = os.path.join(ROOT, ".perfbench", f"extract-c10-{seed}.digests.json")

    def op(self, k, tr):
        d = os.path.join(self.work, f"op{k}")
        try:
            dt, proc, cpu = run_child(tovp_cmd(
                "extract", "--scans", f"{self.sim}/scans", "--poses", f"{self.sim}/poses.txt",
                "--out", d, "--threads", self.threads, "--seed", self.seed))
            require_exit0(proc, "tovp extract")
            names = sorted(os.listdir(d))
            want = sorted(["config.json", f"{scenes.C10_CURRENT}.tovp",
                           f"{scenes.C10_CURRENT}.trcn"])
            check(names == want, f"--out holds {names}")
            nbytes = sum(os.path.getsize(os.path.join(d, f)) for f in names)
            self.check_outputs(d, proc.stdout)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return dt, cpu, nbytes, {}

    def check_outputs(self, d, stdout):
        m = re.search(rf"^scan {scenes.C10_CURRENT}: (\d+) overlap points", stdout, re.M)
        check(m is not None, "extract printed no overlap count")
        oset, _ = formats.read_overlap_file(os.path.join(d, f"{scenes.C10_CURRENT}.tovp"))
        rec = oset.records
        check(len(rec) == int(m.group(1)),
              f".tovp holds {len(rec)} records, stdout says {m.group(1)}")
        digest = digest_files([os.path.join(d, f) for f in os.listdir(d)])
        if self.digest is None:
            self.digest = digest
        check(digest == self.digest, "output bytes differ between operations")
        if os.path.exists(self.digest_file):
            with open(self.digest_file) as fh:
                for name, other in json.load(fh).items():
                    check(other == digest, f"output bytes differ from {name} at this seed")
        n = scenes.C10_N
        poses = {off: (self.sim_scene.poses[n + off], self.sim_scene.times[n + off])
                 for off in range(-n, n + 1)}
        sub = OverlapSet(rec[::ORACLE_STRIDE], presorted=True)
        agreement = oracle_compare(sub, self.sim_scene.scene, poses, ORACLE_EPS_M,
                                   SENSOR).agreement
        self.agreements.append(agreement)
        check(agreement >= ORACLE_MIN, f"oracle agreement {agreement:.4f} < {ORACLE_MIN}")

    def load_window(self, tr):
        n = scenes.C10_N
        with tr.span("formats.read_scans"):
            poses = formats.read_poses(f"{self.sim}/poses.txt")
            scans = []
            for j in range(2 * n + 1):
                pts, inten = formats.read_scan_bin(f"{self.sim}/scans/{j:06d}.bin")
                scans.append(Scan(points=pts, time=j * 0.5, pose=poses[j], intensities=inten))
        return scans[n], scans[:n] + scans[n + 1:]

    def traced_op(self, k, tr):
        """`cmd_extract`'s calls into tovp, in its order, in this process.
        The output stays for ``after_op``."""
        d = os.path.join(self.work, f"rep{k}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        dt, cpu = timed(self._replica, d, tr)
        return dt, cpu, tree_bytes(d), {"dir": d}

    def after_op(self, k, info, tr):
        """Separate call: read the .tovp back, as the output checks do."""
        try:
            with tr.span("formats.read_overlap_file"):
                formats.read_overlap_file(f"{info['dir']}/x.tovp")
        finally:
            shutil.rmtree(info["dir"], ignore_errors=True)

    def _replica(self, d, tr):
        current, adjacents = self.load_window(tr)
        cfg = ExtractionConfig(rng_seed=self.seed)
        with tr.span("extraction.extract_sequence"):
            oset = extract_sequence(current, adjacents, cfg, SENSOR, threads=self.threads)
        with tr.span("recon.sample_recon_points"):
            rset = sample_recon_points(current, OCC_PER_BEAM, FREE_PER_BEAM, SENSOR,
                                       seed=self.seed + scenes.C10_N)
        with tr.span("formats.write_overlap_file"):
            formats.write_overlap_file(f"{d}/x.tovp", oset, SENSOR,
                                       formats.config_hash(cfg, SENSOR))
        with tr.span("formats.write_recon_file"):
            formats.write_recon_file(f"{d}/x.trcn", rset)
        rec = oset.records
        self.counts = record_counts(rec)
        self.sampled = rec[np.isin(rec["current_index"], self.sample_beams(len(current)))]

    @staticmethod
    def sample_beams(n_beams):
        return np.arange(0, n_beams, max(1, n_beams // 64))

    def separate_calls(self, tr):
        """Direction-index builds on the 12 re-framed adjacent scans, and
        the band query's useful share: for sampled current beams at offsets
        +-1 and +-6, the adjacent beams with a record over the candidates."""
        current, adjacents = self.load_window(NullTracer())
        cell = ExtractionConfig().cell_size(SENSOR)
        n = scenes.C10_N
        offsets = list(range(-n, 0)) + list(range(1, n + 1))
        framed, indices = {}, {}
        for off, adj in zip(offsets, adjacents):
            framed[off] = adj.in_frame_of(current)
            with tr.span("extraction.build_direction_index"):
                indices[off] = build_direction_index(framed[off], cell)
        if self.sampled is None:
            return {}
        useful = attempted = 0
        for off in (-n, -1, 1, n):
            mine = self.sampled[self.sampled["scan_offset"] == off]
            for b in self.sample_beams(len(current)):
                cands = candidate_pairs(beam_from_point(current, int(b)), indices[off],
                                        framed[off].sensor_origin)
                hit = set(mine["adjacent_index"][mine["current_index"] == b].tolist())
                attempted += len(cands)
                useful += len(hit.intersection(cands))
        return {"extraction.band_useful_ratio": useful / attempted if attempted else None}

    def finish(self, tr):
        out = dict(self.counts)
        if self.digest is not None:
            seen = {}
            if os.path.exists(self.digest_file):
                with open(self.digest_file) as fh:
                    seen = json.load(fh)
            seen[f"threads={self.threads}"] = self.digest
            with open(self.digest_file, "w") as fh:
                json.dump(seen, fh)
        if self.agreements:
            out["oracle_agreement"] = statistics.median(self.agreements)
        return out


def record_counts(rec):
    state = rec["state"]
    return {
        "extraction.records": len(rec),
        "extraction.records_free": int(np.sum(state == 0)),
        "extraction.records_occupied": int(np.sum(state == 1)),
        "extraction.records_unknown": int(np.sum(state == 2)),
        "extraction.scenario2_records": int(np.sum(rec["sample_rank"] > 0)),
    }


def make(workload, seed, work):
    if workload == "prep-64x2048":
        return Prep(seed, work)
    if workload == "cli-c10":
        return CliC10(seed, work)
    if workload in ("extract-c10-t1", "extract-c10-t2"):
        return ExtractC10(seed, work, int(workload[-1]))
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------

def record_failure(errors, exc):
    """Count a failed operation under the first line of its message."""
    key = str(exc) if isinstance(exc, CheckFailed) else first_line(exc)
    errors[key] = errors.get(key, 0) + 1


class SetupProbes:
    """Times, evenly spaced over the run, at which the worker pauses between
    operations while ``run.py`` measures one more set-up in a fresh worker
    process: the host's slow phases last from seconds to minutes, and
    set-ups all made at one time would all fall in one phase.  ``run.py``
    starts those processes itself, so that they do not count among this
    worker's children."""

    def __init__(self, seconds, count):
        self.due = [seconds * (i + 0.5) / count for i in range(count)]

    def run_due(self, elapsed):
        """Pause for the set-ups due by ``elapsed`` seconds of operations;
        returns the seconds paused."""
        t0 = time.perf_counter()
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            print("PROBE", flush=True)
            if not sys.stdin.readline():
                raise RuntimeError("run.py closed the set-up channel")
        return time.perf_counter() - t0


def untraced(w, seconds, probes):
    """Closed loop: the next operation starts when the previous one ends.
    Set-up probes pause the loop, and their time does not count."""
    times, cpus, errors = [], [], {}
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        start += probes.run_due(time.perf_counter() - start)
        attempted += 1
        try:
            dt, cpu = w.op(attempted - 1, NullTracer())[:2]
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            record_failure(errors, exc)
            continue
        times.append(dt)
        cpus.append(cpu)
    probes.run_due(math.inf)
    failed = attempted - len(times)
    try:
        info = w.finish(NullTracer())
    except CheckFailed as exc:
        # a run-level check (prep's evaluation) failing fails the run
        record_failure(errors, exc)
        failed, info = attempted, {}
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    return {"attempted": attempted, "failed": failed, "errors": errors, "op_wall_s": times,
            "op_cpu_s": cpus,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0, "info": info}


def traced(w, seconds, trace_path):
    """Per-layer metrics from spans.

    Each operation's calls run twice in this process, untraced and traced,
    alternating which goes first so that warming up counts against
    neither; the difference is the tracing overhead.
    """
    tr = Tracer()
    errors = {}
    plain, spanned, startups, ops, nbytes = [], [], [], [], []
    cpu = 0.0
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        k = attempted
        attempted += 1
        try:
            if k % 2:
                dt0 = w.traced_op(k, NullTracer())[0]
            tr.op = k
            try:
                dt1, c, b, info = w.traced_op(k, tr)
            finally:
                tr.op = None
            if not k % 2:
                dt0 = w.traced_op(k, NullTracer())[0]
            w.after_op(k, info, tr)
            if not w.in_process:
                startups.append(w.startup_s())
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            record_failure(errors, exc)
            continue
        plain.append(dt0)
        spanned.append(dt1)
        ops.append(k)
        nbytes.append(b)
        cpu += c
    extra = {}
    for step in (w.separate_calls, w.finish):
        try:
            extra.update(step(tr))
        except Exception as exc:  # noqa: BLE001 - reported with the result
            record_failure(errors, exc)
    tr.dump(trace_path)

    # a layer the operations call is reported per operation, one they do
    # not call per separate call
    layer = {}
    for metric, prefix in w.layers.items():
        in_ops = tr.per_op(prefix, ops)
        outside = tr.outside_ops(prefix)
        if ops and any(in_ops):
            layer[metric] = statistics.median(in_ops)
        elif outside:
            layer[metric] = statistics.median(outside)
    if ops:
        layer["tracing_overhead_s"] = statistics.median(b - a for a, b in zip(plain, spanned))
        # the time no layer span covers: glue in process, start-up for commands
        layer["cli.unspanned_s"] = statistics.median(
            startups or [dt - tr.covered(op) for dt, op in zip(spanned, ops)])
        layer["cpu_util"] = cpu / sum(spanned)
        layer["formats.bytes_written"] = statistics.median(nbytes)
    layer.update(extra)
    return {"attempted": attempted, "failed": attempted - len(ops), "errors": errors,
            "layer": layer}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.work, exist_ok=True)
    w = make(args.workload, args.seed, args.work)
    # the CPU seconds set-up took, interpreter start and imports included
    print(f"READY {cpu_seconds(resource.RUSAGE_SELF)!r}", flush=True)
    if args.setup_only:
        return
    if args.trace:
        res = traced(w, args.seconds, f"{args.work}.trace.json")
    else:
        res = untraced(w, args.seconds, SetupProbes(args.seconds, SETUP_PROBES))
    res["numpy"] = np.__version__
    print("RESULT " + json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
