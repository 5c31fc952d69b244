"""Command line interface.

Subcommands cover the full data path: simulate a scene, extract overlap
and reconstruction sets, label scans from tracked boxes, score predictions,
and sanity-check loss values.  Exit codes: 0 success, 1 usage, 2 bad data
(any package error, or a path that cannot be read or written: missing, of
the wrong kind, not permitted, on a full or read-only disk, or an existing
file named as an output directory), 3 internal failure.  Configuration
resolves as flags > config file > defaults, and every command echoes the
values it ran with.  Every command that reads a scan directory reads it through
:func:`_sequence`: scans in name order, scan k taken k scan periods after
the first, and line k of ``--poses`` its pose.

Each command imports the modules it runs at the top of its ``cmd_*``
function, and PyYAML only where a ``--config`` file is read, so a process
loads and compiles only what its command executes.
"""

import argparse
import os
import pathlib
import sys

import numpy as np

from . import formats
from .errors import CountMismatch, DataError, SchemaViolation, TovpError
from .labeling import (
    TIME_TOL, MotionClass, ThresholdTable, TrackedBox, box_motion_class, keyframes_at, label_points,
)
from .sensor_model import DEFAULT_BOUNDS, SEED_LIMIT, Scan, SensorConfig

# every config key: its default and the kind of value it takes, as
# formats.check_kind reads it; null is taken where the default is null
_CONFIG = {
    "n_adjacent": (6, "an integer"),
    "scan_period_s": (0.5, "a finite number > 0"),
    "bounds": (DEFAULT_BOUNDS, "6 finite numbers"),
    "divergence_angle_rad": (0.003, "a finite number"),
    "lambda_occ": (0.9, "a finite number"),
    "decay_rate_per_meter": (1.0, "a finite number"),
    "seed": (0, "an integer"),
    "threads": (1, "an integer >= 1"),
    "occupied_per_beam": (5, "an integer >= 0"),
    "free_per_beam": (25, "an integer >= 0"),
    "max_tail_beyond_hit_m": (None, "a finite number"),
    "class_weights": ((1.0, 5.0, 1.0), "3 finite numbers"),
    "thresholds": (None, "a mapping of category to 2 finite numbers"),
    "time_tol": (TIME_TOL, "a finite number >= 0"),
}
DEFAULTS = {key: default for key, (default, _) in _CONFIG.items()}


def _parse_bounds(text: str):
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            f"bounds need 6 comma-separated numbers, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bounds not numeric: {text!r}") from None


# the config flags: the key each one overrides (None for --config, the file)
# and its argparse keywords; each command takes only the flags it reads
_FLAGS = {
    "--config": (None, dict(help="YAML config file")),
    "--seed": ("seed", dict(type=int, help="base random seed")),
    "--threads": ("threads", dict(type=int, help="worker threads")),
    "--n": ("n_adjacent", dict(type=int, help="adjacent scans per side")),
    "--period": ("scan_period_s", dict(type=float, help="scan period in seconds")),
    "--bounds": ("bounds", dict(type=_parse_bounds, help="crop box x0,x1,y0,y1,z0,z1")),
    "--divergence": ("divergence_angle_rad", dict(type=float, help="beam divergence angle in radians")),
    "--lambda-occ": ("lambda_occ", dict(type=float, help="occupied-band confidence threshold")),
}


def resolve_config(args) -> dict:
    """Merge defaults, the optional config file, and command line flags."""
    merged = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        loaded = formats.read_yaml(path) or {}
        formats.check_kind(loaded, "a mapping", f"{path}: config")
        formats.check_keys(loaded, DEFAULTS, f"{path}: ")
        merged.update(loaded)
    for flag, (key, _) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if key and value is not None:
            merged[key] = value
    for key, (default, kind) in _CONFIG.items():
        if not (merged[key] is None and default is None):
            formats.check_kind(merged[key], kind, f"config key {key}")
    _check_seeds(merged["seed"])
    return merged


def _check_seeds(seed, count: int = 1) -> None:
    """Reject a base seed whose per-scan seeds seed + i, i < count, leave
    [0, 2**63), the range where every seed has a stream of its own."""
    if not isinstance(seed, int) or seed < 0 or seed + count > SEED_LIMIT:
        raise DataError(f"seed {seed!r}: the per-scan seeds seed + i for "
                        f"i < {count} must be integers in [0, 2**63)")


def _built(cls, *args, **kwargs):
    """``cls(*args, **kwargs)`` of config values; a value it rejects is a
    SchemaViolation."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise SchemaViolation(f"config: {e}") from None


def _sensor_from(cfg: dict) -> SensorConfig:
    return _built(
        SensorConfig,
        divergence_angle_rad=cfg["divergence_angle_rad"],
        occupied_confidence_threshold=cfg["lambda_occ"],
        decay_rate_per_meter=cfg["decay_rate_per_meter"],
    )


def _thresholds_from(cfg: dict) -> ThresholdTable:
    if cfg["thresholds"] is None:
        return ThresholdTable()
    return _built(ThresholdTable, {c: tuple(map(float, pair)) for c, pair in cfg["thresholds"].items()})


def _echo(cfg: dict, keys) -> str:
    return " ".join(f"{k}={cfg[k]}" for k in keys)


def _sequence(directory: str, poses_path, period: float) -> list:
    """(base name, path, pose or None, time) of each ``.bin`` scan in
    ``directory``, in name order: scan k is taken k periods after the
    first and, when a poses file is given, has its line k as its pose."""
    names = sorted(f for f in os.listdir(directory) if f.endswith(".bin"))
    if not names:
        raise DataError(f"no .bin scans in {directory}")
    if not np.isfinite((len(names) - 1) * float(period)):
        raise DataError(f"{len(names)} scans {period} s apart: the last one's time is not finite")
    poses = formats.read_poses(poses_path) if poses_path else [None] * len(names)
    if len(poses) != len(names):
        raise CountMismatch(f"{len(names)} scans but {len(poses)} poses")
    return [(os.path.splitext(name)[0], os.path.join(directory, name), pose, k * period)
            for k, (name, pose) in enumerate(zip(names, poses))]


def _world_points(sequence):
    """(base name, time, points) of each scan of a :func:`_sequence`, the
    points mapped to the box frame when the scan has a pose."""
    for base, path, pose, time in sequence:
        points, _ = formats.read_scan_bin(path)
        if pose is not None and len(points):
            points = pose.apply(points)
        yield base, time, points


class _AtomicOutputs:
    """Writes go to tmp names, renamed on success.  Used as a context
    manager: an exception in the ``with`` block removes every file written
    in it, so failures leave nothing."""

    def __init__(self):
        self.written = []  # renamed outputs, then the tmp name of a write under way

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        for path in self.written if kind is not None else ():
            try:
                os.remove(path)
            except OSError:
                pass

    def write(self, path, writer):
        """``writer(tmp)``, then the rename; returns what the writer does.
        An OSError on the tmp name names ``path``, the name asked for."""
        tmp = path + ".tmp"
        self.written.append(tmp)
        try:
            out = writer(tmp)
            os.replace(tmp, path)
        except OSError as e:
            if e.filename == tmp:
                e.filename = path
            raise
        self.written[-1] = path
        return out


def cmd_extract(args) -> int:
    from .extraction import ExtractionConfig, extract_sequence_blocks
    from .recon import sample_recon_points

    cfg = resolve_config(args)
    sensor = _sensor_from(cfg)
    extraction = _built(
        ExtractionConfig,
        n_adjacent=cfg["n_adjacent"],
        scan_period_s=cfg["scan_period_s"],
        bounds=tuple(cfg["bounds"]),
        max_tail_beyond_hit_m=cfg["max_tail_beyond_hit_m"],
    )
    n = extraction.n_adjacent
    digest = formats.config_hash(extraction, sensor)

    sequence = _sequence(args.scans, args.poses, cfg["scan_period_s"])
    if len(sequence) < 2 * n + 1:
        raise DataError(f"need at least {2 * n + 1} scans for a window of "
                        f"n={n}, found {len(sequence)}")
    _check_seeds(cfg["seed"], len(sequence))

    def load(k) -> Scan:
        _, path, pose, time = sequence[k]
        points, intensities = formats.read_scan_bin(path)
        return Scan(points=points, time=time, pose=pose, intensities=intensities)

    print(f"config: {_echo(cfg, ('n_adjacent', 'scan_period_s', 'bounds', 'divergence_angle_rad', 'lambda_occ', 'seed', 'threads'))}")
    print(f"config_hash: {digest.hex()}")

    os.makedirs(args.out, exist_ok=True)
    # thread count steers execution only; keeping it out of the echo makes
    # every output byte independent of it
    echo = {k: v for k, v in cfg.items() if k != "threads"}
    with _AtomicOutputs() as outputs:
        outputs.write(os.path.join(args.out, "config.json"),
                      lambda p: formats.write_report(p, echo))
        for i in range(n, len(sequence) - n):
            current = load(i)
            adjacents = [load(j) for j in range(i - n, i + n + 1) if j != i]
            # the records go to disk block by block as they are extracted
            blocks = extract_sequence_blocks(current, adjacents, extraction, sensor,
                                             threads=cfg["threads"])
            base = sequence[i][0]
            count = outputs.write(os.path.join(args.out, base + ".tovp"),
                                  lambda p: formats.write_overlap_file(p, blocks, sensor, digest))
            rset = sample_recon_points(current, cfg["occupied_per_beam"],
                                       cfg["free_per_beam"], sensor,
                                       seed=cfg["seed"] + i)
            outputs.write(os.path.join(args.out, base + ".trcn"),
                          lambda p: formats.write_recon_file(p, rset))
            print(f"scan {base}: {count} overlap points, "
                  f"{len(rset)} recon samples")
    print(f"wrote {len(outputs.written)} files to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    from .simulator import simulate_scan_with_hits

    cfg = resolve_config(args)
    sim = formats.read_scene(args.scene)
    _check_seeds(cfg["seed"], len(sim.times))
    scans_dir = os.path.join(args.out, "scans")
    labels_dir = os.path.join(args.out, "labels")
    os.makedirs(scans_dir, exist_ok=True)
    os.makedirs(labels_dir, exist_ok=True)
    print(f"config: seed={cfg['seed']} scans={len(sim.times)} "
          f"beams={len(sim.lidar.elevation_angles_rad)}x{sim.lidar.n_azimuths}")

    boxes = sim.scene.all_boxes()
    # whether each hit box moves, then False for hit_box -1, a ground return
    moving = np.array([box.is_moving for box in boxes] + [False], dtype=bool)
    with _AtomicOutputs() as outputs:
        for i, (pose, time) in enumerate(zip(sim.poses, sim.times)):
            scan, hit_box = simulate_scan_with_hits(
                sim.scene, sim.lidar, pose, time, noise_seed=cfg["seed"] + i)
            labels = np.where(moving[hit_box], np.uint8(MotionClass.MOVING),
                              np.uint8(MotionClass.STATIC))
            outputs.write(os.path.join(scans_dir, f"{i:06d}.bin"),
                          lambda p: formats.write_scan_bin(p, scan.points,
                                                           scan.intensities))
            outputs.write(os.path.join(labels_dir, f"{i:06d}.label"),
                          lambda p: formats.write_labels(p, labels))
            print(f"scan {i:06d}: {len(scan)} returns")
        outputs.write(os.path.join(args.out, "poses.txt"),
                      lambda p: formats.write_poses(p, sim.poses))
        tracks = _tracks_from_scene(boxes, sim.times)
        outputs.write(os.path.join(args.out, "boxes.jsonl"),
                      lambda p: formats.write_boxes(p, tracks))
        outputs.write(os.path.join(args.out, "meta.json"),
                      lambda p: formats.write_report(p, {
                          "scan_period_s": sim.period_s,
                          "n_scans": len(sim.times),
                          "seed": cfg["seed"],
                      }))
    print(f"wrote {len(outputs.written)} files to {args.out}")
    return 0


def _tracks_from_scene(boxes, times):
    tracks = []
    for b_idx, box in enumerate(boxes):
        centers = np.stack([box.center_at(t) for t in times])
        tracks.append(TrackedBox(
            instance_id=box.instance_id or f"box{b_idx}",
            category=box.category,
            centers=centers,
            sizes=np.tile(np.asarray(box.size, dtype=float), (len(times), 1)),
            yaws=np.full(len(times), box.yaw),
            timestamps=np.asarray(times, dtype=float),
        ))
    return tracks


def cmd_label(args) -> int:
    formats.check_kind(args.margin, "a finite number >= 0", "--margin")
    cfg = resolve_config(args)
    table = _thresholds_from(cfg)
    tracks = formats.read_boxes(args.boxes)
    sequence = _sequence(args.scans, args.poses, cfg["scan_period_s"])
    print(f"config: {_echo(cfg, ('scan_period_s', 'time_tol'))} "
          f"margin={args.margin} tracks={len(tracks)}")

    os.makedirs(args.out, exist_ok=True)
    with _AtomicOutputs() as outputs:
        for base, time, points in _world_points(sequence):
            labels = label_points(Scan(points=points, time=time), tracks, table,
                                  time_tol=cfg["time_tol"], margin=args.margin)
            outputs.write(os.path.join(args.out, base + ".label"),
                          lambda p: formats.write_labels(p, labels))
    print(f"wrote {len(outputs.written)} label files to {args.out}")
    return 0


def _read_label_file(directory, base, count, top, meaning):
    """The ``count`` bytes of scan ``base``'s ``.label`` file in
    ``directory``; a byte above ``top`` is a DataError naming the file."""
    path = os.path.join(directory, base + ".label")
    values = formats.read_labels(path, expected_count=count)
    if np.any(values > top):
        raise DataError(f"{path}: {meaning}, found {int(values.max())}")
    return values


def cmd_eval(args) -> int:
    from dataclasses import asdict

    from .evaluation import EvalBox, ScanEvalInput, evaluate

    cfg = resolve_config(args)
    table = _thresholds_from(cfg)
    tracks = formats.read_boxes(args.boxes)
    sequence = _sequence(args.scans, args.poses, cfg["scan_period_s"])

    def inputs():
        """One ScanEvalInput per scan, made as ``evaluate`` takes it."""
        for base, time, points in _world_points(sequence):
            gt = _read_label_file(args.labels, base, len(points), MotionClass.UNKNOWN_MOTION,
                                  "labels must be 0 (static), 1 (moving) or 2 (unknown)")
            pred = _read_label_file(args.predictions, base, len(points), 1,
                                    "predictions must be 0 (static) or 1 (moving)")
            ego = None
            if args.ego_masks:
                ego = _read_label_file(args.ego_masks, base, len(points), 1,
                                       "ego masks must be 0 or 1").astype(bool)
            yield ScanEvalInput(
                points=points, predicted_moving=pred.astype(bool), gt_labels=gt, ego_mask=ego,
                moving_boxes=tuple(
                    EvalBox(instance_id=track.instance_id, center=track.centers[k],
                            size=track.sizes[k], yaw=float(track.yaws[k]))
                    for track, k in keyframes_at(tracks, time, cfg["time_tol"])
                    if box_motion_class(track, k, table) == MotionClass.MOVING))

    report = evaluate(inputs())
    print(f"config: {_echo(cfg, ('scan_period_s', 'time_tol'))} "
          f"scans={len(sequence)}")
    print(f"recall_obj: {report.recall_obj:.2f}")
    print(f"iou_excluding_ego: {report.iou_excluding_ego:.2f}")
    print(f"iou_conventional: {report.iou_conventional:.2f}")
    for flag in report.flags:
        print(f"flag: {flag}")
    if args.out:
        doc = asdict(report)
        doc["config"] = cfg
        with _AtomicOutputs() as outputs:
            outputs.write(args.out, lambda p: formats.write_report(p, doc))
        print(f"report written to {args.out}")
    return 0


def cmd_stats(args) -> int:
    from ._boxes import points_in_box
    from .evaluation import object_size_cdf

    scene = [flag for flag in ("--scans", "--boxes", "--poses") if getattr(args, flag[2:])]
    if args.counts and scene:
        raise DataError(f"stats takes --counts or {' with '.join(scene)}, not both")
    cfg = resolve_config(args)
    if args.counts:
        with open(args.counts) as fh:
            try:
                counts = [int(line) for line in fh if line.strip()]
            except ValueError as e:
                raise DataError(f"{args.counts}: {e}") from None
    else:
        if not (args.scans and args.boxes):
            raise DataError("stats needs either --counts or --scans with --boxes")
        tracks = formats.read_boxes(args.boxes)
        counts = []
        for _, time, points in _world_points(_sequence(args.scans, args.poses,
                                                       cfg["scan_period_s"])):
            for track, k in keyframes_at(tracks, time, cfg["time_tol"]):
                inside = int(np.sum(points_in_box(
                    points, track.centers[k], track.sizes[k], track.yaws[k])))
                if inside > 0:
                    counts.append(inside)
    if not counts:
        raise DataError("no objects with points to summarize")
    try:
        cdf = object_size_cdf(counts)
    except ValueError as e:  # only --counts can hold negative or all-zero counts
        raise DataError(f"{args.counts}: {e}") from None
    try:
        share = cdf.point_share(args.percentile)
    except ValueError as e:
        raise DataError(f"--percentile {args.percentile:g}: {e}") from None
    print(f"objects: {len(cdf.counts)}")
    print(f"points: {int(cdf.counts.sum())}")
    print("objects%  points%")
    for decile in range(10, 101, 10):
        print(f"{decile:7d}  {cdf.point_share(decile):7.3f}")
    print(f"{args.percentile:g}% objects -> {share:g}% points")
    if args.csv:
        curve = "object_points,object_fraction,point_fraction\n" + "".join(
            f"{int(c)},{of:.9f},{pf:.9f}\n"
            for c, of, pf in zip(cdf.counts, cdf.object_fraction, cdf.point_fraction))
        with _AtomicOutputs() as outputs:
            outputs.write(args.csv, lambda p: pathlib.Path(p).write_text(curve))
        print(f"wrote curve to {args.csv}")
    return 0


def cmd_loss_check(args) -> int:
    from .objectives import ClassWeights, streamed_overlap_loss, streamed_recon_loss, total_loss

    cfg = resolve_config(args)
    weights = _built(ClassWeights, *cfg["class_weights"])
    if args.recon and not args.recon_probs:
        raise DataError("--recon needs --recon-probs")
    if args.recon_probs and not args.recon:
        raise DataError("--recon-probs needs --recon")
    # each set and its .prob rows are read in step, one leaf of the sum at a time
    with formats.overlap_blocks(args.overlaps) as records, \
            formats.probability_blocks(args.probs, expected_count=records.count) as probs:
        value = streamed_overlap_loss(records, probs, weights)
    print(f"config: class_weights={cfg['class_weights']} "
          f"config_hash={records.info.config_hash.hex()}")
    print(f"overlap_loss: {value:.9f}")
    if args.recon:
        with formats.recon_blocks(args.recon) as records, \
                formats.probability_blocks(args.recon_probs, expected_count=records.count) as probs:
            rvalue = streamed_recon_loss(records, probs, weights)
        print(f"recon_loss: {rvalue:.9f}")
        print(f"total_loss: {total_loss(value, rvalue):.9f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tovp",
        description="Temporal overlap extraction and occupancy supervision.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag][1])
        p.set_defaults(func=func)
        return p

    p = command("extract", cmd_extract, "extract overlap and recon sets from a scan dir", *_FLAGS)
    p.add_argument("--scans", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)

    p = command("simulate", cmd_simulate, "render a scene file into scans, poses, labels",
                "--config", "--seed")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)

    p = command("label", cmd_label, "label scan points from tracked boxes", "--config", "--period")
    p.add_argument("--scans", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--poses", help="map sensor-frame scans into the box frame")
    p.add_argument("--margin", type=float, default=0.0,
                   help="grow boxes by this much (>= 0) on every face [m]")

    p = command("eval", cmd_eval, "score moving-object predictions", "--config", "--period")
    p.add_argument("--scans", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--poses", help="map sensor-frame scans into the box frame")
    p.add_argument("--ego-masks", dest="ego_masks")
    p.add_argument("--out", help="write the full JSON report here")

    p = command("stats", cmd_stats, "object size distribution", "--config", "--period")
    p.add_argument("--counts", help="text file, one point count per line")
    p.add_argument("--scans")
    p.add_argument("--boxes")
    p.add_argument("--poses", help="map sensor-frame scans into the box frame")
    p.add_argument("--percentile", type=float, default=75.0)
    p.add_argument("--csv", help="write the full per-object curve here")

    p = command("loss-check", cmd_loss_check, "recompute reference losses for stored sets", "--config")
    p.add_argument("--overlaps", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--recon")
    p.add_argument("--recon-probs", dest="recon_probs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except TovpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        if isinstance(e, OSError) and e.filename is not None:
            # a path that cannot be read or written, on a full or read-only
            # disk too, is bad data or a bad place, not a fault of the program
            print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
            return 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
