"""End-to-end command line behavior: exit codes, files, determinism."""

import json
import os

import numpy as np
import pytest

from tovp.cli import DEFAULTS, build_parser, main, resolve_config
from tovp.extraction import RECORD_DTYPE, OverlapSet
from tovp.formats import (
    _OVERLAP_HEADER,
    read_boxes,
    read_labels,
    read_overlap_file,
    read_recon_file,
    read_scan_bin,
    write_overlap_file,
    write_probabilities,
    write_recon_file,
    write_scan_bin,
)
from tovp.recon import RECON_DTYPE, ReconSet
from tovp.sensor_model import SensorConfig


def write_scene(path, count=7, *, box_speed=1.5, sensor_speed=2.0,
                azimuth_count=32, channels=4):
    path.write_text(f"""
ground_plane: true
boxes:
  - center: [12.0, 0.0, 1.0]
    size: [4.0, 2.0, 1.8]
    category: VEHICLE
    instance_id: parked
  - center: [8.0, -6.0, 1.0]
    size: [4.0, 2.0, 1.8]
    velocity: [{box_speed}, 0.0, 0.0]
    category: VEHICLE
    instance_id: mover
lidar:
  elevations_rad: {{min: -0.35, max: 0.03, count: {channels}}}
  azimuth_count: {azimuth_count}
  max_range_m: 120.0
trajectory:
  count: {count}
  period_s: 0.5
  start: [0.0, 0.0, 1.7]
  velocity: [{sensor_speed}, 0.0, 0.0]
""")


def simulate(tmp_path, name="sim", **kw):
    scene = tmp_path / "scene.yaml"
    write_scene(scene, **kw)
    out = tmp_path / name
    assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 0
    return out


def run_extract(sim_dir, out_dir, *extra):
    return main(["extract", "--scans", str(sim_dir / "scans"),
                 "--poses", str(sim_dir / "poses.txt"),
                 "--out", str(out_dir), *extra])


# the arguments each command requires, and the config flags it takes
REQUIRED = {
    "extract": ["--scans", "s", "--poses", "p", "--out", "o"],
    "simulate": ["--scene", "s", "--out", "o"],
    "label": ["--scans", "s", "--boxes", "b", "--out", "o"],
    "eval": ["--scans", "s", "--labels", "l", "--predictions", "p", "--boxes", "b"],
    "stats": [],
    "loss-check": ["--overlaps", "o", "--probs", "p"],
}
# flag -> (text on the command line, config key it sets, value it sets)
FLAG_VALUES = {
    "--config": ("c.yaml", None, None),
    "--seed": ("7", "seed", 7),
    "--threads": ("3", "threads", 3),
    "--n": ("2", "n_adjacent", 2),
    "--period": ("0.25", "scan_period_s", 0.25),
    "--bounds": ("0,1,0,2,0,3", "bounds", (0.0, 1.0, 0.0, 2.0, 0.0, 3.0)),
    "--divergence": ("0.004", "divergence_angle_rad", 0.004),
    "--lambda-occ": ("0.8", "lambda_occ", 0.8),
}
KEPT = {
    "extract": set(FLAG_VALUES),
    "simulate": {"--config", "--seed"},
    "label": {"--config", "--period"},
    "eval": {"--config", "--period"},
    "stats": {"--config", "--period"},
    "loss-check": {"--config"},
}
KEPT_FLAGS = sorted((c, f) for c in KEPT for f in KEPT[c])
REMOVED_FLAGS = sorted((c, f) for c in KEPT for f in set(FLAG_VALUES) - KEPT[c])
assert len(KEPT_FLAGS) == 17 and len(REMOVED_FLAGS) == 31
MISSING = "No such file or directory"


class TestUsageAndExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["extract", "--scans", "x"]) == 1

    def test_bad_bounds_value(self, capsys):
        assert main(["extract", "--scans", "x", "--poses", "y", "--out", "z",
                     "--bounds", "1,2,3"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["extract", "--help"]) == 0

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_flags_a_command_does_not_read_are_usage_errors(self, command, flag, capsys):
        assert main([command, *REQUIRED[command], flag, FLAG_VALUES[flag][0]]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", KEPT_FLAGS)
    def test_kept_flags_parse_and_set_their_key(self, command, flag):
        text, key, value = FLAG_VALUES[flag]
        args = build_parser().parse_args([command, *REQUIRED[command], flag, text])
        assert args.command == command
        if key is not None:
            assert value != DEFAULTS[key]
            assert resolve_config(args)[key] == value

    def test_data_error_is_2(self, tmp_path, capsys):
        (tmp_path / "scans").mkdir()
        code = main(["extract", "--scans", str(tmp_path / "scans"),
                     "--poses", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    # an input path that is missing or of the wrong kind, among readable
    # ones: (command line, the path it fails on, the reason)
    @pytest.mark.parametrize("argv,bad,reason", [
        ("label --scans {sim}/scans --boxes {sim}/boxes.jsonl --out {out} --poses {nope}", "{nope}", MISSING),
        ("label --scans {sim}/scans --boxes {nope} --out {out}", "{nope}", MISSING),
        ("label --config {nope} --scans {sim}/scans --boxes {sim}/boxes.jsonl --out {out}", "{nope}", MISSING),
        ("eval --scans {sim}/scans --labels {nope} --predictions {sim}/labels --boxes {sim}/boxes.jsonl",
         "{nope}/000000.label", MISSING),
        ("stats --counts {nope}", "{nope}", MISSING),
        ("stats --counts {sim}", "{sim}", "Is a directory"),
        ("loss-check --overlaps {nope} --probs {nope}", "{nope}", MISSING),
        ("simulate --scene {nope} --out {out}", "{nope}", MISSING),
        ("extract --scans {sim}/scans --poses {nope} --out {out}", "{nope}", MISSING),
        ("extract --scans {nope} --poses {sim}/poses.txt --out {out}", "{nope}", MISSING),
        ("extract --scans {sim}/poses.txt --poses {sim}/poses.txt --out {out}", "{sim}/poses.txt", "Not a directory"),
    ], ids=["label-poses", "label-boxes", "label-config", "eval-labels", "stats-counts", "stats-counts-dir",
            "loss-check-overlaps", "simulate-scene", "extract-poses", "extract-scans", "extract-scans-file"])
    def test_unreadable_input_path_is_2(self, tmp_path, capsys, argv, bad, reason):
        paths = {"sim": simulate(tmp_path, count=3), "out": tmp_path / "out", "nope": tmp_path / "nope"}
        capsys.readouterr()
        assert main(argv.format(**paths).split()) == 2
        assert capsys.readouterr().err == f"error: {bad.format(**paths)}: {reason}\n"
        assert not any(paths["out"].rglob("*"))

    @pytest.mark.parametrize("argv", [
        "label --scans {sim}/scans --boxes {sim}/boxes.jsonl --poses {sim}/poses.txt --out {out}",
        "extract --n 1 --scans {sim}/scans --poses {sim}/poses.txt --out {out}",
    ], ids=["label", "extract"])
    def test_out_naming_a_file_is_2(self, tmp_path, capsys, argv):
        sim = simulate(tmp_path, count=3)
        out = tmp_path / "scene.yaml"  # the scene the scans were simulated from
        scene = out.read_bytes()
        capsys.readouterr()
        assert main(argv.format(sim=sim, out=out).split()) == 2
        assert capsys.readouterr().err == f"error: {out}: File exists\n"
        assert out.read_bytes() == scene


    @pytest.mark.parametrize("argv", [
        "label --period 1e308 --scans {sim}/scans --boxes {sim}/boxes.jsonl --out {out}",
        "extract --period 1e308 --n 1 --scans {sim}/scans --poses {sim}/poses.txt --out {out}",
        "eval --period 1e308 --scans {sim}/scans --labels {sim}/labels --predictions {sim}/labels "
        "--boxes {sim}/boxes.jsonl",
    ], ids=["label", "extract", "eval"])
    def test_scan_times_past_float64_are_2(self, tmp_path, capsys, argv):
        # scan 2 is taken at 2e308 s, past float64: extract once exited 3
        sim = simulate(tmp_path, count=3)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv.format(sim=sim, out=out).split()) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: 3 scans 1e+308 s apart: the last one's time is not finite\n"
        assert captured.out == "" and not out.exists()


class TestBadValuesAreSchemaViolations:
    """A config or scene value of the wrong kind or out of range exits 2
    with an error that names its key, before any output is written."""

    @pytest.mark.parametrize("config,flags,key", [
        ("divergence_angle_rad: 0.5\n", [], "divergence_angle_rad"),
        ("", ["--divergence", "0.5"], "divergence_angle_rad"),
        ("n_adjacent: six\n", [], "n_adjacent"),
        ("n_adjacent: 0\n", [], "n_adjacent"),
        ("threads: two\n", [], "threads"),
        ("bounds: [1, 2, 3]\n", [], "bounds"),
        ("max_tail_beyond_hit_m: far\n", [], "max_tail_beyond_hit_m"),
        ("occupied_per_beam: true\n", [], "occupied_per_beam"),
        ("occupied_per_beam: -1\n", [], "occupied_per_beam"),
        ("free_per_beam: -25\n", [], "free_per_beam"),
        ("threads: 0\n", [], "threads"),
        ("", ["--threads", "-1"], "threads"),
        ("scan_period_s: 0\n", [], "scan_period_s"),
        ("", ["--period", "-0.5"], "scan_period_s"),
        ("bounds: [0, .nan, 0, 1, 0, 1]\n", [], "bounds"),
        ("", ["--bounds", "0,nan,0,1,0,1"], "bounds"),
        ("max_tail_beyond_hit_m: .nan\n", [], "max_tail_beyond_hit_m"),
        ("decay_rate_per_meter: .nan\n", [], "decay_rate_per_meter"),
        # every number must be finite: inf once reached extraction and
        # exited 3, and went into config.json as -Infinity, which is not JSON
        ("", ["--period", "inf"], "scan_period_s"),
        pytest.param("scan_period_s: 1" + "0" * 400 + "\n", [], "scan_period_s", id="period-past-float64"),
        ("bounds: [-.inf, .inf, -70, 70, -4.5, 4.5]\n", [], "bounds"),
        ("", ["--bounds", "0,inf,0,1,0,1"], "bounds"),
        ("max_tail_beyond_hit_m: .inf\n", [], "max_tail_beyond_hit_m"),
        ("time_tol: .inf\n", [], "time_tol"),
    ])
    def test_extract_config(self, tmp_path, capsys, config, flags, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main(["extract", "--scans", str(tmp_path / "s"), "--poses", str(tmp_path / "p"),
                     "--out", str(out), "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert f"config key {key} must be" in err or f"config: {key} " in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command,config,key", [
        ("label", "time_tol: 1e-3\n", "time_tol"),  # YAML reads 1e-3 as a string
        ("label", "thresholds: {VEHICLE: [1.0]}\n", "thresholds"),
        ("label", "thresholds: {VEHICLE: [2.0, 1.0]}\n", "VEHICLE"),
        ("loss-check", "class_weights: [1.0, 5.0]\n", "class_weights"),
        ("label", "scan_period_s: 0\n", "scan_period_s"),
        ("label", "time_tol: -1\n", "time_tol"),
        ("label", "thresholds: {HUMAN: [0.4, 0.6], CYCLE: [0.4, 1.0], VEHICLE: [0.5, 1.0], TREE: [1, 2]}\n", "TREE"),
        ("label", "thresholds: {HUMAN: [0.4, 0.6], CYCLE: [0.4, 1.0]}\n", "VEHICLE"),
        ("label", "scan_period_s: .inf\n", "scan_period_s"),
        ("label", "time_tol: .inf\n", "time_tol"),
        ("label", "thresholds: {HUMAN: [0.4, .inf], CYCLE: [0.4, 1.0], VEHICLE: [0.5, 1.0]}\n",
         "thresholds"),
        ("loss-check", "class_weights: [1.0, .inf, 1.0]\n", "class_weights"),
    ])
    def test_other_commands(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        sim = simulate(tmp_path, count=1)
        argv = {"label": ["--scans", str(sim / "scans"), "--boxes", str(sim / "boxes.jsonl"),
                          "--out", str(tmp_path / "out")],
                "loss-check": ["--overlaps", str(tmp_path / "x.tovp"), "--probs", str(tmp_path / "x.prob")]}
        assert main([command, *argv[command], "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key} must be" in err or f"config: {key}: " in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", ["[1, 2]\n", "7\n"])
    def test_config_not_a_mapping(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        assert main(["stats", "--counts", str(tmp_path / "nope"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: config must be a mapping\n"

    @pytest.mark.parametrize("old,new,key", [
        ("azimuth_count: 32", "azimuth_count: lots", "lidar.azimuth_count: expected int"),
        ("count: 4}", "count: many}", "lidar.elevations_rad.count: expected int"),
        ("count: 4}", "count: -2}", "lidar.elevations_rad.count must be >= 1"),
        ("{min: -0.35, max: 0.03, count: 4}", "0.1", "lidar.elevations_rad: expected a list"),
        ("max_range_m: 120.0", "max_range_m: [1]", "lidar.max_range_m: expected float"),
        ("period_s: 0.5", "period_s: half", "trajectory.period_s: expected float"),
        ("instance_id: parked", "instance_id: parked\n    yaw: left", "boxes[0].yaw: expected float"),
        ("lidar:\n", "lidar: 5\nunread:\n", "lidar: expected a mapping"),
        ("trajectory:\n", "trajectory: [1]\nunread:\n", "trajectory: expected a mapping"),
    ])
    def test_scene(self, tmp_path, capsys, old, new, key):
        scene = tmp_path / "scene.yaml"
        write_scene(scene)
        text = scene.read_text()
        assert old in text
        scene.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        out1 = simulate(tmp_path, "sim1")
        out2 = simulate(tmp_path, "sim2")
        scans = sorted(os.listdir(out1 / "scans"))
        assert scans == [f"{i:06d}.bin" for i in range(7)]
        assert sorted(os.listdir(out1 / "labels")) == \
            [f"{i:06d}.label" for i in range(7)]
        assert (out1 / "poses.txt").exists()
        assert (out1 / "boxes.jsonl").exists()
        meta = json.loads((out1 / "meta.json").read_text())
        assert meta["scan_period_s"] == 0.5
        for name in scans:
            a = (out1 / "scans" / name).read_bytes()
            b = (out2 / "scans" / name).read_bytes()
            assert a == b

    def test_moving_points_labeled(self, tmp_path):
        out = simulate(tmp_path)
        hits = 0
        for i in range(7):
            labels = read_labels(out / "labels" / f"{i:06d}.label")
            pts, _ = read_scan_bin(out / "scans" / f"{i:06d}.bin")
            assert len(labels) == len(pts)
            hits += int(np.sum(labels == 1))
        assert hits > 0

    def test_boxes_track_the_mover(self, tmp_path):
        out = simulate(tmp_path)
        tracks = {b.instance_id: b for b in read_boxes(out / "boxes.jsonl")}
        mover = tracks["mover"]
        assert mover.n_keyframes == 7
        np.testing.assert_allclose(
            mover.centers[-1] - mover.centers[0], [1.5 * 3.0, 0.0, 0.0])
        np.testing.assert_array_equal(tracks["parked"].centers[0],
                                      tracks["parked"].centers[-1])

    def test_empty_trajectory_is_data_error(self, tmp_path, capsys):
        scene = tmp_path / "scene.yaml"
        scene.write_text(
            "lidar:\n  elevations_rad: [0.0]\n  azimuth_count: 8\n"
            "trajectory:\n  count: 0\n  period_s: 0.5\n  start: [0, 0, 1]\n")
        assert main(["simulate", "--scene", str(scene),
                     "--out", str(tmp_path / "out")]) == 2

    def test_non_finite_start_is_data_error(self, tmp_path, capsys):
        # a NaN start once wrote NaN poses and exited 0
        scene = tmp_path / "scene.yaml"
        write_scene(scene)
        scene.write_text(scene.read_text().replace("start: [0.0, 0.0, 1.7]", "start: [.nan, 0.0, 1.7]"))
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 2
        assert "trajectory.start" in capsys.readouterr().err
        assert not (out / "poses.txt").exists()

    def test_seed_range(self, tmp_path, capsys):
        # 7 scans take the per-scan seeds seed .. seed + 6
        scene = tmp_path / "scene.yaml"
        write_scene(scene)
        for seed, code in [(-1, 2), (2**63 - 6, 2), (2**63 - 7, 0)]:
            out = tmp_path / f"out{code}"
            assert main(["simulate", "--scene", str(scene), "--out", str(out),
                         "--seed", str(seed)]) == code
        assert "2**63" in capsys.readouterr().err


class TestExtract:
    def test_window_arithmetic_13_scans_default_n(self, tmp_path):
        sim = simulate(tmp_path, count=13)
        out = tmp_path / "out"
        assert run_extract(sim, out) == 0
        tovp = sorted(f for f in os.listdir(out) if f.endswith(".tovp"))
        trcn = sorted(f for f in os.listdir(out) if f.endswith(".trcn"))
        assert tovp == ["000006.tovp"]
        assert trcn == ["000006.trcn"]
        assert (out / "config.json").exists()

    def test_window_arithmetic_smaller_n(self, tmp_path):
        sim = simulate(tmp_path, count=7)
        out = tmp_path / "out"
        assert run_extract(sim, out, "--n", "2") == 0
        tovp = sorted(f for f in os.listdir(out) if f.endswith(".tovp"))
        assert tovp == ["000002.tovp", "000003.tovp", "000004.tovp"]

    def test_too_few_scans(self, tmp_path, capsys):
        sim = simulate(tmp_path, count=5)
        assert run_extract(sim, tmp_path / "out") == 2
        assert "need at least 13 scans" in capsys.readouterr().err

    def test_outputs_parse_and_verify(self, tmp_path):
        sim = simulate(tmp_path, count=7)
        out = tmp_path / "out"
        assert run_extract(sim, out, "--n", "2", "--seed", "3") == 0
        oset, info = read_overlap_file(out / "000003.tovp")
        assert len(oset) > 0
        assert info.sensor == SensorConfig()
        offsets = np.unique(oset.records["scan_offset"])
        assert set(offsets).issubset({-2, -1, 1, 2})
        rset = read_recon_file(out / "000003.trcn")
        pts, _ = read_scan_bin(sim / "scans" / "000003.bin")
        assert len(rset) == 30 * len(pts)

    def test_idempotent_and_thread_invariant(self, tmp_path):
        sim = simulate(tmp_path, count=7)
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            assert run_extract(sim, out, "--n", "2", "--threads", threads) == 0
            outs.append(out)
        names = [sorted(os.listdir(o)) for o in outs]
        assert names[0] == names[1] == names[2]
        for fname in names[0]:  # config.json included: no byte depends on threads
            blobs = [(o / fname).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]

    def test_failure_removes_partial_outputs(self, tmp_path, capsys):
        sim = simulate(tmp_path, count=7)
        # corrupt an adjacent of the last eligible scan only
        scan6 = sim / "scans" / "000006.bin"
        scan6.write_bytes(scan6.read_bytes()[:17])
        out = tmp_path / "out"
        assert run_extract(sim, out, "--n", "2") == 2
        leftovers = [f for f in os.listdir(out)] if out.exists() else []
        assert leftovers == []

    def test_failure_mid_stream_removes_partial_outputs(self, tmp_path, capsys, monkeypatch):
        # the block stream fails on its last block, after the others went
        # to the .tovp.tmp file: every output goes, config.json included
        from tovp import extraction
        from tovp.errors import DataError

        sim = simulate(tmp_path, count=5)
        out = tmp_path / "out"
        monkeypatch.setattr(extraction, "CHUNK", 16)
        last = (len(read_scan_bin(sim / "scans" / "000002.bin")[0]) - 1) // 16 * 16
        map_in_order, written = extraction._map_in_order, []

        def failing_map(block, items, threads):
            def failing(lo):
                if lo == last:
                    written.append((out / "000002.tovp.tmp").stat().st_size)
                    raise DataError("block failed")
                return block(lo)
            return map_in_order(failing, items, threads)

        monkeypatch.setattr(extraction, "_map_in_order", failing_map)
        assert run_extract(sim, out, "--n", "2") == 2
        assert "block failed" in capsys.readouterr().err
        assert written[0] > _OVERLAP_HEADER.itemsize
        assert os.listdir(out) == []

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_points_form_no_beam(self, tmp_path, value):
        # a point with a non-finite coordinate gives the bytes of a point on
        # the sensor origin: no overlap record and no recon sample
        sim = simulate(tmp_path, count=3)
        outs = []
        for name, fill in (("bad", value), ("origin", 0.0)):
            scans = tmp_path / name / "scans"
            scans.mkdir(parents=True)
            for f in sorted(os.listdir(sim / "scans")):
                points, intensities = read_scan_bin(sim / "scans" / f)
                if name == "bad":  # one coordinate, then a whole point
                    points[[3, 40, 77], [0, 1, 2]] = fill
                    points[90] = fill
                else:
                    points[[3, 40, 77, 90]] = 0.0
                write_scan_bin(scans / f, points, intensities)
            out = tmp_path / name / "out"
            assert main(["extract", "--scans", str(scans), "--poses", str(sim / "poses.txt"),
                         "--out", str(out), "--n", "1"]) == 0
            outs.append({f: (out / f).read_bytes() for f in ("000001.tovp", "000001.trcn")})
        assert outs[0] == outs[1]

    def test_pose_count_mismatch(self, tmp_path, capsys):
        sim = simulate(tmp_path, count=7)
        poses = (sim / "poses.txt").read_text().splitlines()
        (sim / "poses.txt").write_text("\n".join(poses[:-1]) + "\n")
        assert run_extract(sim, tmp_path / "out") == 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        sim = simulate(tmp_path, count=7)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("n_adjacent: 2\nseed: 9\n")
        out1 = tmp_path / "out1"
        assert run_extract(sim, out1, "--config", str(cfg)) == 0
        assert len([f for f in os.listdir(out1) if f.endswith(".tovp")]) == 3
        out2 = tmp_path / "out2"
        assert run_extract(sim, out2, "--config", str(cfg), "--n", "3") == 0
        assert [f for f in os.listdir(out2) if f.endswith(".tovp")] == \
            ["000003.tovp"]
        resolved = json.loads((out2 / "config.json").read_text())
        assert resolved["n_adjacent"] == 3
        assert resolved["seed"] == 9

    def test_seed_range(self, tmp_path, capsys):
        sim = simulate(tmp_path, count=7)
        assert run_extract(sim, tmp_path / "out", "--n", "2",
                           "--seed", str(2**63 - 1)) == 2
        assert "2**63" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 1.5\n")
        assert run_extract(sim, tmp_path / "out", "--config", str(cfg)) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        sim = simulate(tmp_path, count=7)
        cfg = tmp_path / "cfg.yaml"
        # a typo, and a key that no longer exists
        for key in ("n_adjacnt", "cell_size_rad"):
            cfg.write_text(f"{key}: 2\n")
            assert run_extract(sim, tmp_path / "out", "--config", str(cfg)) == 2
            assert f"unknown config keys ['{key}']" in capsys.readouterr().err

    def test_overlap_bytes_do_not_depend_on_the_seed(self, tmp_path):
        # the seed drives recon sampling only, so neither the records nor
        # the header digest of a .tovp may move with it
        sim = simulate(tmp_path, count=5)
        for seed in ("0", "1"):
            assert run_extract(sim, tmp_path / seed, "--n", "2", "--seed", seed) == 0
        assert (tmp_path / "0" / "000002.tovp").read_bytes() == \
            (tmp_path / "1" / "000002.tovp").read_bytes()
        assert (tmp_path / "0" / "000002.trcn").read_bytes() != \
            (tmp_path / "1" / "000002.trcn").read_bytes()

    @pytest.mark.parametrize("key", ["occupied_per_beam", "free_per_beam"])
    def test_negative_per_beam_count_fails_before_extraction(self, tmp_path, capsys, key):
        sim = simulate(tmp_path, count=7)
        capsys.readouterr()
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{key}: -1\n")
        assert run_extract(sim, tmp_path / "out", "--config", str(cfg), "--n", "2") == 2
        captured = capsys.readouterr()
        assert f"config key {key} must be an integer >= 0" in captured.err
        assert captured.out == ""  # nothing ran, not even the config echo
        assert not (tmp_path / "out").exists()


class TestLabel:
    def test_matches_simulated_ground_truth(self, tmp_path):
        sim = simulate(tmp_path, count=7, box_speed=1.5)
        out = tmp_path / "labels"
        assert main(["label", "--scans", str(sim / "scans"),
                     "--boxes", str(sim / "boxes.jsonl"),
                     "--poses", str(sim / "poses.txt"),
                     "--margin", "1e-4",
                     "--out", str(out)]) == 0
        for i in range(7):
            mine = read_labels(out / f"{i:06d}.label")
            truth = read_labels(sim / "labels" / f"{i:06d}.label")
            np.testing.assert_array_equal(mine, truth)

    def test_failure_removes_written_labels(self, tmp_path, capsys):
        sim = simulate(tmp_path, count=3)
        scan1 = sim / "scans" / "000001.bin"
        scan1.write_bytes(scan1.read_bytes()[:17])
        out = tmp_path / "labels"
        assert main(["label", "--scans", str(sim / "scans"),
                     "--boxes", str(sim / "boxes.jsonl"),
                     "--poses", str(sim / "poses.txt"), "--out", str(out)]) == 2
        assert "000001.bin" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_non_finite_pose_is_data_error(self, tmp_path, capsys):
        # a NaN translation once labeled every moving point of its scan
        # STATIC and exited 0
        sim = simulate(tmp_path, count=2)
        poses = sim / "poses.txt"
        rows = poses.read_text().splitlines()
        rows[0] = " ".join(rows[0].split()[:3] + ["nan"] + rows[0].split()[4:])
        poses.write_text("\n".join(rows) + "\n")
        out = tmp_path / "labels"
        assert main(["label", "--scans", str(sim / "scans"),
                     "--boxes", str(sim / "boxes.jsonl"),
                     "--poses", str(poses), "--out", str(out)]) == 2
        assert f"{poses}:1: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["nan", "inf", "-1e-4"])
    def test_margin_must_be_finite_and_not_negative(self, tmp_path, capsys, margin):
        # a NaN margin once labeled every point STATIC and exited 0
        sim = simulate(tmp_path, count=2)
        out = tmp_path / "labels"
        assert main(["label", "--scans", str(sim / "scans"),
                     "--boxes", str(sim / "boxes.jsonl"),
                     "--poses", str(sim / "poses.txt"),
                     f"--margin={margin}", "--out", str(out)]) == 2
        assert "--margin" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def hand_case(self, tmp_path):
        """Two moving objects: one fully found, one quarter found."""
        scans = tmp_path / "scans"
        labels = tmp_path / "gt"
        preds = tmp_path / "pred"
        for d in (scans, labels, preds):
            d.mkdir()
        pts = np.zeros((8, 3), dtype=np.float32)
        pts[:4, 0] = np.linspace(-0.4, 0.4, 4)
        pts[4:, 0] = 10.0 + np.linspace(-0.4, 0.4, 4)
        quads = np.hstack([pts, np.zeros((8, 1), dtype=np.float32)])
        quads.astype("<f4").tofile(scans / "000000.bin")
        np.full(8, 1, np.uint8).tofile(labels / "000000.label")
        np.array([1, 1, 1, 1, 1, 0, 0, 0], np.uint8).tofile(preds / "000000.label")
        boxes = tmp_path / "boxes.jsonl"
        lines = []
        for name, x in (("a", 0.0), ("b", 10.0)):
            for t in (0.0, 0.5):
                lines.append(json.dumps({
                    "instance_id": name, "category": "VEHICLE",
                    "center": [x + 2.0 * t, 0.0, 0.0], "size": [2.0, 2.0, 2.0],
                    "yaw": 0.0, "time": t}))
        boxes.write_text("\n".join(lines) + "\n")
        return scans, labels, preds, boxes

    def test_hand_case_prints_62_5(self, tmp_path, capsys):
        scans, labels, preds, boxes = self.hand_case(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["eval", "--scans", str(scans), "--labels", str(labels),
                     "--predictions", str(preds), "--boxes", str(boxes),
                     "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        values = {line.split(":")[0]: float(line.split(":")[1])
                  for line in out.splitlines() if ":" in line and "config" not in line
                  and "flag" not in line and "report" not in line}
        assert values["recall_obj"] == pytest.approx(62.5)
        assert values["iou_conventional"] == pytest.approx(62.5)
        report = json.loads(report_path.read_text())
        assert report["recall_obj"] == pytest.approx(62.5)
        assert len(report["per_object"]) == 2
        assert report["config"]["scan_period_s"] == 0.5

    def test_prediction_values_validated(self, tmp_path, capsys):
        scans, labels, preds, boxes = self.hand_case(tmp_path)
        np.full(8, 2, np.uint8).tofile(preds / "000000.label")
        assert main(["eval", "--scans", str(scans), "--labels", str(labels),
                     "--predictions", str(preds), "--boxes", str(boxes)]) == 2
        err = capsys.readouterr().err
        assert str(preds / "000000.label") in err and "found 2" in err

    def test_ground_truth_values_validated(self, tmp_path, capsys):
        scans, labels, preds, boxes = self.hand_case(tmp_path)
        np.full(8, 3, np.uint8).tofile(labels / "000000.label")
        assert main(["eval", "--scans", str(scans), "--labels", str(labels),
                     "--predictions", str(preds), "--boxes", str(boxes)]) == 2
        err = capsys.readouterr().err
        assert str(labels / "000000.label") in err and "found 3" in err

    def test_ego_mask_values_validated(self, tmp_path, capsys):
        # an ego byte of 7 once counted as an ego point, with exit 0
        scans, labels, preds, boxes = self.hand_case(tmp_path)
        ego = tmp_path / "ego"
        ego.mkdir()
        np.array([0, 0, 0, 0, 0, 7, 0, 0], np.uint8).tofile(ego / "000000.label")
        assert main(["eval", "--scans", str(scans), "--labels", str(labels),
                     "--predictions", str(preds), "--boxes", str(boxes),
                     "--ego-masks", str(ego)]) == 2
        captured = capsys.readouterr()
        assert str(ego / "000000.label") in captured.err and "found 7" in captured.err
        assert "iou" not in captured.out

    def test_length_mismatch_is_data_error(self, tmp_path, capsys):
        scans, labels, preds, boxes = self.hand_case(tmp_path)
        np.zeros(5, np.uint8).tofile(preds / "000000.label")
        assert main(["eval", "--scans", str(scans), "--labels", str(labels),
                     "--predictions", str(preds), "--boxes", str(boxes)]) == 2


class TestStats:
    def test_head_heavy_counts(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_text("1\n1\n1\n97\n")
        assert main(["stats", "--counts", str(counts)]) == 0
        out = capsys.readouterr().out
        assert "75% objects -> 3% points" in out
        assert "objects: 4" in out
        assert "points: 100" in out

    def test_percentile_flag(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_text("1\n1\n1\n97\n")
        assert main(["stats", "--counts", str(counts),
                     "--percentile", "50"]) == 0
        assert "50% objects -> 2% points" in capsys.readouterr().out

    def test_decile_table_and_csv(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_text("1\n1\n1\n97\n")
        curve = tmp_path / "curve.csv"
        assert main(["stats", "--counts", str(counts),
                     "--csv", str(curve)]) == 0
        out = capsys.readouterr().out
        assert "objects%  points%" in out
        assert "    100  100.000" in out
        lines = curve.read_text().splitlines()
        assert lines[0] == "object_points,object_fraction,point_fraction"
        assert lines[1].startswith("1,0.250000000,0.010000000")
        assert lines[4].startswith("97,1.000000000,1.000000000")

    def test_from_scans_and_boxes(self, tmp_path, capsys):
        sim = simulate(tmp_path, count=7)
        assert main(["stats", "--scans", str(sim / "scans"),
                     "--boxes", str(sim / "boxes.jsonl"),
                     "--poses", str(sim / "poses.txt")]) == 0
        assert "% points" in capsys.readouterr().out

    def test_needs_some_input(self, capsys):
        assert main(["stats"]) == 2

    def test_bad_counts_file(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_text("1\ntwo\n")
        assert main(["stats", "--counts", str(counts)]) == 2

    @pytest.mark.parametrize("counts", [False, True])
    def test_no_objects_to_summarize(self, tmp_path, capsys, counts):
        # an empty counts file, or boxes that hold no scan point
        if counts:
            (tmp_path / "counts.txt").write_text("\n")
            argv = ["--counts", str(tmp_path / "counts.txt")]
        else:
            sim = simulate(tmp_path, count=2)
            (tmp_path / "boxes.jsonl").write_text("")
            argv = ["--scans", str(sim / "scans"), "--boxes", str(tmp_path / "boxes.jsonl")]
        capsys.readouterr()
        assert main(["stats", *argv]) == 2
        assert capsys.readouterr() == ("", "error: no objects with points to summarize\n")

    @pytest.mark.parametrize("text", ["1\n-3\n5\n", "0\n0\n"])
    def test_negative_or_all_zero_counts(self, tmp_path, capsys, text):
        counts = tmp_path / "counts.txt"
        counts.write_text(text)
        assert main(["stats", "--counts", str(counts)]) == 2
        assert str(counts) in capsys.readouterr().err

    @pytest.mark.parametrize("percentile", ["-1", "100.5", "nan"])
    def test_percentile_outside_0_to_100(self, tmp_path, capsys, percentile):
        counts = tmp_path / "counts.txt"
        counts.write_text("1\n1\n1\n97\n")
        assert main(["stats", "--counts", str(counts),
                     f"--percentile={percentile}"]) == 2
        captured = capsys.readouterr()
        assert "--percentile" in captured.err and captured.out == ""


class TestLossCheck:
    def overlap_file(self, tmp_path, state, confidence, probs):
        rec = np.zeros(1, dtype=RECORD_DTYPE)
        rec["state"] = state
        rec["confidence"] = confidence
        rec["scan_offset"] = 1
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet(rec), SensorConfig())
        probs_path = tmp_path / "x.prob"
        write_probabilities(probs_path, np.array([probs]))
        return path, probs_path

    def test_hand_value_nine_decimals(self, tmp_path, capsys):
        path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs)]) == 0
        assert "overlap_loss: 3.465735903" in capsys.readouterr().out

    def test_with_recon_term(self, tmp_path, capsys):
        path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        rec = np.zeros(1, dtype=RECON_DTYPE)
        rec["state"] = 0
        recon_path = tmp_path / "x.trcn"
        write_recon_file(recon_path, ReconSet(rec))
        rprobs_path = tmp_path / "r.prob"
        write_probabilities(rprobs_path, np.array([[0.5, 0.25, 0.25]]))
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs), "--recon", str(recon_path),
                     "--recon-probs", str(rprobs_path)]) == 0
        out = capsys.readouterr().out
        assert "overlap_loss: 3.465735903" in out
        assert "recon_loss: 0.693147181" in out
        assert "total_loss: 4.158883083" in out

    def test_out_of_order_file_is_format_error(self, tmp_path, capsys):
        # .prob rows pair with records in file order: a file out of
        # canonical order was once sorted on read, so that its loss paired
        # the wrong rows and exited 0
        rec = np.zeros(2, dtype=RECORD_DTYPE)
        rec["current_index"] = [1, 0]
        rec["state"] = [0, 1]
        rec["confidence"] = 1.0
        path = tmp_path / "x.tovp"
        write_overlap_file(path, [rec], SensorConfig())
        probs = tmp_path / "x.prob"
        write_probabilities(probs, np.array([[0.6, 0.2, 0.2], [0.1, 0.8, 0.1]]))
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(path) in captured.err

    def test_count_mismatch_is_data_error(self, tmp_path, capsys):
        path, _ = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        probs = tmp_path / "wrong.prob"
        write_probabilities(probs, np.full((3, 3), 1 / 3))
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs)]) == 2

    def test_overlap_state_outside_the_three_is_data_error(self, tmp_path, capsys):
        path, probs = self.overlap_file(tmp_path, 3, 1.0, [0.2, 0.5, 0.3])
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs)]) == 2
        assert "state 3" in capsys.readouterr().err

    def test_recon_state_outside_the_three_is_data_error(self, tmp_path, capsys):
        path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        rec = np.zeros(2, dtype=RECON_DTYPE)
        rec["state"] = [0, 3]
        recon_path = tmp_path / "x.trcn"
        write_recon_file(recon_path, ReconSet(rec))
        rprobs_path = tmp_path / "r.prob"
        write_probabilities(rprobs_path, np.full((2, 3), 1 / 3))
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs), "--recon", str(recon_path),
                     "--recon-probs", str(rprobs_path)]) == 2
        assert "state 3" in capsys.readouterr().err

    def test_empty_recon_set_is_data_error(self, tmp_path, capsys):
        path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        recon_path = tmp_path / "x.trcn"
        write_recon_file(recon_path, ReconSet.empty())
        rprobs_path = tmp_path / "r.prob"
        write_probabilities(rprobs_path, np.zeros((0, 3)))
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs), "--recon", str(recon_path),
                     "--recon-probs", str(rprobs_path)]) == 2
        assert "no reconstruction samples" in capsys.readouterr().err

    def test_recon_without_probs(self, tmp_path, capsys):
        # checked before any file is read: the overlap loss was once
        # printed first, and a missing overlap file was reported instead
        path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        for overlaps in (path, tmp_path / "nope.tovp"):
            assert main(["loss-check", "--overlaps", str(overlaps),
                         "--probs", str(probs), "--recon", str(path)]) == 2
            assert capsys.readouterr() == ("", "error: --recon needs --recon-probs\n")

    def test_recon_samples_uneven_over_beams_is_count_mismatch(self, tmp_path, capsys):
        path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        rec = np.zeros(3, dtype=RECON_DTYPE)
        rec["current_index"] = [0, 0, 1]
        recon_path = tmp_path / "x.trcn"
        write_recon_file(recon_path, ReconSet(rec))
        rprobs_path = tmp_path / "r.prob"
        write_probabilities(rprobs_path, np.full((3, 3), 1 / 3))
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs), "--recon", str(recon_path),
                     "--recon-probs", str(rprobs_path)]) == 2
        assert capsys.readouterr().err == "error: 3 samples do not divide evenly over 2 beams\n"

    def test_out_of_range_header_sensor_value_is_format_error(self, tmp_path, capsys):
        for key, value in (("divergence_angle_rad", 0.5), ("decay_rate_per_meter", np.nan)):
            path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
            data = bytearray(path.read_bytes())
            offset = _OVERLAP_HEADER.fields[key][1]
            data[offset:offset + 8] = np.float64(value).astype("<f8").tobytes()
            path.write_bytes(bytes(data))
            assert main(["loss-check", "--overlaps", str(path), "--probs", str(probs)]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and key in err, err

    def test_garbage_overlap_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tovp"
        bad.write_bytes(b"JUNKJUNKJUNK")
        probs = tmp_path / "p.prob"
        write_probabilities(probs, np.zeros((0, 3)))
        assert main(["loss-check", "--overlaps", str(bad),
                     "--probs", str(probs)]) == 2
