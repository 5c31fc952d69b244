"""End-to-end command line behavior: exit codes, files, determinism."""

import json
import os

import numpy as np
import pytest

from tovp.cli import main
from tovp.extraction import RECORD_DTYPE, OverlapSet
from tovp.formats import (
    read_boxes,
    read_labels,
    read_overlap_file,
    read_recon_file,
    read_scan_bin,
    write_overlap_file,
    write_probabilities,
    write_recon_file,
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

    def test_data_error_is_2(self, tmp_path, capsys):
        (tmp_path / "scans").mkdir()
        code = main(["extract", "--scans", str(tmp_path / "scans"),
                     "--poses", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


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
        cfg.write_text("n_adjacnt: 2\n")
        assert run_extract(sim, tmp_path / "out", "--config", str(cfg)) == 2
        assert "n_adjacnt" in capsys.readouterr().err


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

    def test_recon_without_probs(self, tmp_path, capsys):
        path, probs = self.overlap_file(tmp_path, 1, 1.0, [0.2, 0.5, 0.3])
        assert main(["loss-check", "--overlaps", str(path),
                     "--probs", str(probs), "--recon", str(path)]) == 2

    def test_garbage_overlap_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tovp"
        bad.write_bytes(b"JUNKJUNKJUNK")
        probs = tmp_path / "p.prob"
        write_probabilities(probs, np.zeros((0, 3)))
        assert main(["loss-check", "--overlaps", str(bad),
                     "--probs", str(probs)]) == 2
