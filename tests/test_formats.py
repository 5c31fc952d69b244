"""File format round trips, validation errors, and reader robustness."""

import tracemalloc

import numpy as np
import pytest

from tovp import formats
from tovp.errors import (
    BadLength,
    CountMismatch,
    LengthMismatch,
    MagicMismatch,
    MalformedLine,
    NonRigid,
    SchemaViolation,
    TovpError,
    TruncatedFile,
    VersionUnsupported,
)
from tovp.extraction import RECORD_DTYPE, ExtractionConfig, OverlapSet
from tovp.formats import (
    config_hash,
    read_boxes,
    read_labels,
    read_overlap_file,
    read_poses,
    read_probabilities,
    read_recon_file,
    read_report,
    read_scan_bin,
    read_scene,
    write_boxes,
    write_labels,
    write_overlap_file,
    write_poses,
    write_probabilities,
    write_recon_file,
    write_report,
    write_scan_bin,
)
from tovp.labeling import TrackedBox
from tovp.recon import RECON_DTYPE, ReconSet
from tovp.sensor_model import RigidTransform, SensorConfig

SENSOR = SensorConfig()


def overlap_records(n, seed=0):
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=RECORD_DTYPE)
    rec["current_index"] = np.arange(n)  # unique keys keep the order canonical
    rec["scan_offset"] = rng.choice([-2, -1, 1, 2], size=n)
    rec["adjacent_index"] = rng.integers(0, 1000, size=n)
    rec["position"] = rng.uniform(-70, 70, size=(n, 3))
    rec["time"] = rng.uniform(-3, 3, size=n)
    rec["state"] = rng.integers(0, 3, size=n)
    rec["confidence"] = rng.uniform(0, 1, size=n)
    rec["sample_rank"] = rng.integers(0, 5, size=n)
    return rec


def recon_set(n, seed=0):
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=RECON_DTYPE)
    rec["current_index"] = np.arange(n)
    rec["position"] = rng.uniform(-50, 50, size=(n, 3))
    rec["time"] = rng.uniform(0, 10, size=n)
    rec["state"] = rng.integers(0, 2, size=n)
    return ReconSet(rec)


class TestScanBin:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scan.bin"
        pts = np.array([[1.5, -2.0, 0.25], [7.0, 8.0, -1.0]])
        write_scan_bin(path, pts, intensities=[0.1, 0.9])
        back, intens = read_scan_bin(path)
        np.testing.assert_array_equal(back, pts)
        np.testing.assert_allclose(intens, [0.1, 0.9], rtol=1e-7)

    def test_two_point_file_is_32_bytes(self, tmp_path):
        path = tmp_path / "scan.bin"
        write_scan_bin(path, np.zeros((2, 3)))
        assert path.stat().st_size == 32
        pts, _ = read_scan_bin(path)
        assert pts.shape == (2, 3)

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(BadLength):
            read_scan_bin(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        pts, intens = read_scan_bin(path)
        assert pts.shape == (0, 3) and intens.shape == (0,)


class TestPoses:
    def rot(self, angle):
        c, s = np.cos(angle), np.sin(angle)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "poses.txt"
        poses = [RigidTransform(self.rot(0.3 * k), np.array([k * 1.1, -k, 0.5]))
                 for k in range(5)]
        write_poses(path, poses)
        back = read_poses(path)
        assert len(back) == 5
        for a, b in zip(poses, back):
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.translation, b.translation)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "poses.txt"
        row = " ".join(["1 0 0 4", "0 1 0 5", "0 0 1 6"])
        path.write_text(f"# header\n\n{row}\n")
        poses = read_poses(path)
        assert len(poses) == 1
        np.testing.assert_array_equal(poses[0].translation, [4, 5, 6])

    def test_wrong_token_count(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 1 0 0 0 1 0 0\n")  # 11 numbers
        with pytest.raises(MalformedLine):
            read_poses(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 x 0 1 0 0 0 0 1 0\n")
        with pytest.raises(MalformedLine):
            read_poses(path)

    def test_mild_drift_is_repaired(self, tmp_path):
        rot = self.rot(0.4)
        rot[0, 0] += 2e-4  # beyond keep-verbatim, well under reject
        row = np.hstack([rot, np.zeros((3, 1))]).reshape(-1)
        path = tmp_path / "poses.txt"
        path.write_text(" ".join(f"{v:.17g}" for v in row) + "\n")
        pose = read_poses(path)[0]
        fixed = pose.rotation
        np.testing.assert_allclose(fixed.T @ fixed, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(fixed, self.rot(0.4), atol=1e-3)

    def test_heavy_drift_rejected(self, tmp_path):
        rot = self.rot(0.0)
        rot[0, 0] = 1.2
        row = np.hstack([rot, np.zeros((3, 1))]).reshape(-1)
        path = tmp_path / "poses.txt"
        path.write_text(" ".join(str(v) for v in row) + "\n")
        with pytest.raises(NonRigid):
            read_poses(path)

    def test_reflection_rejected(self, tmp_path):
        rot = np.diag([1.0, 1.0, -1.0])
        row = np.hstack([rot, np.zeros((3, 1))]).reshape(-1)
        path = tmp_path / "poses.txt"
        path.write_text(" ".join(str(v) for v in row) + "\n")
        with pytest.raises(NonRigid):
            read_poses(path)


class TestOverlapFile:
    def test_round_trip_bytes(self, tmp_path):
        oset = OverlapSet(overlap_records(500))
        digest = config_hash(ExtractionConfig(), SENSOR)
        p1, p2 = tmp_path / "a.tovp", tmp_path / "b.tovp"
        write_overlap_file(p1, oset, SENSOR, digest)
        back, info = read_overlap_file(p1)
        write_overlap_file(p2, back, info.sensor, info.config_hash)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_echoes_sensor_and_hash(self, tmp_path):
        sensor = SensorConfig(divergence_angle_rad=0.005,
                              occupied_confidence_threshold=0.8,
                              decay_rate_per_meter=2.0)
        digest = bytes(range(16))
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet.empty(), sensor, digest)
        back, info = read_overlap_file(path)
        assert len(back) == 0
        assert info.sensor == sensor
        assert info.config_hash == digest
        assert info.version == 1

    def test_values_survive_at_f32_precision(self, tmp_path):
        oset = OverlapSet(overlap_records(64, seed=3))
        path = tmp_path / "x.tovp"
        write_overlap_file(path, oset, SENSOR)
        back, _ = read_overlap_file(path)
        for name in ("current_index", "scan_offset", "adjacent_index",
                     "state", "sample_rank"):
            np.testing.assert_array_equal(back.records[name], oset.records[name])
        np.testing.assert_allclose(back.records["position"],
                                   oset.records["position"], rtol=1e-6)
        np.testing.assert_allclose(back.records["confidence"],
                                   oset.records["confidence"], rtol=1e-6)

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet.empty(), SENSOR)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(MagicMismatch):
            read_overlap_file(path)

    def test_version_unsupported(self, tmp_path):
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet.empty(), SENSOR)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(VersionUnsupported):
            read_overlap_file(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet(overlap_records(3)), SENSOR)
        data = bytearray(path.read_bytes())
        data[6] = 7  # count field, low byte
        path.write_bytes(bytes(data))
        with pytest.raises(CountMismatch):
            read_overlap_file(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet(overlap_records(3)), SENSOR)
        whole = path.read_bytes()
        path.write_bytes(whole[:20])  # shorter than the header
        with pytest.raises(TruncatedFile):
            read_overlap_file(path)
        path.write_bytes(whole[:-5])  # ragged record payload
        with pytest.raises(TruncatedFile):
            read_overlap_file(path)

    def test_bad_digest_length(self, tmp_path):
        with pytest.raises(ValueError):
            write_overlap_file(tmp_path / "x.tovp", OverlapSet.empty(), SENSOR,
                               b"short")

    def test_read_back_in_canonical_order(self, tmp_path):
        # values exact in float32, so a read gives back the written bytes
        rec = overlap_records(200, seed=4)
        rec["current_index"] //= 4  # tied current indices: order by the other keys
        for name in ("position", "time", "confidence"):
            rec[name] = rec[name].astype(np.float32)
        canonical = OverlapSet(rec).records
        shuffled = canonical[np.random.default_rng(4).permutation(len(canonical))]
        assert shuffled.tobytes() != canonical.tobytes()
        for i, records in enumerate((shuffled, canonical)):
            path = tmp_path / f"{i}.tovp"
            write_overlap_file(path, OverlapSet(records, presorted=True), SENSOR)
            back, _ = read_overlap_file(path)
            assert back.records.tobytes() == canonical.tobytes()

    @pytest.mark.slow
    def test_large_round_trip(self, tmp_path):
        oset = OverlapSet(overlap_records(1_000_000, seed=9))
        p1, p2 = tmp_path / "a.tovp", tmp_path / "b.tovp"
        write_overlap_file(p1, oset, SENSOR)
        back, info = read_overlap_file(p1)
        write_overlap_file(p2, back, info.sensor, info.config_hash)
        assert p1.stat().st_size == 54 + 31 * 1_000_000
        assert p1.read_bytes() == p2.read_bytes()


class TestChunkedWrite:
    """Sets are cast to the on-disk dtype a chunk at a time: the same bytes
    as one whole-set cast, without a second copy of the set."""

    def test_bytes_equal_a_whole_set_cast(self, tmp_path):
        n = 2 * formats._CHUNK + 123
        canonical = OverlapSet(overlap_records(n, seed=5)).records
        shuffled = canonical[np.random.default_rng(5).permutation(n)]
        for i, records in enumerate((shuffled, canonical)):
            path = tmp_path / f"{i}.tovp"
            write_overlap_file(path, OverlapSet(records, presorted=True), SENSOR)
            head = formats._OVERLAP_HEADER.itemsize
            data = path.read_bytes()
            assert data[head:] == records.astype(formats._OVERLAP_RECORD).tobytes()
        for n in (0, 1, formats._CHUNK, formats._CHUNK + 1):
            rset = recon_set(n, seed=n)
            path = tmp_path / f"{n}.trcn"
            write_recon_file(path, rset)
            data = path.read_bytes()
            assert data[formats._RECON_HEADER.itemsize:] == rset.records.astype(formats._RECON_RECORD).tobytes()

    def test_peak_memory_is_one_chunk(self, tmp_path):
        oset = OverlapSet(overlap_records(8 * formats._CHUNK, seed=6))
        chunk_bytes = formats._CHUNK * formats._OVERLAP_RECORD.itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_overlap_file(tmp_path / "a.tovp", oset, SENSOR)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a whole-set cast would hold 8 chunks
        assert peak < 1.5 * chunk_bytes, peak


class TestScalarFieldCodec:
    """Records are cast through views that split each (3,) field into three
    scalar fields at the same offsets.  On random bytes in every field, and
    on both sides of a chunk boundary, the file holds the bytes of a cast
    of whole records, and a read decodes them as such a cast does."""

    CASES = [(RECORD_DTYPE, formats._OVERLAP_HEADER, formats._OVERLAP_RECORD, formats.OVERLAP_MAGIC),
             (RECON_DTYPE, formats._RECON_HEADER, formats._RECON_RECORD, formats.RECON_MAGIC)]

    # random bytes hold NaNs, and doubles beyond the float32 range
    @pytest.mark.filterwarnings("ignore:.*encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("n", [0, 1, formats._CHUNK, formats._CHUNK + 1])
    @pytest.mark.parametrize("memory,header,stored,magic", CASES, ids=["tovp", "trcn"])
    def test_random_bytes_equal_whole_record_casts(self, tmp_path, n, memory, header, stored, magic):
        rng = np.random.default_rng(n)
        records = np.frombuffer(rng.bytes(n * memory.itemsize), dtype=memory)
        path = tmp_path / "x.set"
        formats._write_set(path, magic, header, stored, records)
        data = path.read_bytes()
        assert data[header.itemsize:] == records.astype(stored).tobytes()
        raw = rng.bytes(n * stored.itemsize)
        path.write_bytes(data[:header.itemsize] + raw)
        _, back = formats._read_set(path, magic, header, stored, memory)
        assert back.dtype == memory
        assert back.tobytes() == np.frombuffer(raw, dtype=stored).astype(memory).tobytes()

    @pytest.mark.parametrize("dtype", [RECORD_DTYPE, RECON_DTYPE, formats._OVERLAP_RECORD,
                                       formats._RECON_RECORD])
    def test_view_keeps_the_layout(self, dtype):
        flat = formats._scalar_fields(dtype)
        assert flat.itemsize == dtype.itemsize
        assert formats._scalar_fields(dtype) is flat
        for name in dtype.names:
            sub, offset = dtype.fields[name][:2]
            parts = [name] if sub.shape == () else [f"{name}[{i}]" for i in range(sub.shape[0])]
            for i, part in enumerate(parts):
                assert flat.fields[part][:2] == (sub.base, offset + i * sub.base.itemsize)


class TestReconFile:
    def test_round_trip_bytes(self, tmp_path):
        rset = recon_set(300)
        p1, p2 = tmp_path / "a.trcn", tmp_path / "b.trcn"
        write_recon_file(p1, rset)
        write_recon_file(p2, read_recon_file(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.stat().st_size == 14 + 21 * 300

    def test_magic_is_distinct_from_overlaps(self, tmp_path):
        path = tmp_path / "x.trcn"
        write_recon_file(path, recon_set(1))
        with pytest.raises(MagicMismatch):
            read_overlap_file(path)


class TestLabelsAndProbabilities:
    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "x.label"
        write_labels(path, [0, 1, 2, 1])
        np.testing.assert_array_equal(read_labels(path), [0, 1, 2, 1])
        np.testing.assert_array_equal(read_labels(path, expected_count=4),
                                      [0, 1, 2, 1])

    def test_labels_length_mismatch(self, tmp_path):
        path = tmp_path / "x.label"
        write_labels(path, [0, 1])
        with pytest.raises(LengthMismatch):
            read_labels(path, expected_count=3)

    def test_probabilities_round_trip(self, tmp_path):
        path = tmp_path / "x.prob"
        probs = np.random.default_rng(0).dirichlet([1, 1, 1], size=20)
        write_probabilities(path, probs)
        back = read_probabilities(path, expected_count=20)
        np.testing.assert_allclose(back, probs, atol=1e-7)

    def test_probabilities_bad_length(self, tmp_path):
        path = tmp_path / "x.prob"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(BadLength):
            read_probabilities(path)

    def test_probabilities_count_check(self, tmp_path):
        path = tmp_path / "x.prob"
        write_probabilities(path, np.full((4, 3), 1 / 3))
        with pytest.raises(LengthMismatch):
            read_probabilities(path, expected_count=5)


class TestBoxes:
    def track(self):
        return TrackedBox(
            instance_id="veh_1", category="VEHICLE",
            centers=[[0, 0, 0], [1, 0, 0], [2, 0, 0]],
            sizes=np.tile([4, 2, 1.6], (3, 1)),
            yaws=[0.0, 0.1, 0.2], timestamps=[0.0, 0.5, 1.0])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        human = TrackedBox("ped", "HUMAN", [[5, 5, 0]], [[0.6, 0.6, 1.8]],
                           [0.0], [0.5])
        write_boxes(path, [self.track(), human])
        back = read_boxes(path)
        by_id = {b.instance_id: b for b in back}
        assert set(by_id) == {"veh_1", "ped"}
        np.testing.assert_array_equal(by_id["veh_1"].centers, self.track().centers)
        np.testing.assert_array_equal(by_id["veh_1"].timestamps, [0.0, 0.5, 1.0])
        assert by_id["ped"].category == "HUMAN"

    def test_keyframes_sorted_by_time(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        lines = [
            '{"instance_id": "a", "category": "CYCLE", "center": [1,0,0], "size": [2,1,1], "yaw": 0, "time": 1.0}',
            '{"instance_id": "a", "category": "CYCLE", "center": [0,0,0], "size": [2,1,1], "yaw": 0, "time": 0.0}',
        ]
        path.write_text("\n".join(lines) + "\n")
        box = read_boxes(path)[0]
        np.testing.assert_array_equal(box.timestamps, [0.0, 1.0])
        np.testing.assert_array_equal(box.centers[0], [0, 0, 0])

    @pytest.mark.parametrize("missing", ["instance_id", "category", "center",
                                         "size", "yaw", "time"])
    def test_missing_field_named(self, tmp_path, missing):
        obj = {"instance_id": "a", "category": "HUMAN", "center": [0, 0, 0],
               "size": [1, 1, 1], "yaw": 0.0, "time": 0.0}
        del obj[missing]
        path = tmp_path / "boxes.jsonl"
        import json
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaViolation, match=missing):
            read_boxes(path)

    def test_negative_size_named(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_text('{"instance_id": "a", "category": "HUMAN", '
                        '"center": [0,0,0], "size": [1,-1,1], "yaw": 0, "time": 0}\n')
        with pytest.raises(SchemaViolation, match="size"):
            read_boxes(path)

    def test_bad_category_named(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_text('{"instance_id": "a", "category": "TREE", '
                        '"center": [0,0,0], "size": [1,1,1], "yaw": 0, "time": 0}\n')
        with pytest.raises(SchemaViolation, match="category"):
            read_boxes(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(MalformedLine):
            read_boxes(path)

    def test_duplicate_timestamps_rejected(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        line = ('{"instance_id": "a", "category": "HUMAN", "center": [0,0,0], '
                '"size": [1,1,1], "yaw": 0, "time": 0.5}')
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(SchemaViolation):
            read_boxes(path)

    def test_category_flip_rejected(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        lines = [
            '{"instance_id": "a", "category": "HUMAN", "center": [0,0,0], "size": [1,1,1], "yaw": 0, "time": 0}',
            '{"instance_id": "a", "category": "CYCLE", "center": [0,0,0], "size": [1,1,1], "yaw": 0, "time": 1}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation, match="category"):
            read_boxes(path)


class TestReports:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        report = {"iou_conventional": 91.3, "flags": [], "counts": {"tp": 105}}
        write_report(path, report)
        assert read_report(path) == report


SCENE_YAML = """
ground_plane: true
boxes:
  - center: [10.0, 0.0, 1.0]
    size: [4.0, 2.0, 2.0]
    yaw: 0.3
    category: VEHICLE
    instance_id: parked
  - center: [0.0, -8.0, 0.9]
    size: [1.8, 0.6, 1.8]
    velocity: [1.5, 0.0, 0.0]
    category: CYCLE
    instance_id: rider
lidar:
  elevations_rad: {min: -0.3, max: 0.1, count: 8}
  azimuth_count: 256
  max_range_m: 80.0
trajectory:
  count: 5
  period_s: 0.5
  start: [0.0, 0.0, 1.7]
  velocity: [2.0, 0.0, 0.0]
"""


class TestScene:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(SCENE_YAML)
        sim = read_scene(path)
        assert sim.scene.ground_plane
        assert len(sim.scene.static_boxes) == 1
        assert len(sim.scene.moving_boxes) == 1
        assert sim.scene.moving_boxes[0].instance_id == "rider"
        assert len(sim.lidar.elevation_angles_rad) == 8
        assert sim.lidar.n_azimuths == 256
        assert sim.lidar.max_range_m == 80.0
        assert sim.times == [0.0, 0.5, 1.0, 1.5, 2.0]
        np.testing.assert_allclose(sim.poses[2].translation, [2.0, 0.0, 1.7])
        assert sim.period_s == 0.5

    def test_elevation_list_form(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(
            "lidar:\n  elevations_rad: [-0.1, 0.0, 0.1]\n  azimuth_count: 64\n"
            "trajectory:\n  count: 1\n  period_s: 0.5\n  start: [0, 0, 1]\n")
        sim = read_scene(path)
        assert sim.lidar.elevation_angles_rad == (-0.1, 0.0, 0.1)
        assert sim.scene.all_boxes() == []

    def test_missing_lidar(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text("trajectory:\n  count: 1\n  period_s: 0.5\n  start: [0,0,0]\n")
        with pytest.raises(SchemaViolation, match="lidar"):
            read_scene(path)

    def test_empty_trajectory(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(
            "lidar:\n  elevations_rad: [0.0]\n  azimuth_count: 8\n"
            "trajectory:\n  count: 0\n  period_s: 0.5\n  start: [0, 0, 1]\n")
        with pytest.raises(SchemaViolation, match="count"):
            read_scene(path)

    def test_bad_box_size(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text(
            "boxes:\n  - center: [0, 0, 0]\n    size: [1, 0, 1]\n"
            "lidar:\n  elevations_rad: [0.0]\n  azimuth_count: 8\n"
            "trajectory:\n  count: 1\n  period_s: 0.5\n  start: [0, 0, 1]\n")
        with pytest.raises(SchemaViolation):
            read_scene(path)


class TestFuzzedReaders:
    """Random bytes must produce package errors, never crashes.

    A mis-counted header is a CountMismatch (a data error), so the net here
    is TovpError, the base every reader is allowed to raise.
    """

    READERS = [
        read_overlap_file,
        read_recon_file,
        read_scan_bin,
    ]

    def test_binary_readers_fail_cleanly(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "fuzz.bin"
        for trial in range(300):
            size = int(rng.integers(0, 200))
            data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            if trial % 3 == 0:  # salt with valid magics to get past the first check
                data = (b"TOVP" if trial % 2 else b"TRCN") + data
            path.write_bytes(data)
            for reader in self.READERS:
                try:
                    reader(path)
                except TovpError:
                    pass

    def test_text_readers_fail_cleanly(self, tmp_path):
        rng = np.random.default_rng(1)
        alphabet = list("0123456789.eE+- {}[]\":,abcxyz\n")
        path = tmp_path / "fuzz.txt"
        for _ in range(300):
            n = int(rng.integers(0, 120))
            text = "".join(rng.choice(alphabet, size=n))
            path.write_text(text)
            for reader in (read_poses, read_boxes):
                try:
                    reader(path)
                except TovpError:
                    pass

    def test_truncated_real_files_fail_cleanly(self, tmp_path):
        src = tmp_path / "good.tovp"
        write_overlap_file(src, OverlapSet(overlap_records(10)), SENSOR)
        whole = src.read_bytes()
        path = tmp_path / "cut.tovp"
        for cut in range(0, len(whole), 7):
            path.write_bytes(whole[:cut])
            try:
                read_overlap_file(path)
            except TovpError:
                pass
