"""File format round trips, validation errors, and reader robustness."""

from pathlib import Path
import json
import re
import tracemalloc

import numpy as np
import pytest

from tovp import extraction, formats
from tovp.cli import main
from tovp.errors import (
    BadLength,
    CountMismatch,
    FormatError,
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


# (make a set of n records, write it, read it, header dtype) per
# record-set format
SET_FILES = [
    (lambda n, seed=0: OverlapSet(overlap_records(n, seed)), lambda path, oset: write_overlap_file(path, oset, SENSOR),
     lambda path: read_overlap_file(path)[0], formats._OVERLAP_HEADER),
    (recon_set, write_recon_file, read_recon_file, formats._RECON_HEADER),
]

# the .tovp record with float64 values: the same fields in the same order
F8_RECORD = np.dtype([("current_index", "<u4"), ("scan_offset", "<i1"), ("adjacent_index", "<u4"),
                      ("position", "<f8", (3,)), ("time", "<f8"), ("state", "u1"), ("confidence", "<f8"),
                      ("sample_rank", "u1")])


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

    @pytest.mark.parametrize("bad, k", [("nan", 3), ("inf", 0), ("-inf", 11)])
    def test_non_finite_number(self, tmp_path, bad, k):
        # a NaN translation once made extraction drop a scan's records and
        # labeling mark every point static, both with exit 0
        values = "1 0 0 4 0 1 0 5 0 0 1 6".split()
        values[k] = bad
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" + " ".join(values) + "\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:2: non-finite")):
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

    def test_values_survive_at_f32_precision(self, tmp_path):
        # sets are held at the stored float32 precision: a round trip is
        # bitwise
        oset = OverlapSet(overlap_records(64, seed=3))
        path = tmp_path / "x.tovp"
        write_overlap_file(path, oset, SENSOR)
        back, _ = read_overlap_file(path)
        assert back.records.dtype == RECORD_DTYPE
        assert back.records.tobytes() == oset.records.tobytes()

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
        # a canonical file reads back as it is, whatever its indices, here
        # from 2^24 - 25 up as well; one out of that order, or a set built
        # from such records, is refused, never sorted
        for base in (0, (1 << 24) - 25):
            rec = overlap_records(200, seed=4)
            rec["current_index"] //= 4  # tied current indices: order by the other keys
            rec["current_index"] += base
            rec["adjacent_index"] += base
            keys = [rec[name] for name in ("sample_rank", "adjacent_index", "scan_offset", "current_index")]
            canonical = rec[np.lexsort(keys)]
            assert extraction._canonical_tail(canonical, (0, 0)) is not None
            path = tmp_path / f"{base}.tovp"
            write_overlap_file(path, OverlapSet(canonical), SENSOR)
            back, _ = read_overlap_file(path)
            assert back.records.tobytes() == canonical.tobytes()

            shuffled = canonical[np.random.default_rng(4).permutation(len(canonical))]
            assert extraction._canonical_tail(shuffled, (0, 0)) is None
            with pytest.raises(ValueError, match="order"):
                OverlapSet(shuffled)
            write_overlap_file(path, [shuffled], SENSOR)
            with pytest.raises(FormatError, match=re.escape(f"{path}: ") + ".*order"):
                read_overlap_file(path)

    def test_order_checked_across_chunks(self, tmp_path, monkeypatch):
        # chunks of 7 records over pairs of equal current indices: a swap
        # of two records at, just before or just after a chunk seam, or at
        # either end, is found, whether it puts a current index (odd i) or
        # the (offset, adjacent, rank) key of one current index (even i)
        # out of order
        monkeypatch.setattr(extraction, "_ORDER_CHUNK", 7)
        rec = overlap_records(50, seed=8)
        rec["current_index"] //= 2
        rec["adjacent_index"] = np.random.default_rng(8).permutation(50)  # unique keys
        keys = [rec[name] for name in ("sample_rank", "adjacent_index", "scan_offset", "current_index")]
        canonical = rec[np.lexsort(keys)]
        for run in (canonical, canonical[:1], canonical[:0]):
            assert extraction._canonical_tail(run, (0, 0)) is not None
        for i in (0, 1, 5, 6, 7, 12, 13, 14, 20, 47, 48):
            swapped = canonical.copy()
            swapped[[i, i + 1]] = swapped[[i + 1, i]]
            assert extraction._canonical_tail(swapped, (0, 0)) is None, i

        # the beam order of .trcn records, read by the same walk: tied beams
        # pass, and a swap of two beams (odd i), at, just before or just
        # after a chunk seam, or at the end, is refused
        beams = recon_set(50, seed=8)
        beams.records["current_index"] //= 2
        path = tmp_path / "x.trcn"
        write_recon_file(path, beams)
        assert read_recon_file(path).records.tobytes() == beams.records.tobytes()
        for i in (1, 5, 7, 13, 47):
            swapped = beams.records.copy()
            swapped[[i, i + 1]] = swapped[[i + 1, i]]
            write_recon_file(path, ReconSet(swapped))
            with pytest.raises(FormatError, match="beam index order"):
                read_recon_file(path)

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
    """Sets go to the file as they are held, block by block; a block in
    another layout is cast to the stored one, one block at a time."""

    def test_bytes_equal_a_whole_set_cast(self, tmp_path):
        canonical = OverlapSet(overlap_records(1000, seed=5)).records
        shuffled = canonical[np.random.default_rng(5).permutation(len(canonical))]
        head = formats._OVERLAP_HEADER.itemsize
        for i, records in enumerate((shuffled, canonical)):
            path = tmp_path / f"{i}.tovp"
            write_overlap_file(path, OverlapSet(records, presorted=True), SENSOR)
            assert path.read_bytes()[head:] == records.tobytes()
        # float64 blocks, off the float32 grid, are rounded into the stored
        # layout, not written raw
        wide = overlap_records(1000, seed=5).astype(F8_RECORD)
        wide["position"] += 1e-9
        path = tmp_path / "wide.tovp"
        assert write_overlap_file(path, [wide[:400], wide[400:]], SENSOR) == len(wide)
        assert path.read_bytes()[head:] == wide.astype(RECORD_DTYPE).tobytes()
        for n in (0, 1, 1000):
            rset = recon_set(n, seed=n)
            path = tmp_path / f"{n}.trcn"
            write_recon_file(path, rset)
            data = path.read_bytes()
            assert data[formats._RECON_HEADER.itemsize:] == rset.records.tobytes()

    @pytest.mark.parametrize("sizes", [[], [0, 5, 0, 0, 7, 0], [999, 2, 1003, 1]],
                             ids=["no-blocks", "empty-between", "straddling"])
    def test_blocks_write_the_file_of_one_array(self, tmp_path, sizes):
        records = overlap_records(sum(sizes), seed=len(sizes))
        cuts = np.cumsum([0] + sizes)
        blocks = (records[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:]))
        one, many = tmp_path / "one.tovp", tmp_path / "many.tovp"
        assert write_overlap_file(one, OverlapSet(records, presorted=True), SENSOR) == len(records)
        assert write_overlap_file(many, blocks, SENSOR) == len(records)
        assert many.read_bytes() == one.read_bytes()
        back, _ = read_overlap_file(many)
        assert back.records.tobytes() == records.tobytes()

    def test_peak_memory_is_one_chunk(self, tmp_path):
        # eight float64 blocks, each cast to the stored layout as it comes
        blocks = [overlap_records(1 << 16, seed=k).astype(F8_RECORD) for k in range(8)]
        block_bytes = (1 << 16) * RECORD_DTYPE.itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_overlap_file(tmp_path / "a.tovp", blocks, SENSOR)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # casting every block before writing would hold 8 cast blocks
        assert peak < 1.5 * block_bytes, peak


def read_all(blocks, sizes):
    """The rows that reads of ``sizes`` rows take from ``blocks``, joined."""
    with blocks:
        return np.concatenate([blocks.read(k) for k in sizes])


def error_of(fn):
    """(type, message) of what ``fn()`` raises."""
    with pytest.raises(TovpError) as exc:
        fn()
    return type(exc.value), str(exc.value)


class TestBlocks:
    """Set and .prob files read block by block: the checks and the rows of
    the whole-file readers, holding one block."""

    CORRUPTIONS = {
        "magic": lambda data: b"JUNK" + data[4:],
        "version": lambda data: data[:4] + b"\x09" + data[5:],
        "count": lambda data: data[:6] + b"\x07" + data[7:],
        "short-header": lambda data: data[:20],
        "ragged": lambda data: data[:-5],
    }

    @pytest.mark.parametrize("sizes", [[500], [1, 7, 0, 492], [250, 250]])
    def test_rows_equal_the_whole_file_readers(self, tmp_path, sizes):
        records = overlap_records(500, seed=2)
        digest = bytes(range(16))
        write_overlap_file(tmp_path / "x.tovp", [records[:123], records[123:]], SENSOR, digest)
        blocks = formats.overlap_blocks(tmp_path / "x.tovp")
        assert (blocks.count, blocks.info) == (500, read_overlap_file(tmp_path / "x.tovp")[1])
        assert read_all(blocks, sizes).tobytes() == records.tobytes()
        rset = recon_set(500, seed=2)
        write_recon_file(tmp_path / "x.trcn", rset)
        assert read_all(formats.recon_blocks(tmp_path / "x.trcn"), sizes).tobytes() == rset.records.tobytes()
        write_probabilities(tmp_path / "x.prob", np.random.default_rng(2).dirichlet([1, 1, 1], size=500))
        rows = read_all(formats.probability_blocks(tmp_path / "x.prob", expected_count=500), sizes)
        assert rows.shape == (500, 3)
        assert rows.tobytes() == read_probabilities(tmp_path / "x.prob").tobytes()

    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("make,write,read,blocks", [
        (SET_FILES[0][0], SET_FILES[0][1], read_overlap_file, formats.overlap_blocks),
        (recon_set, write_recon_file, read_recon_file, formats.recon_blocks),
    ], ids=["tovp", "trcn"])
    def test_header_and_length_errors_equal_the_whole_file_readers(self, tmp_path, corrupt, make,
                                                                    write, read, blocks):
        path = tmp_path / "x.bin"
        write(path, make(3))
        path.write_bytes(self.CORRUPTIONS[corrupt](path.read_bytes()))
        assert error_of(lambda: blocks(path)) == error_of(lambda: read(path))

    def test_bad_header_sensor_and_prob_lengths_equal_the_whole_file_readers(self, tmp_path):
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet(overlap_records(3)), SENSOR)
        data = bytearray(path.read_bytes())
        offset = formats._OVERLAP_HEADER.fields["divergence_angle_rad"][1]
        data[offset:offset + 8] = np.float64(0.5).tobytes()
        path.write_bytes(bytes(data))
        assert error_of(lambda: formats.overlap_blocks(path)) == error_of(lambda: read_overlap_file(path))
        probs = tmp_path / "x.prob"
        for size, count in ((10, None), (36, 4)):
            probs.write_bytes(b"\x00" * size)
            assert (error_of(lambda: formats.probability_blocks(probs, expected_count=count))
                    == error_of(lambda: read_probabilities(probs, expected_count=count)))

    def test_overlap_order_checked_across_blocks(self, tmp_path):
        # a swap at, just before or just after a seam between reads of 7
        # records, or at either end, is a FormatError naming the file, as
        # read_overlap_file raises it on the whole file
        rec = overlap_records(50, seed=8)
        rec["current_index"] //= 2
        rec["adjacent_index"] = np.random.default_rng(8).permutation(50)
        canonical = rec[np.lexsort([rec[name] for name in
                                    ("sample_rank", "adjacent_index", "scan_offset", "current_index")])]
        path = tmp_path / "x.tovp"
        write_overlap_file(path, [canonical], SENSOR)
        assert read_all(formats.overlap_blocks(path), [7] * 7 + [1]).tobytes() == canonical.tobytes()
        for i in (0, 5, 6, 7, 13, 48):
            swapped = canonical.copy()
            swapped[[i, i + 1]] = swapped[[i + 1, i]]
            write_overlap_file(path, [swapped], SENSOR)
            want = error_of(lambda: read_overlap_file(path))
            assert want[0] is FormatError and want[1].startswith(f"{path}: ")
            assert error_of(lambda: read_all(formats.overlap_blocks(path), [7] * 7 + [1])) == want, i

    def test_recon_beam_order_checked_across_blocks(self, tmp_path):
        path = tmp_path / "x.trcn"
        for beams in ([0, 0, 1, 1, 0], [0, 1, 1, 2, 2, 1], [3, 2]):
            rec = np.zeros(len(beams), dtype=RECON_DTYPE)
            rec["current_index"] = beams
            write_recon_file(path, ReconSet(rec))
            want = (FormatError, f"{path}: reconstruction records are not in beam index order")
            assert error_of(lambda: read_all(formats.recon_blocks(path), [2] * (len(beams) // 2)
                                             + [1] * (len(beams) % 2))) == want
            assert error_of(lambda: read_recon_file(path)) == want

    def test_a_read_past_the_end_is_truncated(self, tmp_path):
        path = tmp_path / "x.tovp"
        write_overlap_file(path, OverlapSet(overlap_records(3)), SENSOR)
        with formats.overlap_blocks(path) as blocks:
            blocks.read(2)
            with pytest.raises(TruncatedFile, match="ended 4 records early"):
                blocks.read(5)


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

    def test_read_gives_the_stored_layout(self, tmp_path):
        # overlap and recon sets alike
        assert (RECORD_DTYPE.itemsize, RECON_DTYPE.itemsize) == (31, 21)
        for make, write, read, header in SET_FILES:
            path = tmp_path / "x.set"
            held = make(70_000)
            write(path, held)
            records = read(path).records
            assert records.dtype == held.record_dtype
            assert records.tobytes() == path.read_bytes()[header.itemsize:]

    def test_write_and_read_hold_no_second_copy(self, tmp_path):
        # overlap and recon sets alike
        for make, write, read, _ in SET_FILES:
            held = make(1 << 19, seed=6)
            path = tmp_path / "x.set"
            payload = held.records.nbytes
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write(path, held)
                write_peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                back = read(path)
                read_peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # a write casts nothing, and a read holds no stored bytes beside
            # the result: the overlap read checks its order one chunk of keys
            # at a time (whole-set keys peaked at 1.55x, a chunked cast read
            # at 1.125x)
            assert write_peak < payload / 8, write_peak
            assert read_peak < 1.1 * payload, read_peak
            assert back.records.tobytes() == held.records.tobytes()

    @pytest.mark.parametrize("make, write, read, n", [
        SET_FILES[0][:3] + (1 << 20,),
        SET_FILES[1][:3] + (1 << 21,),
    ], ids=["tovp", "trcn"])
    def test_whole_read_holds_one_chunk_of_keys(self, tmp_path, make, write, read, n):
        # the order check of a whole-file read takes one chunk of keys at a
        # time: a key of 8 bytes per overlap record would add 8 MB here,
        # and a beam-order test over 2^21 recon records at once 2 MB
        held = make(n, seed=7)
        path = tmp_path / "x.set"
        write(path, held)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = read(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= held.records.nbytes + 8 * extraction._ORDER_CHUNK + (1 << 20), peak
        assert back.records.tobytes() == held.records.tobytes()


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
        assert back.dtype == np.float32 and back.shape == (20, 3)
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
        # absent, or null (which must not become the text "None")
        obj = {"instance_id": "a", "category": "HUMAN", "center": [0, 0, 0],
               "size": [1, 1, 1], "yaw": 0.0, "time": 0.0}
        path = tmp_path / "boxes.jsonl"
        import json
        for bad in ({k: v for k, v in obj.items() if k != missing}, {**obj, missing: None}):
            path.write_text(json.dumps(bad) + "\n")
            with pytest.raises(SchemaViolation, match=missing):
                read_boxes(path)

    @pytest.mark.parametrize("key, value", [("center", [0.0, float("nan"), 0.0]), ("size", [1.0, float("inf"), 1.0]),
                                            ("yaw", float("nan")), ("time", float("-inf"))])
    def test_non_finite_field_named(self, tmp_path, key, value):
        import json
        obj = {"instance_id": "a", "category": "HUMAN", "center": [0, 0, 0],
               "size": [1, 1, 1], "yaw": 0.0, "time": 0.0, key: value}
        path = tmp_path / "boxes.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaViolation, match=f"{key}.*finite"):
            read_boxes(path)

    # each of these was once read as another box (true as 1.0 rad, "123" as
    # [1, 2, 3], 5 as "5") or dropped a key, and `tovp label` exited 0
    @pytest.mark.parametrize("key, value, message", [
        ("yaw", True, "yaw must be a finite number, got True"),
        ("time", "0.5", "time must be a finite number, got '0.5'"),
        ("center", "123", "center must be 3 finite numbers, got '123'"),
        ("instance_id", 5, "instance_id must be a string, got 5"),
        ("velocity", [1.0, 0.0, 0.0], "velocity is not a known key"),
    ])
    def test_value_of_another_kind_named(self, tmp_path, capsys, key, value, message):
        obj = {"instance_id": "a", "category": "HUMAN", "center": [0, 0, 0],
               "size": [1, 1, 1], "yaw": 0.0, "time": 0.0, key: value}
        path = tmp_path / "boxes.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaViolation, match=re.escape(f"{path}:1: {message}")):
            read_boxes(path)
        (tmp_path / "scans").mkdir()
        write_scan_bin(tmp_path / "scans" / "000000.bin", np.zeros((1, 3)))
        out = tmp_path / "labels"
        assert main(["label", "--scans", str(tmp_path / "scans"), "--boxes", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}:1: {message}\n"
        assert not out.exists()

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


FORMATS_MD = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
# a type column of docs/formats.md as a numpy field type
DOC_TYPES = {"u8": "u1", "i8": "i1", "u32": "<u4", "f32": "<f4", "3 x f32": ("<f4", (3,))}


def documented_records(heading):
    """(name, dtype, offset) of each row of the last table in the section
    of docs/formats.md under ``heading``: its record table."""
    section = FORMATS_MD.read_text().split(f"\n## {heading}\n")[1].split("\n## ")[0]
    table = re.findall(r"((?:^\|.*\|\n)+)", section, flags=re.M)[-1]
    rows = []
    for line in table.splitlines()[2:]:  # past the head and the rule
        offset, kind, field = (cell.strip() for cell in line.strip("|").split("|"))
        name = re.match(r"[a-z_]+", field).group()
        rows.append((name, np.dtype(DOC_TYPES[kind]), int(offset)))
    return rows


class TestRecordTablesOfTheDocs:
    """docs/formats.md describes each record layout field by field, in
    name, type and offset, as the dtype the code writes."""

    @pytest.mark.parametrize("heading, dtype", [
        ("Overlap sets (`.tovp`)", RECORD_DTYPE),
        ("Reconstruction sets (`.trcn`)", RECON_DTYPE),
    ])
    def test_table_matches_the_dtype(self, heading, dtype):
        fields = [(name, dtype.fields[name][0], dtype.fields[name][1]) for name in dtype.names]
        assert documented_records(heading) == fields


class TestExamplesOfTheDocs:
    def test_scene_and_box_line_parse(self, tmp_path):
        # the worked examples of docs/formats.md hold to the readers' rules
        text = FORMATS_MD.read_text()
        scene = tmp_path / "scene.yaml"
        scene.write_text(re.search(r"```yaml\n(.*?)```", text, flags=re.S).group(1))
        sim = read_scene(scene)
        assert [box.instance_id for box in sim.scene.all_boxes()] == ["box0", "parked", "crosser"]
        assert len(sim.times) == 10 and sim.lidar.n_azimuths == 1024
        boxes = tmp_path / "boxes.jsonl"
        line = re.search(r"```json\n(.*?)```", text, flags=re.S).group(1).replace("\n", " ")
        boxes.write_text(line + "\n")
        (track,) = read_boxes(boxes)
        assert (track.instance_id, track.category, float(track.timestamps[0])) == ("car0", "VEHICLE", 0.5)


class TestCheckKind:
    @pytest.mark.parametrize("kind, good, bad", [
        ("an integer >= 1", [1, 7], [0, 1.0, True, "1", 10**400]),
        ("a finite number > 0", [0.5, 2], [0, -1.0, float("nan"), float("inf"), True, "0.5"]),
        ("3 finite numbers > 0", [[1, 2, 3], (0.5, 1, 1)], [[1, 2], [1, 0, 1], "123", [1, float("nan"), 1]]),
        ("a boolean", [True, False], [0, "false", None]),
        ("a string", ["x", ""], [5, None]),
        ("a list", [[], [1]], [(), {}]),
        ("one of HUMAN, CYCLE, VEHICLE", ["HUMAN"], ["TREE", "human", 5]),
        ("a mapping of category to 2 finite numbers", [{}, {"HUMAN": [0.4, 0.6]}], [{"HUMAN": [1]}, []]),
    ])
    def test_kinds(self, kind, good, bad):
        for value in good:
            assert formats.check_kind(value, kind, "key") is value
        for value in bad:
            with pytest.raises(SchemaViolation, match=re.escape(f"key must be {kind}, got {value!r}")):
                formats.check_kind(value, kind, "key")

    @pytest.mark.parametrize("kind", ["a numbr", "an integr", "a number", "a finite number => 0",
                                      "an integer > x", "3 finite numbers => 0",
                                      "a mapping of category to 2 numbrs"])
    def test_unknown_kind_is_a_fault_of_the_caller(self, kind):
        # once read as "a number", or "=>" as ">", whatever the value
        for value in (5, 0.5, "x", None, [1, 2, 3], {}):
            with pytest.raises(ValueError) as raised:
                formats.check_kind(value, kind, "key")
            assert not isinstance(raised.value, TovpError)


class TestReports:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        report = {"iou_conventional": 91.3, "flags": [], "counts": {"tp": 105}}
        write_report(path, report)
        with open(path) as fh:
            assert json.load(fh) == report


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
        # a list, and a {min, max, count} mapping of the same values, give
        # equal float64 arrays, and so the same beams
        lidars = []
        for form in ("[-0.1, 0.0, 0.1]", "{min: -0.1, max: 0.1, count: 3}"):
            path = tmp_path / "scene.yaml"
            path.write_text(f"lidar:\n  elevations_rad: {form}\n  azimuth_count: 64\n"
                            "trajectory:\n  count: 1\n  period_s: 0.5\n  start: [0, 0, 1]\n")
            sim = read_scene(path)
            assert sim.lidar.elevation_angles_rad.dtype == np.float64
            np.testing.assert_array_equal(sim.lidar.elevation_angles_rad, [-0.1, 0.0, 0.1])
            assert sim.scene.all_boxes() == []
            lidars.append(sim.lidar)
        assert lidars[0].ray_directions().tobytes() == lidars[1].ray_directions().tobytes()

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

    def test_scan_count_bound(self, tmp_path, monkeypatch):
        # scans are named {i:06d}.bin and read back in name order, so a
        # seventh digit would sort scan 1000000 first
        assert formats.MAX_SCANS == 10 ** 6
        path = tmp_path / "scene.yaml"
        text = ("lidar:\n  elevations_rad: [0.0]\n  azimuth_count: 8\n"
                "trajectory:\n  count: {}\n  period_s: 0.5\n  start: [0, 0, 1]\n")
        path.write_text(text.format(10 ** 6 + 1))
        with pytest.raises(SchemaViolation, match=re.escape(
                f"{path}: trajectory.count must be at most 1000000, got 1000001")):
            read_scene(path)
        monkeypatch.setattr(formats, "MAX_SCANS", 3)
        path.write_text(text.format(3))
        assert len(read_scene(path).times) == 3
        path.write_text(text.format(4))
        with pytest.raises(SchemaViolation, match="at most 3, got 4"):
            read_scene(path)

    def test_beam_count_bound(self, tmp_path):
        # elevations x azimuths, at most 32 times a 64x2048 sensor
        assert formats.MAX_BEAMS == 32 * 64 * 2048
        path = tmp_path / "scene.yaml"
        text = ("lidar:\n  elevations_rad: {}\n  azimuth_count: {}\n"
                "trajectory:\n  count: 1\n  period_s: 0.5\n  start: [0, 0, 1]\n")
        path.write_text(text.format("[0.0, 0.1]", 1 << 21))
        assert read_scene(path).lidar.n_azimuths == 1 << 21
        path.write_text(text.format("[0.0, 0.1]", (1 << 21) + 1))
        with pytest.raises(SchemaViolation, match=re.escape(
                f"{path}: lidar.azimuth_count must be at most 2097152 for 2 elevations, got 2097153")):
            read_scene(path)
        path.write_text(text.format("{min: 0.0, max: 0.1, count: 4194305}", 1))
        with pytest.raises(SchemaViolation, match=re.escape(
                f"{path}: lidar.elevations_rad.count must be at most 4194304, got 4194305")):
            read_scene(path)

    @pytest.mark.parametrize("key, value", [("start", "[.nan, 0.0, 1.7]"), ("velocity", "[2.0, .inf, 0.0]"),
                                            ("yaw_rad", ".nan"), ("period_s", ".nan")])
    def test_non_finite_trajectory(self, tmp_path, key, value):
        # a NaN start once gave NaN poses and exit 0
        traj = {"count": "1", "period_s": "0.5", "start": "[0, 0, 1]", key: value}
        path = tmp_path / "scene.yaml"
        path.write_text("lidar:\n  elevations_rad: [0.0]\n  azimuth_count: 8\ntrajectory:\n"
                        + "".join(f"  {k}: {v}\n" for k, v in traj.items()))
        with pytest.raises(SchemaViolation, match=f"trajectory.{key} must be .*finite"):
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
