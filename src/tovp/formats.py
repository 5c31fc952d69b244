"""On-disk formats: scans, poses, overlap and reconstruction sets, labels,
boxes, scene descriptions, and metric reports.

Binary formats are little-endian and carry a magic plus version so stale
files fail loudly instead of decoding garbage.  Readers validate sizes
before touching content; writers produce files whose read-write round trip
is byte-identical.  Overlap and reconstruction sets are held in their
on-disk record layouts, so they are written and read without a cast.
They and ``.prob`` rows are read whole, or block by block through
:class:`Blocks` with the same checks, so a reader of any file size can
hold one block.

The modules that only one format needs (PyYAML and ``simulator`` for
scenes, ``extraction`` and ``recon`` for record sets, ``hashlib`` for the
config digest) are imported inside the functions that use them, so a
command loads only what its own formats need.
"""

import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ._boxes import yaw_matrix
from .errors import (
    BadLength,
    CountMismatch,
    FormatError,
    LengthMismatch,
    MagicMismatch,
    MalformedLine,
    NonRigid,
    SchemaViolation,
    TruncatedFile,
    VersionUnsupported,
)
from .labeling import CATEGORIES, TrackedBox
from .sensor_model import ORTHONORMAL_TOL, RecordSet, RigidTransform, SensorConfig

if TYPE_CHECKING:
    from .extraction import ExtractionConfig
    from .recon import ReconSet
    from .simulator import SceneSpec, SpinningLidarSpec

FORMAT_VERSION = 1

OVERLAP_MAGIC = b"TOVP"
RECON_MAGIC = b"TRCN"

# struct layout: magic, version, count, sensor echo, extraction-config hash
_OVERLAP_HEADER = np.dtype([
    ("magic", "S4"),
    ("version", "<u2"),
    ("count", "<u8"),
    ("divergence_angle_rad", "<f8"),
    ("occupied_confidence_threshold", "<f8"),
    ("decay_rate_per_meter", "<f8"),
    ("config_hash", "V16"),
])

_RECON_HEADER = np.dtype([
    ("magic", "S4"),
    ("version", "<u2"),
    ("count", "<u8"),
])


def config_hash(cfg: "ExtractionConfig", sensor: SensorConfig) -> bytes:
    """16-byte digest of every knob that shapes an overlap file's content."""
    import hashlib

    payload = {"extraction": asdict(cfg), "sensor": asdict(sensor)}
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.md5(text.encode()).digest()


# -- point cloud scans --------------------------------------------------------

def _row_count(fh, path, dtype: np.dtype, unit: str, expected_count=None) -> int:
    """The rows of ``dtype`` in the headerless file open as ``fh``: a file
    that is not a whole number of rows is a BadLength, and one of other than
    ``expected_count`` rows, when given, a LengthMismatch; ``unit`` names
    the rows in both messages."""
    size = os.fstat(fh.fileno()).st_size
    if size % dtype.itemsize != 0:
        raise BadLength(f"{path}: {size} bytes is not a whole number "
                        f"of {dtype.itemsize}-byte {unit}")
    if expected_count is not None and size // dtype.itemsize != expected_count:
        raise LengthMismatch(f"{path}: {size // dtype.itemsize} {unit} for "
                             f"{expected_count} points")
    return size // dtype.itemsize


def _rows(path, dtype, unit: str, expected_count=None) -> np.ndarray:
    """The rows of ``dtype`` in a headerless file, read with ``np.fromfile``
    once :func:`_row_count` has checked the file's length."""
    dtype = np.dtype(dtype)
    with open(path, "rb") as fh:
        _row_count(fh, path, dtype, unit, expected_count)
        return np.fromfile(fh, dtype=dtype)


def read_scan_bin(path):
    """Read x, y, z, intensity float32 quads.

    Returns (points (N, 3) float64, intensities (N,) float32).
    """
    quads = _rows(path, ("<f4", 4), "points")
    return quads[:, :3].astype(np.float64), quads[:, 3].copy()


def write_scan_bin(path, points, intensities=None):
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    quads = np.empty((len(pts), 4), dtype="<f4")
    quads[:, :3] = pts
    quads[:, 3] = 0.0 if intensities is None else np.asarray(intensities)
    quads.tofile(path)


# -- pose files ---------------------------------------------------------------

def _parse_pose_row(values: np.ndarray, where: str) -> RigidTransform:
    mat = values.reshape(3, 4)
    rot, trans = mat[:, :3], mat[:, 3]
    deviation = float(np.max(np.abs(rot.T @ rot - np.eye(3))))
    if deviation > 1e-2:
        raise NonRigid(f"{where}: rotation deviates from orthonormal by {deviation:.3g}")
    if deviation > ORTHONORMAL_TOL:
        # polar decomposition: nearest rotation in the Frobenius sense
        u, _, vt = np.linalg.svd(rot)
        rot = u @ vt
    if np.linalg.det(rot) <= 0.0:
        raise NonRigid(f"{where}: rotation is a reflection")
    return RigidTransform(rotation=np.ascontiguousarray(rot), translation=trans.copy())


def read_poses(path):
    """Read one 3x4 row-major rigid transform per line."""
    poses = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 12:
                raise MalformedLine(f"{path}:{lineno}: expected 12 numbers, "
                                    f"got {len(parts)}")
            try:
                values = np.array([float(p) for p in parts])
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: non-numeric token") from None
            if not np.all(np.isfinite(values)):
                raise MalformedLine(f"{path}:{lineno}: non-finite number")
            poses.append(_parse_pose_row(values, f"{path}:{lineno}"))
    return poses


def write_poses(path, poses):
    with open(path, "w") as fh:
        for pose in poses:
            mat = np.hstack([pose.rotation, pose.translation[:, None]])
            fh.write(" ".join(f"{v:.17g}" for v in mat.reshape(-1)) + "\n")


# -- overlap and reconstruction sets ------------------------------------------

def _write_set(path, magic: bytes, header_dtype, record_dtype, blocks, **header_fields) -> int:
    """Write a magic/version/count header (plus ``header_fields``), then
    the records of each array in ``blocks`` as it comes, and then patch
    ``count``; returns it.  Sets are held in their on-disk ``record_dtype``,
    so a block goes to the file as it is; one in another layout is copied
    into it first, and its raw bytes are never written."""
    header = np.zeros(1, dtype=header_dtype)
    header["magic"] = magic
    header["version"] = FORMAT_VERSION
    for name, value in header_fields.items():
        header[name] = value
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        for records in blocks:
            np.asarray(records, dtype=record_dtype).tofile(fh)
            header["count"] += len(records)
            del records  # freed before the next block is made
        fh.seek(0)
        fh.write(header.tobytes())
    return int(header["count"][0])


def _set_header(fh, path, magic: bytes, header_dtype, record_dtype):
    """Validate the header and the length of the file open as ``fh``, one
    written by :func:`_write_set`; returns (header, record count), with
    ``fh`` at the first record."""
    head = fh.read(header_dtype.itemsize)
    size = os.fstat(fh.fileno()).st_size
    if head[:4] != magic:  # checked first so a wrong file type names itself
        raise MagicMismatch(f"{path}: expected magic {magic!r}, found {head[:4]!r}")
    if len(head) < header_dtype.itemsize:
        raise TruncatedFile(f"{path}: {size} bytes is shorter than the "
                            f"{header_dtype.itemsize}-byte header")
    header = np.frombuffer(head, dtype=header_dtype, count=1)[0]
    if header["version"] != FORMAT_VERSION:
        raise VersionUnsupported(f"{path}: version {int(header['version'])} "
                                 f"(supported: {FORMAT_VERSION})")
    payload = size - header_dtype.itemsize
    if payload % record_dtype.itemsize != 0:
        raise TruncatedFile(f"{path}: payload of {payload} bytes is not a "
                            f"whole number of {record_dtype.itemsize}-byte records")
    n_stored = payload // record_dtype.itemsize
    if n_stored != int(header["count"]):
        raise CountMismatch(f"{path}: header promises {int(header['count'])} "
                            f"records, file holds {n_stored}")
    return header, n_stored


def _read_set(path, magic: bytes, header_dtype, record_dtype):
    """Validate and decode a file written by :func:`_write_set`; returns
    (header, records), read straight into an array of ``record_dtype``."""
    with open(path, "rb") as fh:
        header, n_stored = _set_header(fh, path, magic, header_dtype, record_dtype)
        records = np.fromfile(fh, dtype=record_dtype, count=n_stored)
    if len(records) != n_stored:
        raise TruncatedFile(f"{path}: ended after {len(records)} of {n_stored} records")
    return header, records


class Blocks:
    """The records of a set file, or the rows of a ``.prob`` file, in file
    order: each :meth:`read` takes the next ``k`` with one ``np.fromfile``,
    so a reader holds one block whatever the file's size.  ``check(fh)``
    validates the header and the length, as the whole-file readers do,
    before any record is read, and returns (record count, info).
    ``order``, when given, is (step, key before the first record, message):
    ``step(block, key)`` returns the key of the block's last record, or
    None when the block falls out of order, a FormatError naming the file.
    A context manager that closes the file."""

    def __init__(self, path, dtype, check, order=(None, None, None)):
        self.path, self._dtype = path, np.dtype(dtype)
        self._step, self._key, self._message = order
        self._fh = open(path, "rb")
        try:
            self.count, self.info = check(self._fh)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, k: int) -> np.ndarray:
        block = np.fromfile(self._fh, dtype=self._dtype, count=k)
        if len(block) != k:
            raise TruncatedFile(f"{self.path}: ended {k - len(block)} records early")
        if self._step and k:
            self._key = self._step(block, self._key)
            if self._key is None:
                raise FormatError(f"{self.path}: {self._message}")
        return block


@dataclass(frozen=True)
class OverlapFileInfo:
    sensor: SensorConfig
    config_hash: bytes


def _overlap_info(path, header) -> OverlapFileInfo:
    """The sensor and the digest a ``.tovp`` header echoes; a sensor value
    that SensorConfig refuses is a SchemaViolation naming the file."""
    try:
        sensor = SensorConfig(**{f.name: float(header[f.name]) for f in fields(SensorConfig)})
    except ValueError as e:
        raise SchemaViolation(f"{path}: header: {e}") from None
    return OverlapFileInfo(sensor=sensor, config_hash=bytes(header["config_hash"]))


def write_overlap_file(path, overlaps, sensor: SensorConfig,
                       config_digest: bytes = b"\x00" * 16) -> int:
    """Write ``overlaps``, an OverlapSet or an iterable of canonically
    ordered record arrays that joined end to end form one, written as they
    come; returns the record count.  The reader checks that order."""
    if len(config_digest) != 16:
        raise ValueError("config digest must be 16 bytes")
    from .extraction import RECORD_DTYPE

    blocks = [overlaps.records] if isinstance(overlaps, RecordSet) else overlaps
    return _write_set(path, OVERLAP_MAGIC, _OVERLAP_HEADER, RECORD_DTYPE, blocks,
                      **asdict(sensor), config_hash=config_digest)


def read_overlap_file(path):
    """Returns (OverlapSet, OverlapFileInfo), the set's records in the
    stored layout, ``extraction.RECORD_DTYPE``.  Records out of canonical
    order are a FormatError, never sorted: ``.prob`` rows pair in file order."""
    from .extraction import RECORD_DTYPE, OverlapSet

    header, rec = _read_set(path, OVERLAP_MAGIC, _OVERLAP_HEADER, RECORD_DTYPE)
    info = _overlap_info(path, header)
    try:
        return OverlapSet(rec), info
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def overlap_blocks(path) -> Blocks:
    """:class:`Blocks` of a ``.tovp`` file, its info an OverlapFileInfo,
    refusing records out of canonical order as :func:`read_overlap_file`
    does, one block at a time."""
    from .extraction import _OUT_OF_ORDER, RECORD_DTYPE, _canonical_tail

    def check(fh):
        header, count = _set_header(fh, path, OVERLAP_MAGIC, _OVERLAP_HEADER, RECORD_DTYPE)
        return count, _overlap_info(path, header)

    return Blocks(path, RECORD_DTYPE, check, (_canonical_tail, (0, 0), _OUT_OF_ORDER))


def write_recon_file(path, rset: "ReconSet"):
    """Write the records of ``rset`` as they are held: ``recon.RECON_DTYPE``
    is the on-disk record layout."""
    from .recon import RECON_DTYPE

    _write_set(path, RECON_MAGIC, _RECON_HEADER, RECON_DTYPE, [rset.records])


def read_recon_file(path) -> "ReconSet":
    """Returns the ReconSet of the file's records, in the stored layout."""
    from .recon import RECON_DTYPE, ReconSet

    _, rec = _read_set(path, RECON_MAGIC, _RECON_HEADER, RECON_DTYPE)
    return ReconSet(rec)


def _beam_tail(block: np.ndarray, last: int):
    """The last current index of ``block`` when its records keep beam order
    after a record of beam ``last``: the index never falls; else None."""
    cur = block["current_index"]
    if cur[0] < last or np.any(cur[1:] < cur[:-1]):
        return None
    return int(cur[-1])


def recon_blocks(path) -> Blocks:
    """:class:`Blocks` of a ``.trcn`` file, refusing records out of beam
    order."""
    from .recon import RECON_DTYPE

    def check(fh):
        return _set_header(fh, path, RECON_MAGIC, _RECON_HEADER, RECON_DTYPE)[1], None

    return Blocks(path, RECON_DTYPE, check,
                  (_beam_tail, 0, "reconstruction records are not in beam index order"))


# -- labels, predictions, probabilities ----------------------------------------

_PROBABILITY = np.dtype(("<f4", 3))  # one (free, occupied, unknown) row

def read_labels(path, expected_count=None) -> np.ndarray:
    return _rows(path, np.uint8, "labels", expected_count)


def write_labels(path, labels):
    np.asarray(labels, dtype=np.uint8).tofile(path)


def read_probabilities(path, expected_count=None) -> np.ndarray:
    """Float32 (M, 3) state distributions, as stored: the losses widen
    them to float64 one leaf of their sum at a time."""
    return _rows(path, _PROBABILITY, "rows", expected_count)


def probability_blocks(path, expected_count=None) -> Blocks:
    """:class:`Blocks` of the rows of a ``.prob`` file, checked as
    :func:`read_probabilities` checks them."""
    return Blocks(path, _PROBABILITY, lambda fh: (
        _row_count(fh, path, _PROBABILITY, "rows", expected_count), None))


def write_probabilities(path, probs):
    np.asarray(probs, dtype="<f4").reshape(-1, 3).tofile(path)


# -- values of YAML and JSON inputs ---------------------------------------------

def read_yaml(path):
    """The document of the YAML file at ``path``, the one parse of a config
    file and of a scene: YAML that does not parse is a MalformedLine naming
    the file."""
    import yaml

    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise MalformedLine(f"{path}: {e}") from None


_TYPES = {"a string": str, "a boolean": bool, "a mapping": dict, "a list": list}
_CATEGORY = "one of " + ", ".join(CATEGORIES)


def _has_kind(value, kind: str) -> bool:
    """``value`` is of ``kind``: one of ``_TYPES``, ``_CATEGORY``, "a
    mapping of <keys> to <kind>", "<n> finite numbers", or "an integer" or
    "a finite number", the last three bounded below or not, as in "a finite
    number > 0".  A number is an int or a float, never a bool, and finite
    in float64: no inf, NaN or overflowing value, an integer included.  A
    kind outside this grammar is a ValueError, a fault of the caller."""
    if kind in _TYPES:
        return isinstance(value, _TYPES[kind])
    if kind == _CATEGORY:
        return value in CATEGORIES
    head, _, inner = kind.partition(" to ")
    if head.startswith("a mapping of "):
        _has_kind(None, inner)  # None is of no kind: this only vets ``inner``
        return isinstance(value, dict) and all(_has_kind(v, inner) for v in value.values())
    count, _, bound = kind.partition(" finite numbers")
    if count.isdigit():
        element = "a finite number" + bound
        _has_kind(None, element)  # vets ``element`` as above
        return (isinstance(value, (list, tuple)) and len(value) == int(count)
                and all(_has_kind(v, element) for v in value))
    for name, types in (("an integer", int), ("a finite number", (int, float))):
        op, _, least = kind[len(name):].strip().partition(" ")
        if kind.startswith(name) and op in ("", ">", ">="):
            least = float(least or "-inf")
            if isinstance(value, bool) or not isinstance(value, types) or not abs(value) <= sys.float_info.max:
                return False  # abs(nan) <= max is False too
            return value > least if op == ">" else value >= least
    raise ValueError(f"unknown kind {kind!r}")


def check_kind(value, kind: str, name: str):
    """``value``, when it is of ``kind`` (see :func:`_has_kind`), otherwise a
    SchemaViolation calling it ``name``: the check of every config, scene
    and box value."""
    if not _has_kind(value, kind):
        raise SchemaViolation(f"{name} must be {kind}, got {value!r}")
    return value


def check_keys(mapping: dict, known, where: str) -> None:
    """A key of ``mapping`` outside ``known`` is a SchemaViolation, named
    as :func:`_field` names a field: a mistyped key would drop its value."""
    unknown = sorted(map(str, set(mapping).difference(known)))
    if unknown:
        raise SchemaViolation(f"{where}{unknown[0]} is not a known key")


def _field(mapping: dict, key: str, kind: str, where: str, default=None):
    """``mapping[key]``, or ``default`` for an absent field, through
    :func:`check_kind`, which takes a null as of no kind; with no default,
    an absent field is missing.  ``where`` goes before ``key`` in a message:
    the file, then the path of the mapping and a dot (``"scene.yaml: lidar."``)."""
    if key not in mapping and default is None:
        raise SchemaViolation(f"{where}{key} is missing")
    return check_kind(mapping.get(key, default), kind, where + key)


# -- tracked boxes (JSON lines, one keyframe per line) --------------------------

# every field of a keyframe line, and its kind
_KEYFRAME = {"instance_id": "a string", "category": _CATEGORY, "center": "3 finite numbers",
             "size": "3 finite numbers > 0", "yaw": "a finite number", "time": "a finite number"}


def read_boxes(path):
    """Read tracked boxes, grouping keyframe lines by instance id.

    Keyframes may appear in any order; they are sorted by time per track.
    """
    by_instance = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as e:
                raise MalformedLine(f"{path}:{lineno}: {e.msg}") from None
            if not isinstance(obj, dict):
                raise MalformedLine(f"{path}:{lineno}: expected a JSON object")
            where = f"{path}:{lineno}: "
            check_keys(obj, _KEYFRAME, where)
            kf = {key: _field(obj, key, kind, where) for key, kind in _KEYFRAME.items()}
            if not kf["instance_id"]:
                raise SchemaViolation(f"{where}instance_id must be non-empty")
            by_instance.setdefault(kf["instance_id"], []).append(kf)

    tracks = []
    for instance_id, kfs in by_instance.items():
        kfs.sort(key=lambda k: k["time"])
        categories = {k["category"] for k in kfs}
        if len(categories) > 1:
            raise SchemaViolation(f"{path}: track {instance_id!r} changes "
                                  f"category across keyframes: {sorted(categories)}")
        try:
            tracks.append(TrackedBox(
                instance_id=instance_id,
                category=kfs[0]["category"],
                centers=[k["center"] for k in kfs],
                sizes=[k["size"] for k in kfs],
                yaws=[k["yaw"] for k in kfs],
                timestamps=[k["time"] for k in kfs],
            ))
        except ValueError as e:
            raise SchemaViolation(f"{path}: track {instance_id!r}: {e}") from None
    return tracks


def write_boxes(path, boxes):
    with open(path, "w") as fh:
        for box in boxes:
            for k in range(box.n_keyframes):
                fh.write(json.dumps({
                    "instance_id": box.instance_id,
                    "category": box.category,
                    "center": box.centers[k].tolist(),
                    "size": box.sizes[k].tolist(),
                    "yaw": float(box.yaws[k]),
                    "time": float(box.timestamps[k]),
                }, sort_keys=True) + "\n")


# -- reports --------------------------------------------------------------------

def write_report(path, report: dict):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- scene descriptions -----------------------------------------------------------

# most scans a scene may ask for: ``simulate`` names scan i ``{i:06d}.bin``
# and scan directories are read in name order, so a seventh digit would
# sort scan 1000000 before scan 1
MAX_SCANS = 1_000_000

@dataclass(frozen=True)
class SimScene:
    """A self-contained simulation setup: world, scan pattern, trajectory."""

    scene: "SceneSpec"
    lidar: "SpinningLidarSpec"
    poses: list
    times: list
    period_s: float


def read_scene(path) -> SimScene:
    """Parse a YAML scene description.

    Top-level keys: ``boxes`` (list), ``ground_plane`` (bool), ``lidar``
    (scan pattern), ``trajectory`` (linear sensor motion); a key that no
    mapping of the file takes is refused.  See docs/formats.md for a worked
    example and the kind of every field.
    """
    from .simulator import SceneBox, SceneSpec, SpinningLidarSpec

    doc = read_yaml(path)
    where = f"{path}: "
    check_kind(doc, "a mapping", where + "top level")
    check_keys(doc, ("boxes", "ground_plane", "lidar", "trajectory"), where)

    static, moving = [], []
    for i, raw in enumerate(_field(doc, "boxes", "a list", where, [])):
        at = f"{where}boxes[{i}]"
        check_keys(check_kind(raw, "a mapping", at), ("center", "size", "yaw", "velocity", "category",
                                                      "instance_id"), at + ".")
        at += "."
        box = SceneBox(
            center=tuple(map(float, _field(raw, "center", "3 finite numbers", at))),
            size=tuple(map(float, _field(raw, "size", "3 finite numbers > 0", at))),
            yaw=float(_field(raw, "yaw", "a finite number", at, 0.0)),
            velocity=tuple(map(float, _field(raw, "velocity", "3 finite numbers", at, (0.0, 0.0, 0.0)))),
            category=_field(raw, "category", _CATEGORY, at, "VEHICLE"),
            instance_id=_field(raw, "instance_id", "a string", at, f"box{i}"),
        )
        (moving if box.is_moving else static).append(box)
    scene = SceneSpec(static_boxes=static, moving_boxes=moving,
                      ground_plane=_field(doc, "ground_plane", "a boolean", where, False))

    lidar = _field(doc, "lidar", "a mapping", where)
    at = where + "lidar."
    check_keys(lidar, ("elevations_rad", "azimuth_count", "max_range_m", "range_noise_std_m"), at)
    elev = lidar.get("elevations_rad")
    if isinstance(elev, dict):
        at_elev = at + "elevations_rad."
        check_keys(elev, ("min", "max", "count"), at_elev)
        elevations = tuple(np.linspace(float(_field(elev, "min", "a finite number", at_elev)),
                                       float(_field(elev, "max", "a finite number", at_elev)),
                                       _field(elev, "count", "an integer >= 1", at_elev)))
    else:
        elevations = tuple(float(check_kind(v, "a finite number", f"{at}elevations_rad[{k}]"))
                           for k, v in enumerate(_field(lidar, "elevations_rad", "a list", at)))
    try:
        spec = SpinningLidarSpec(
            elevation_angles_rad=elevations,
            azimuth_step_rad=2.0 * np.pi / _field(lidar, "azimuth_count", "an integer >= 1", at),
            max_range_m=float(_field(lidar, "max_range_m", "a finite number > 0", at, 120.0)),
            range_noise_std_m=float(_field(lidar, "range_noise_std_m", "a finite number >= 0", at, 0.0)),
        )
    except ValueError as e:
        raise SchemaViolation(f"{path}: lidar: {e}") from None

    traj = _field(doc, "trajectory", "a mapping", where)
    at = where + "trajectory."
    check_keys(traj, ("count", "period_s", "start", "velocity", "yaw_rad"), at)
    count = _field(traj, "count", "an integer >= 1", at)
    if count > MAX_SCANS:
        raise SchemaViolation(f"{at}count must be at most {MAX_SCANS}, got {count}")
    period = float(_field(traj, "period_s", "a finite number > 0", at))
    start = np.array(_field(traj, "start", "3 finite numbers", at), dtype=float)
    velocity = np.array(_field(traj, "velocity", "3 finite numbers", at, (0.0, 0.0, 0.0)), dtype=float)
    rotation = yaw_matrix(float(_field(traj, "yaw_rad", "a finite number", at, 0.0)))

    times = [k * period for k in range(count)]
    poses = [RigidTransform(rotation=rotation, translation=start + velocity * t)
             for t in times]
    return SimScene(scene=scene, lidar=spec, poses=poses, times=times,
                    period_s=period)
