"""On-disk formats: scans, poses, overlap and reconstruction sets, labels,
boxes, scene descriptions, and metric reports.

Binary formats are little-endian and carry a magic plus version so stale
files fail loudly instead of decoding garbage.  Readers validate sizes
before touching content; writers produce files whose read-write round trip
is byte-identical.  Overlap and reconstruction sets are held in their
on-disk record layouts, so they are written and read without a cast.

The modules that only one format needs (PyYAML and ``simulator`` for
scenes, ``extraction`` and ``recon`` for record sets, ``hashlib`` for the
config digest) are imported inside the functions that use them, so a
command loads only what its own formats need.
"""

import json
import os
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

def _rows(path, dtype, unit: str, expected_count=None) -> np.ndarray:
    """The rows of ``dtype`` in a headerless file, read with ``np.fromfile``:
    a file that is not a whole number of rows is a BadLength, and one of
    other than ``expected_count`` rows, when given, a LengthMismatch;
    ``unit`` names the rows in both messages."""
    dtype = np.dtype(dtype)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % dtype.itemsize != 0:
            raise BadLength(f"{path}: {size} bytes is not a whole number "
                            f"of {dtype.itemsize}-byte {unit}")
        if expected_count is not None and size // dtype.itemsize != expected_count:
            raise LengthMismatch(f"{path}: {size // dtype.itemsize} {unit} for "
                                 f"{expected_count} points")
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


def _read_set(path, magic: bytes, header_dtype, record_dtype):
    """Validate and decode a file written by :func:`_write_set`; returns
    (header, records), read straight into an array of ``record_dtype``."""
    with open(path, "rb") as fh:
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
        records = np.fromfile(fh, dtype=record_dtype, count=n_stored)
    if len(records) != n_stored:
        raise TruncatedFile(f"{path}: ended after {len(records)} of {n_stored} records")
    return header, records


@dataclass(frozen=True)
class OverlapFileInfo:
    sensor: SensorConfig
    config_hash: bytes
    version: int


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
    try:
        sensor = SensorConfig(**{f.name: float(header[f.name]) for f in fields(SensorConfig)})
    except ValueError as e:
        raise SchemaViolation(f"{path}: header: {e}") from None
    info = OverlapFileInfo(sensor=sensor, config_hash=bytes(header["config_hash"]),
                           version=int(header["version"]))
    try:
        return OverlapSet(rec), info
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


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


# -- labels, predictions, probabilities ----------------------------------------

def read_labels(path, expected_count=None) -> np.ndarray:
    return _rows(path, np.uint8, "labels", expected_count)


def write_labels(path, labels):
    np.asarray(labels, dtype=np.uint8).tofile(path)


def read_probabilities(path, expected_count=None) -> np.ndarray:
    """Float32 (M, 3) state distributions, as stored: the losses widen
    them to float64 one leaf of their sum at a time."""
    return _rows(path, ("<f4", 3), "rows", expected_count)


def write_probabilities(path, probs):
    np.asarray(probs, dtype="<f4").reshape(-1, 3).tofile(path)


# -- fields of JSON and YAML inputs ---------------------------------------------

def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaViolation(f"{where}: missing field {key!r}")
    return mapping[key]


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolation(f"{where}: expected a mapping")
    return value


def _scalar(kind, fields, key, where: str, default=None, least=None):
    """``kind(fields[key])`` (str, int or float) of a field, ``default``
    standing in for an absent one unless None; a missing value, one that
    ``kind`` cannot take, a non-finite float, or one below ``least`` is a
    SchemaViolation."""
    value = fields.get(key, default) if isinstance(fields, dict) else fields[key]
    if value is None:
        raise SchemaViolation(f"{where}: missing field {key!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise SchemaViolation(f"{where}.{key}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not np.isfinite(out):
        raise SchemaViolation(f"{where}.{key}: expected a finite number, got {value!r}")
    if least is not None and out < least:
        raise SchemaViolation(f"{where}.{key} must be >= {least}")
    return out


def _vec3(value, where: str) -> tuple:
    try:
        vec = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise SchemaViolation(f"{where}: expected 3 numbers") from None
    if len(vec) != 3:
        raise SchemaViolation(f"{where}: expected 3 numbers, got {len(vec)}")
    if not np.all(np.isfinite(vec)):
        raise SchemaViolation(f"{where}: expected 3 finite numbers, got {list(vec)}")
    return vec


# -- tracked boxes (JSON lines, one keyframe per line) --------------------------

def _keyframe_from_json(obj: dict, where: str) -> dict:
    out = {key: _scalar(kind, obj, key, where) for key, kind in
           (("instance_id", str), ("category", str), ("yaw", float), ("time", float))}
    for key in ("center", "size"):
        out[key] = np.array(_vec3(_require(obj, key, where), f"{where}.{key}"))
    if np.any(out["size"] <= 0.0):
        raise SchemaViolation(f"{where}: field 'size' must be positive")
    if out["category"] not in CATEGORIES:
        raise SchemaViolation(f"{where}: field 'category' must be one of "
                              f"{CATEGORIES}, got {out['category']!r}")
    if not out["instance_id"]:
        raise SchemaViolation(f"{where}: field 'instance_id' must be non-empty")
    return out


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
            kf = _keyframe_from_json(obj, f"{path}:{lineno}")
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
                centers=np.stack([k["center"] for k in kfs]),
                sizes=np.stack([k["size"] for k in kfs]),
                yaws=np.array([k["yaw"] for k in kfs]),
                timestamps=np.array([k["time"] for k in kfs]),
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


def read_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- scene descriptions -----------------------------------------------------------

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
    (scan pattern), ``trajectory`` (linear sensor motion).  See
    docs/formats.md for a worked example.
    """
    import yaml

    from .simulator import SceneBox, SceneSpec, SpinningLidarSpec

    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise MalformedLine(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{path}: top level must be a mapping")

    static, moving = [], []
    for i, raw in enumerate(doc.get("boxes") or []):
        where = f"{path}: boxes[{i}]"
        _mapping(raw, where)
        velocity = _vec3(raw.get("velocity", (0.0, 0.0, 0.0)), f"{where}.velocity")
        category = str(raw.get("category", "VEHICLE"))
        if category not in CATEGORIES:
            raise SchemaViolation(f"{where}.category: must be one of {CATEGORIES}")
        try:
            box = SceneBox(
                center=_vec3(_require(raw, "center", where), f"{where}.center"),
                size=_vec3(_require(raw, "size", where), f"{where}.size"),
                yaw=_scalar(float, raw, "yaw", where, 0.0),
                velocity=velocity,
                category=category,
                instance_id=str(raw.get("instance_id", f"box{i}")),
            )
        except ValueError as e:
            raise SchemaViolation(f"{where}: {e}") from None
        (moving if box.is_moving else static).append(box)
    scene = SceneSpec(static_boxes=static, moving_boxes=moving,
                      ground_plane=bool(doc.get("ground_plane", False)))

    where = f"{path}: lidar"
    lidar_raw = _mapping(_require(doc, "lidar", path), where)
    elev = _require(lidar_raw, "elevations_rad", where)
    where_e = f"{where}.elevations_rad"
    if isinstance(elev, dict):
        elevations = tuple(np.linspace(_scalar(float, elev, "min", where_e), _scalar(float, elev, "max", where_e),
                                       _scalar(int, elev, "count", where_e, least=1)))
    elif isinstance(elev, list):
        elevations = tuple(_scalar(float, elev, i, where_e) for i in range(len(elev)))
    else:
        raise SchemaViolation(f"{where_e}: expected a list, or min, max and count")
    azimuth_count = _scalar(int, lidar_raw, "azimuth_count", where, least=1)
    try:
        lidar = SpinningLidarSpec(
            elevation_angles_rad=elevations,
            azimuth_step_rad=2.0 * np.pi / azimuth_count,
            max_range_m=_scalar(float, lidar_raw, "max_range_m", where, 120.0),
            range_noise_std_m=_scalar(float, lidar_raw, "range_noise_std_m", where, 0.0),
        )
    except ValueError as e:
        raise SchemaViolation(f"{path}: lidar: {e}") from None

    where = f"{path}: trajectory"
    traj = _mapping(_require(doc, "trajectory", path), where)
    count = _scalar(int, traj, "count", where, least=1)
    period = _scalar(float, traj, "period_s", where)
    if period <= 0.0:
        raise SchemaViolation(f"{where}.period_s must be > 0")
    start = np.array(_vec3(_require(traj, "start", where), f"{where}.start"))
    velocity = np.array(_vec3(traj.get("velocity", (0.0, 0.0, 0.0)), f"{where}.velocity"))
    rotation = yaw_matrix(_scalar(float, traj, "yaw_rad", where, 0.0))

    times = [k * period for k in range(count)]
    poses = [RigidTransform(rotation=rotation, translation=start + velocity * t)
             for t in times]
    return SimScene(scene=scene, lidar=lidar, poses=poses, times=times,
                    period_s=period)
