"""On-disk formats: scans, poses, overlap and reconstruction sets, labels,
boxes, scene descriptions, and metric reports.

Binary formats are little-endian and carry a magic plus version so stale
files fail loudly instead of decoding garbage.  Readers validate sizes
before touching content; writers produce files whose read-write round trip
is byte-identical.  Record sets are cast between their in-memory and
on-disk dtypes through views that split each (3,) field into three scalar
fields at the same offsets: numpy casts a subarray field one record row at
a time, and a scalar field as one column, for the same bytes.
"""

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from .errors import (
    BadLength,
    CountMismatch,
    LengthMismatch,
    MagicMismatch,
    MalformedLine,
    NonRigid,
    SchemaViolation,
    TruncatedFile,
    VersionUnsupported,
)
from .extraction import RECORD_DTYPE, ExtractionConfig, OverlapSet
from .labeling import CATEGORIES, TrackedBox
from .recon import RECON_DTYPE, ReconSet
from .sensor_model import RigidTransform, SensorConfig
from .simulator import SceneBox, SceneSpec, SpinningLidarSpec

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

_OVERLAP_RECORD = np.dtype([
    ("current_index", "<u4"),
    ("scan_offset", "<i1"),
    ("adjacent_index", "<u4"),
    ("position", "<f4", (3,)),
    ("time", "<f4"),
    ("state", "u1"),
    ("confidence", "<f4"),
    ("sample_rank", "u1"),
])

_RECON_HEADER = np.dtype([
    ("magic", "S4"),
    ("version", "<u2"),
    ("count", "<u8"),
])

_RECON_RECORD = np.dtype([
    ("current_index", "<u4"),
    ("position", "<f4", (3,)),
    ("time", "<f4"),
    ("state", "u1"),
])


def config_hash(cfg: ExtractionConfig, sensor: SensorConfig) -> bytes:
    """16-byte digest of every knob that shapes an overlap file's content."""
    payload = {"extraction": asdict(cfg), "sensor": asdict(sensor)}
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.md5(text.encode()).digest()


# -- point cloud scans --------------------------------------------------------

def read_scan_bin(path):
    """Read x, y, z, intensity float32 quads.

    Returns (points (N, 3) float64, intensities (N,) float32).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) % 16 != 0:
        raise BadLength(f"{path}: {len(data)} bytes is not a whole number "
                        "of 16-byte points")
    quads = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
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
    if deviation > 1e-6:
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
            poses.append(_parse_pose_row(values, f"{path}:{lineno}"))
    return poses


def write_poses(path, poses):
    with open(path, "w") as fh:
        for pose in poses:
            mat = np.hstack([pose.rotation, pose.translation[:, None]])
            fh.write(" ".join(f"{v:.17g}" for v in mat.reshape(-1)) + "\n")


# -- overlap and reconstruction sets ------------------------------------------

# records cast per write and decoded per read: a write holds the set and
# one chunk cast to the on-disk dtype, a read the decoded set and one chunk
# of stored bytes, never a second copy of the whole set
_CHUNK = 1 << 16


@functools.lru_cache(maxsize=8)
def _scalar_fields(dtype: np.dtype) -> np.dtype:
    """``dtype`` with each (k,) subarray field split into k scalar fields
    at the same offsets, to view the same bytes."""
    names, formats, offsets = [], [], []
    for name in dtype.names:
        sub, offset = dtype.fields[name][:2]
        if sub.shape == ():
            names.append(name)
            formats.append(sub)
            offsets.append(offset)
            continue
        for i in range(sub.itemsize // sub.base.itemsize):
            names.append(f"{name}[{i}]")
            formats.append(sub.base)
            offsets.append(offset + i * sub.base.itemsize)
    return np.dtype({"names": names, "formats": formats, "offsets": offsets,
                     "itemsize": dtype.itemsize})


def _write_set(path, magic: bytes, header_dtype, record_dtype, records, **header_fields):
    """Write a magic/version/count header (plus ``header_fields``) and then
    every record, cast to ``record_dtype`` ``_CHUNK`` records at a time.
    In-memory and on-disk record dtypes list the same fields in the same
    order, and structured casts match fields by position."""
    header = np.zeros(1, dtype=header_dtype)
    header["magic"] = magic
    header["version"] = FORMAT_VERSION
    header["count"] = len(records)
    for name, value in header_fields.items():
        header[name] = value
    memory, stored = _scalar_fields(records.dtype), _scalar_fields(record_dtype)
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        for start in range(0, len(records), _CHUNK):
            records[start:start + _CHUNK].view(memory).astype(stored).tofile(fh)


def _read_set(path, magic: bytes, header_dtype, record_dtype, memory_dtype):
    """Validate and decode a file written by :func:`_write_set`; returns
    (header, records cast to ``memory_dtype``)."""
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
        records = np.empty(n_stored, dtype=memory_dtype)
        flat, stored = records.view(_scalar_fields(memory_dtype)), _scalar_fields(record_dtype)
        for start in range(0, n_stored, _CHUNK):
            count = min(_CHUNK, n_stored - start)
            flat[start:start + count] = np.fromfile(fh, dtype=stored, count=count)
    return header, records


@dataclass(frozen=True)
class OverlapFileInfo:
    sensor: SensorConfig
    config_hash: bytes
    version: int


def write_overlap_file(path, oset: OverlapSet, sensor: SensorConfig,
                       config_digest: bytes = b"\x00" * 16):
    if len(config_digest) != 16:
        raise ValueError("config digest must be 16 bytes")
    _write_set(path, OVERLAP_MAGIC, _OVERLAP_HEADER, _OVERLAP_RECORD, oset.records,
               divergence_angle_rad=sensor.divergence_angle_rad,
               occupied_confidence_threshold=sensor.occupied_confidence_threshold,
               decay_rate_per_meter=sensor.decay_rate_per_meter,
               config_hash=config_digest)


def read_overlap_file(path):
    """Returns (OverlapSet, OverlapFileInfo)."""
    header, rec = _read_set(path, OVERLAP_MAGIC, _OVERLAP_HEADER, _OVERLAP_RECORD, RECORD_DTYPE)
    info = OverlapFileInfo(
        sensor=SensorConfig(
            divergence_angle_rad=float(header["divergence_angle_rad"]),
            occupied_confidence_threshold=float(header["occupied_confidence_threshold"]),
            decay_rate_per_meter=float(header["decay_rate_per_meter"]),
        ),
        config_hash=bytes(header["config_hash"]),
        version=int(header["version"]),
    )
    return OverlapSet(rec), info


def write_recon_file(path, rset: ReconSet):
    _write_set(path, RECON_MAGIC, _RECON_HEADER, _RECON_RECORD, rset.records)


def read_recon_file(path) -> ReconSet:
    _, rec = _read_set(path, RECON_MAGIC, _RECON_HEADER, _RECON_RECORD, RECON_DTYPE)
    return ReconSet(rec)


# -- labels, predictions, probabilities ----------------------------------------

def read_labels(path, expected_count=None) -> np.ndarray:
    labels = np.fromfile(path, dtype=np.uint8)
    if expected_count is not None and len(labels) != expected_count:
        raise LengthMismatch(f"{path}: {len(labels)} labels for "
                             f"{expected_count} points")
    return labels


def write_labels(path, labels):
    np.asarray(labels, dtype=np.uint8).tofile(path)


def read_probabilities(path, expected_count=None) -> np.ndarray:
    """Raw float32 (M, 3) state distributions."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) % 12 != 0:
        raise BadLength(f"{path}: {len(data)} bytes is not a whole number "
                        "of 12-byte rows")
    probs = np.frombuffer(data, dtype="<f4").reshape(-1, 3).astype(np.float64)
    if expected_count is not None and len(probs) != expected_count:
        raise LengthMismatch(f"{path}: {len(probs)} rows for "
                             f"{expected_count} points")
    return probs


def write_probabilities(path, probs):
    np.asarray(probs, dtype="<f4").reshape(-1, 3).tofile(path)


# -- tracked boxes (JSON lines, one keyframe per line) --------------------------

def _keyframe_from_json(obj: dict, where: str) -> dict:
    out = {}
    for key, kind in (("instance_id", str), ("category", str),
                      ("yaw", float), ("time", float)):
        if key not in obj:
            raise SchemaViolation(f"{where}: missing field {key!r}")
        try:
            out[key] = kind(obj[key])
        except (TypeError, ValueError):
            raise SchemaViolation(f"{where}: field {key!r} has wrong type") from None
    for key in ("center", "size"):
        if key not in obj:
            raise SchemaViolation(f"{where}: missing field {key!r}")
        try:
            vec = np.array([float(v) for v in obj[key]], dtype=float)
        except (TypeError, ValueError):
            raise SchemaViolation(f"{where}: field {key!r} has wrong type") from None
        if vec.shape != (3,):
            raise SchemaViolation(f"{where}: field {key!r} needs 3 numbers")
        out[key] = vec
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

    scene: SceneSpec
    lidar: SpinningLidarSpec
    poses: list
    times: list
    period_s: float


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaViolation(f"{where}: missing field {key!r}")
    return mapping[key]


def _vec3(value, where: str) -> tuple:
    try:
        vec = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise SchemaViolation(f"{where}: expected 3 numbers") from None
    if len(vec) != 3:
        raise SchemaViolation(f"{where}: expected 3 numbers, got {len(vec)}")
    return vec


def read_scene(path) -> SimScene:
    """Parse a YAML scene description.

    Top-level keys: ``boxes`` (list), ``ground_plane`` (bool), ``lidar``
    (scan pattern), ``trajectory`` (linear sensor motion).  See
    docs/formats.md for a worked example.
    """
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
        if not isinstance(raw, dict):
            raise SchemaViolation(f"{where}: expected a mapping")
        velocity = _vec3(raw.get("velocity", (0.0, 0.0, 0.0)), f"{where}.velocity")
        category = str(raw.get("category", "VEHICLE"))
        if category not in CATEGORIES:
            raise SchemaViolation(f"{where}.category: must be one of {CATEGORIES}")
        try:
            box = SceneBox(
                center=_vec3(_require(raw, "center", where), f"{where}.center"),
                size=_vec3(_require(raw, "size", where), f"{where}.size"),
                yaw=float(raw.get("yaw", 0.0)),
                velocity=velocity,
                category=category,
                instance_id=str(raw.get("instance_id", f"box{i}")),
            )
        except ValueError as e:
            raise SchemaViolation(f"{where}: {e}") from None
        (moving if box.is_moving else static).append(box)
    scene = SceneSpec(static_boxes=static, moving_boxes=moving,
                      ground_plane=bool(doc.get("ground_plane", False)))

    lidar_raw = _require(doc, "lidar", path)
    elev = _require(lidar_raw, "elevations_rad", f"{path}: lidar")
    if isinstance(elev, dict):
        for key in ("min", "max", "count"):
            _require(elev, key, f"{path}: lidar.elevations_rad")
        elevations = tuple(np.linspace(float(elev["min"]), float(elev["max"]),
                                       int(elev["count"])))
    else:
        elevations = tuple(float(e) for e in elev)
    azimuth_count = int(_require(lidar_raw, "azimuth_count", f"{path}: lidar"))
    if azimuth_count < 1:
        raise SchemaViolation(f"{path}: lidar.azimuth_count must be >= 1")
    try:
        lidar = SpinningLidarSpec(
            elevation_angles_rad=elevations,
            azimuth_step_rad=2.0 * np.pi / azimuth_count,
            max_range_m=float(lidar_raw.get("max_range_m", 120.0)),
            range_noise_std_m=float(lidar_raw.get("range_noise_std_m", 0.0)),
        )
    except ValueError as e:
        raise SchemaViolation(f"{path}: lidar: {e}") from None

    traj = _require(doc, "trajectory", path)
    count = int(_require(traj, "count", f"{path}: trajectory"))
    if count < 1:
        raise SchemaViolation(f"{path}: trajectory.count must be >= 1")
    period = float(_require(traj, "period_s", f"{path}: trajectory"))
    if period <= 0.0:
        raise SchemaViolation(f"{path}: trajectory.period_s must be > 0")
    start = np.array(_vec3(_require(traj, "start", f"{path}: trajectory"),
                           f"{path}: trajectory.start"))
    velocity = np.array(_vec3(traj.get("velocity", (0.0, 0.0, 0.0)),
                              f"{path}: trajectory.velocity"))
    heading = float(traj.get("yaw_rad", 0.0))
    c, s = np.cos(heading), np.sin(heading)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    times = [k * period for k in range(count)]
    poses = [RigidTransform(rotation=rotation, translation=start + velocity * t)
             for t in times]
    return SimScene(scene=scene, lidar=lidar, poses=poses, times=times,
                    period_s=period)
