"""Temporal overlap extraction and occupancy supervision for LiDAR sequences.

The package turns a sequence of posed LiDAR scans into occupancy-labeled
temporal overlap points (pairs of beams from different sweeps that traverse
the same space), reconstruction samples along current beams, the reference
losses that consume both, motion labels for boxes and points, the matching
evaluation metrics, and a small ray-cast simulator used as ground truth.

``import tovp`` loads no submodule: each public name below is imported from
its defining module on first access, so a ``tovp`` command pays only for
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_MODULES = {
    "errors": ("TovpError",),
    "sensor_model": (
        "Beam", "OccupancyState", "RigidTransform", "Scan", "SensorConfig",
        "beam_from_point", "beam_radius_at", "confidence", "occupancy_state",
        "range_along_beam",
    ),
    "geometry": (
        "Scenario", "centerline_intersection", "classify_scenario", "coplanarity_angle",
        "plane_normal", "sample_scenario2_points", "segment_start_range", "spatial_angle",
    ),
    "extraction": (
        "ExtractionConfig", "OverlapPoint", "OverlapSet", "balance_classes",
        "extract_scan_pair", "extract_sequence", "extract_sequence_blocks",
    ),
    "recon": ("ReconSample", "ReconSet", "sample_recon_points"),
    "objectives": (
        "ClassWeights", "EncodingConfig", "StatePrediction", "overlap_loss",
        "positional_encoding", "recon_loss", "total_loss",
    ),
    "labeling": (
        "MotionClass", "ThresholdTable", "TrackedBox", "box_motion_class",
        "classify_motion", "label_points", "object_speed",
    ),
    "evaluation": (
        "EvalReport", "ScanEvalInput", "evaluate", "iou_conventional",
        "iou_excluding_ego", "object_size_cdf", "recall_obj",
    ),
}
_SOURCES = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    """Import a public name from its module on first access (PEP 562)."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
