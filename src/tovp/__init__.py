"""Temporal overlap extraction and occupancy supervision for LiDAR sequences.

The package turns a sequence of posed LiDAR scans into occupancy-labeled
temporal overlap points (pairs of beams from different sweeps that traverse
the same space), reconstruction samples along current beams, the reference
losses that consume both, motion labels for boxes and points, the matching
evaluation metrics, and a small ray-cast simulator used as ground truth.
"""

from .errors import TovpError
from .sensor_model import (
    Beam,
    OccupancyState,
    RigidTransform,
    Scan,
    SensorConfig,
    beam_from_point,
    beam_radius_at,
    confidence,
    occupancy_state,
    range_along_beam,
)
from .geometry import (
    Scenario,
    centerline_intersection,
    classify_scenario,
    coplanarity_angle,
    plane_normal,
    sample_scenario2_points,
    segment_start_range,
    spatial_angle,
)
from .extraction import (
    ExtractionConfig,
    OverlapPoint,
    OverlapSet,
    balance_classes,
    extract_scan_pair,
    extract_sequence,
)
from .recon import ReconSample, ReconSet, sample_recon_points
from .objectives import (
    ClassWeights,
    EncodingConfig,
    StatePrediction,
    overlap_loss,
    positional_encoding,
    recon_loss,
    total_loss,
)
from .labeling import (
    MotionClass,
    ThresholdTable,
    TrackedBox,
    box_motion_class,
    classify_motion,
    label_points,
    object_speed,
)
from .evaluation import (
    EvalReport,
    ScanEvalInput,
    evaluate,
    iou_conventional,
    iou_excluding_ego,
    object_size_cdf,
    recall_obj,
)

__version__ = "0.1.0"

__all__ = [
    "Beam",
    "ClassWeights",
    "EncodingConfig",
    "EvalReport",
    "ExtractionConfig",
    "MotionClass",
    "OccupancyState",
    "OverlapPoint",
    "OverlapSet",
    "ReconSample",
    "ReconSet",
    "RigidTransform",
    "Scan",
    "ScanEvalInput",
    "Scenario",
    "SensorConfig",
    "StatePrediction",
    "ThresholdTable",
    "TovpError",
    "TrackedBox",
    "balance_classes",
    "beam_from_point",
    "beam_radius_at",
    "box_motion_class",
    "centerline_intersection",
    "classify_motion",
    "classify_scenario",
    "confidence",
    "coplanarity_angle",
    "evaluate",
    "extract_scan_pair",
    "extract_sequence",
    "iou_conventional",
    "iou_excluding_ego",
    "label_points",
    "object_size_cdf",
    "object_speed",
    "occupancy_state",
    "overlap_loss",
    "plane_normal",
    "positional_encoding",
    "range_along_beam",
    "recall_obj",
    "recon_loss",
    "sample_recon_points",
    "sample_scenario2_points",
    "segment_start_range",
    "spatial_angle",
    "total_loss",
]
