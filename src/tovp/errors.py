"""Exception types raised across the package.

Every error that callers are expected to branch on gets its own class so
``except`` clauses can stay narrow.  ``TovpError`` is the common base; the
command line maps it to exit code 2 (bad data), anything else to 3.
"""


class TovpError(Exception):
    """Base class for all package-specific errors."""


# -- geometry ---------------------------------------------------------------

class GeometryError(TovpError):
    """Base for errors arising from degenerate beam geometry."""


class ZeroRange(GeometryError):
    """Point coincides with the sensor origin; no beam direction exists."""


class NonPositiveReportedRange(GeometryError):
    """Occupancy queries need a reported range > 0."""


class DegeneratePlane(GeometryError):
    """Beam direction collinear with the baseline, or origins coincide."""


class NearParallel(GeometryError):
    """Beam centerlines too close to parallel for a stable intersection."""


class BehindSensor(GeometryError):
    """Centerline intersection falls at or behind a sensor origin."""


class NonPositiveStart(GeometryError):
    """Overlap segment start solves to a non-positive range."""


# -- data / model -----------------------------------------------------------

class DataError(TovpError):
    """Base for invalid in-memory data."""


class EmptyScan(DataError):
    pass


class FrameMismatch(DataError):
    """Scans passed to extraction are not expressed in the current frame."""


class MissingPose(DataError):
    pass


class EmptyBatch(DataError):
    pass


class NonFiniteLoss(DataError):
    """A true-class probability of zero makes the log-loss diverge."""


class CountMismatch(DataError):
    pass


class BadState(DataError):
    """A state byte outside FREE 0, OCCUPIED 1 and UNKNOWN 2."""


class BadDimension(DataError):
    """Encoding dimension not divisible by 8."""


class SingleKeyframe(DataError):
    """Speed is undefined for a track with a single keyframe."""


class SceneMismatch(DataError):
    """Overlap records reference a scan offset the pose table lacks."""


# -- file formats -----------------------------------------------------------

class FormatError(TovpError):
    """Base for on-disk format violations."""


class TruncatedFile(FormatError):
    pass


class BadLength(FormatError):
    pass


class MalformedLine(FormatError):
    pass


class NonRigid(FormatError):
    """Pose rotation too far from orthonormal to repair."""


class MagicMismatch(FormatError):
    pass


class VersionUnsupported(FormatError):
    pass


class LengthMismatch(FormatError):
    pass


class SchemaViolation(FormatError):
    pass
