"""Reference losses and input encoding for occupancy prediction.

Plain numpy, written for auditability rather than speed: these are the
ground-truth definitions that a training implementation is checked against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, BadState, CountMismatch, EmptyBatch, NonFiniteLoss

N_STATES = 3

# most rows per leaf of the loss sum's tree; bounds the temporaries.  It
# must be >= 128, numpy's pairwise block, or the tree is not np.sum's
_CHUNK = 1 << 16


@dataclass(frozen=True)
class EncodingConfig:
    """Sinusoidal encoding of a space-time query point.

    ``dimension`` splits evenly over the four input axes, and each axis
    block interleaves sine/cosine pairs, so it must be divisible by 8.
    ``coordinate_scale`` normalizes each axis before encoding; defaults
    match the crop bounds plus a 3 s time horizon.
    """

    dimension: int = 128
    frequency_base: float = 1e4
    coordinate_scale: tuple = (70.0, 70.0, 4.5, 3.0)

    def __post_init__(self):
        if self.dimension <= 0 or self.dimension % 8 != 0:
            raise BadDimension(f"dimension must be a positive multiple of 8: {self.dimension}")
        if self.frequency_base <= 0.0:
            raise ValueError("frequency_base must be > 0")
        scale = np.asarray(self.coordinate_scale, dtype=float)
        if scale.shape != (4,) or not np.all(scale > 0.0):
            raise ValueError("coordinate_scale must be 4 positive numbers")


def positional_encoding(point, cfg: EncodingConfig = EncodingConfig()) -> np.ndarray:
    """Encode (x, y, z, t) into ``cfg.dimension`` sinusoidal features.

    Accepts one point of shape (4,) or a batch (N, 4); the output matches
    (``dimension``,) or (N, ``dimension``).  Axis blocks are ordered
    x, y, z, t; within a block features alternate sin/cos over geometric
    frequencies base ** (-2k / per_axis).
    """
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"expected (..., 4) input, got shape {np.shape(point)}")

    per_axis = cfg.dimension // 4
    k = np.arange(per_axis // 2)
    freqs = cfg.frequency_base ** (-2.0 * k / per_axis)
    scaled = pts / np.asarray(cfg.coordinate_scale, dtype=float)
    args = scaled[:, :, None] * freqs  # (N, 4, per_axis / 2)

    out = np.empty((len(pts), 4, per_axis))
    out[:, :, 0::2] = np.sin(args)
    out[:, :, 1::2] = np.cos(args)
    out = out.reshape(len(pts), cfg.dimension)
    return out[0] if single else out


@dataclass(frozen=True)
class ClassWeights:
    """Per-state loss weights; occupied counts more because hits are rare."""

    free: float = 1.0
    occupied: float = 5.0
    unknown: float = 1.0

    def __post_init__(self):
        if min(self.free, self.occupied, self.unknown) <= 0.0:
            raise ValueError("class weights must be > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.free, self.occupied, self.unknown])


def _probability_matrix(predictions) -> np.ndarray:
    """(M, 3) probabilities: float32 rows as given, anything else float64."""
    p = np.asarray(predictions)
    if p.dtype != np.float32:
        p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != N_STATES:
        raise ValueError(f"predictions must be (M, {N_STATES})")
    return p


def _weighted_nll_sum(states, predictions, weights: ClassWeights, conf=None) -> float:
    """Sum of (conf * w[state]) * -log(p[state]) over the batch, with
    conf = 1 when not given: the bits of ``np.sum`` of the whole-batch
    product, never held.  This walks np.sum's pairwise tree (n split at
    n // 2, rounded down to a multiple of 8) down to leaves of at most
    ``_CHUNK`` rows, and sums each leaf with :func:`_leaf_sum`."""
    probs = _probability_matrix(predictions)
    s = np.asarray(states)
    if s.shape != (len(probs),):
        raise CountMismatch(f"{len(s)} states for {len(probs)} predictions")
    if conf is not None and conf.shape != s.shape:
        raise CountMismatch(f"{conf.shape} confidences for {s.shape} points")
    w = weights.as_array()
    return float(_tree_sum(lambda rows: _leaf_sum(
        s[rows], probs[rows], w, None if conf is None else conf[rows]), 0, len(probs)))


def _leaf_sum(states, probs, w: np.ndarray, conf=None):
    """``np.sum`` of (conf * w[state]) * -log(p[state]) over one leaf's
    rows, gathered, widened, checked, logged and weighted where they are
    made.  Widening float32 is exact, so float32 inputs give the bits of
    their float64 copies."""
    idx = states.astype(np.intp)
    # a negative state wraps to a huge unsigned one
    if idx.view(np.uintp).max() >= N_STATES:
        bad = idx[(idx < 0) | (idx >= N_STATES)][0]
        raise BadState(f"state {bad} is not FREE 0, OCCUPIED 1 or UNKNOWN 2")
    # one gather from the flat rows, not one per row of three
    p_true = probs.reshape(-1).take(np.arange(0, N_STATES * len(probs), N_STATES) + idx)
    p_true = p_true.astype(np.float64, copy=False)
    if np.any(p_true <= 0.0) or not np.all(np.isfinite(p_true)):
        raise NonFiniteLoss("true-class probability is zero or non-finite")
    nll = np.negative(np.log(p_true, out=p_true), out=p_true)
    factor = w[idx]
    if conf is not None:
        factor *= conf
    nll *= factor
    return np.sum(nll)


def _tree_sum(leaf, lo: int, n: int):
    """The sum of ``leaf(rows)`` over rows lo to lo + n, split as np.sum
    splits them; a module function, not a closure that calls itself, so
    that no reference cycle keeps the caller's arrays alive."""
    if n <= _CHUNK:
        return leaf(slice(lo, lo + n))
    half = n // 2 - n // 2 % 8
    return _tree_sum(leaf, lo, half) + _tree_sum(leaf, lo + half, n - half)


def overlap_loss(states, confidences, predictions, weights: ClassWeights = ClassWeights()) -> float:
    """Confidence-weighted cross entropy over overlap points.

    ``states`` are true occupancy labels, ``confidences`` the per-point
    weights from the sensor model, ``predictions`` an (M, 3) array of
    (free, occupied, unknown) probabilities.  Mean over the batch.
    """
    if len(predictions) == 0:
        raise EmptyBatch("overlap loss needs at least one point")
    total = _weighted_nll_sum(states, predictions, weights, np.asarray(confidences))
    if not np.isfinite(total):
        raise NonFiniteLoss("overlap loss overflowed")
    return total / len(predictions)


def recon_loss(
    states,
    predictions,
    weights: ClassWeights = ClassWeights(),
    *,
    n_beams: int,
    per_beam: int,
) -> float:
    """Cross entropy over reconstruction samples, normalized by beam budget.

    The batch must hold exactly ``n_beams * per_beam`` samples; confidence
    does not apply because samples come from the current scan itself.
    """
    expected = n_beams * per_beam
    if len(predictions) != expected:
        raise CountMismatch(f"expected {expected} samples, got {len(predictions)}")
    if expected == 0:
        raise EmptyBatch("reconstruction loss needs at least one sample")
    total = _weighted_nll_sum(states, predictions, weights)
    if not np.isfinite(total):
        raise NonFiniteLoss("reconstruction loss overflowed")
    return total / expected


def streamed_overlap_loss(records, probs, weights: ClassWeights = ClassWeights()) -> float:
    """:func:`overlap_loss` of a ``.tovp`` file's records and their
    ``.prob`` rows, ``records`` and ``probs`` as opened by
    ``formats.overlap_blocks`` and ``formats.probability_blocks``.  The
    leaves of the sum are visited in row order, and each reads its rows
    from both files, so one leaf is held and the bits are those of the
    whole-set call."""
    n = records.count
    if n == 0:
        raise EmptyBatch("overlap loss needs at least one point")
    w = weights.as_array()

    def leaf(rows):
        k = rows.stop - rows.start
        block = records.read(k)
        return _leaf_sum(block["state"], probs.read(k), w, block["confidence"])

    total = float(_tree_sum(leaf, 0, n))
    if not np.isfinite(total):
        raise NonFiniteLoss("overlap loss overflowed")
    return total / n


def streamed_recon_loss(records, probs, weights: ClassWeights = ClassWeights()) -> float:
    """:func:`recon_loss` of a ``.trcn`` file's records and their ``.prob``
    rows, read as :func:`streamed_overlap_loss` reads them, from
    ``formats.recon_blocks``, which keeps the records in beam order.  The
    samples per beam are the runs of equal current index; beams of unequal
    counts are a CountMismatch naming the file."""
    n = records.count
    if n == 0:
        raise EmptyBatch(f"{records.path}: no reconstruction samples")
    w = weights.as_array()
    runs = _Runs()

    def leaf(rows):
        k = rows.stop - rows.start
        block = records.read(k)
        runs.add(block["current_index"], rows.start)
        return _leaf_sum(block["state"], probs.read(k), w)

    total = float(_tree_sum(leaf, 0, n))
    low, high = runs.close(n)
    if low != high:
        raise CountMismatch(f"{records.path}: beams hold {low} to {high} samples; "
                            "every beam must hold the same count")
    if not np.isfinite(total):
        raise NonFiniteLoss("reconstruction loss overflowed")
    return total / n  # n_beams * per_beam


class _Runs:
    """The shortest and the longest run of equal values in a sequence that
    is read block by block, holding none of it."""

    def __init__(self):
        self.value, self.start, self.low, self.high = None, 0, float("inf"), 0

    def add(self, values: np.ndarray, lo: int) -> None:
        """Take ``values``, the next rows of the sequence, from row ``lo``."""
        starts = lo + 1 + np.flatnonzero(values[1:] != values[:-1])
        if lo and values[0] != self.value:
            starts = np.concatenate(([lo], starts))
        if len(starts):
            self._note(np.diff(starts, prepend=self.start))
            self.start = int(starts[-1])
        self.value = values[-1]

    def close(self, n: int) -> tuple:
        """(shortest, longest) once the sequence has ended at row ``n``."""
        self._note(np.array([n - self.start]))
        return self.low, self.high

    def _note(self, lengths: np.ndarray) -> None:
        self.low = min(self.low, int(lengths.min()))
        self.high = max(self.high, int(lengths.max()))


def total_loss(overlap: float, recon: float) -> float:
    """Pre-training objective: plain sum of the two terms."""
    return float(overlap) + float(recon)
