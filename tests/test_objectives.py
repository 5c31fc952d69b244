"""Reference losses and encoding against hand values and an fsum oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from tovp import objectives
from tovp.errors import BadDimension, BadState, CountMismatch, DataError, EmptyBatch, NonFiniteLoss
from tovp.objectives import (
    ClassWeights,
    EncodingConfig,
    StatePrediction,
    overlap_loss,
    positional_encoding,
    recon_loss,
    total_loss,
)

FREE, OCCUPIED, UNKNOWN = 0, 1, 2


def naive_overlap(states, confidences, probs, w):
    terms = [
        -c * w[s] * math.log(p[s])
        for s, c, p in zip(states, confidences, probs)
    ]
    return math.fsum(terms) / len(terms)


def naive_recon(states, probs, w, n_beams, per_beam):
    terms = [-w[s] * math.log(p[s]) for s, p in zip(states, probs)]
    return math.fsum(terms) / (n_beams * per_beam)


def random_batch(rng, m):
    states = rng.integers(0, 3, size=m)
    conf = rng.uniform(0.05, 1.0, size=m)
    probs = rng.dirichlet([2.0, 2.0, 2.0], size=m)
    return states, conf, probs


class TestEncoding:
    def test_single_occupied_hit_hand_value(self):
        cfg = EncodingConfig(dimension=8, coordinate_scale=(1.0, 1.0, 1.0, 1.0))
        enc = positional_encoding([1.0, 0.0, 0.0, 0.0], cfg)
        expected = [math.sin(1.0), math.cos(1.0), 0, 1, 0, 1, 0, 1]
        np.testing.assert_allclose(enc, expected, atol=1e-15)

    def test_zero_point_alternates_zero_one(self):
        enc = positional_encoding(np.zeros(4), EncodingConfig(dimension=32))
        np.testing.assert_array_equal(enc[0::2], 0.0)
        np.testing.assert_array_equal(enc[1::2], 1.0)

    def test_geometric_frequency_ladder(self):
        cfg = EncodingConfig(dimension=16, frequency_base=100.0,
                             coordinate_scale=(1.0, 1.0, 1.0, 1.0))
        x = 0.7
        enc = positional_encoding([x, 0.0, 0.0, 0.0], cfg)
        block = enc[:4]
        np.testing.assert_allclose(
            block, [math.sin(x), math.cos(x), math.sin(0.1 * x), math.cos(0.1 * x)],
            rtol=1e-15)

    def test_scale_normalization(self):
        cfg_scaled = EncodingConfig(dimension=24, coordinate_scale=(70.0, 70.0, 4.5, 3.0))
        cfg_unit = EncodingConfig(dimension=24, coordinate_scale=(1.0, 1.0, 1.0, 1.0))
        p = np.array([35.0, -7.0, 2.25, 1.5])
        unit = p / [70.0, 70.0, 4.5, 3.0]
        np.testing.assert_allclose(
            positional_encoding(p, cfg_scaled), positional_encoding(unit, cfg_unit),
            rtol=1e-15)

    def test_batch_shape_and_consistency(self):
        cfg = EncodingConfig(dimension=40)
        pts = np.random.default_rng(0).normal(size=(17, 4)) * 10
        batch = positional_encoding(pts, cfg)
        assert batch.shape == (17, 40)
        np.testing.assert_array_equal(batch[5], positional_encoding(pts[5], cfg))

    def test_bounded_output(self):
        pts = np.random.default_rng(1).normal(size=(100, 4)) * 200
        enc = positional_encoding(pts, EncodingConfig())
        assert np.all(np.abs(enc) <= 1.0)

    @pytest.mark.parametrize("dim", [0, 4, 12, -8, 130])
    def test_dimension_must_divide_by_eight(self, dim):
        with pytest.raises(BadDimension):
            EncodingConfig(dimension=dim)

    def test_bad_scale_and_base(self):
        with pytest.raises(ValueError):
            EncodingConfig(coordinate_scale=(70.0, 70.0, 0.0, 3.0))
        with pytest.raises(ValueError):
            EncodingConfig(frequency_base=0.0)

    def test_bad_point_shape(self):
        with pytest.raises(ValueError):
            positional_encoding([1.0, 2.0, 3.0], EncodingConfig())


class TestWeightsAndPredictions:
    def test_default_weights(self):
        w = ClassWeights()
        np.testing.assert_array_equal(w.as_array(), [1.0, 5.0, 1.0])

    @pytest.mark.parametrize("kw", [{"free": 0.0}, {"occupied": -1.0}, {"unknown": 0.0}])
    def test_weights_positive(self, kw):
        with pytest.raises(ValueError):
            ClassWeights(**kw)

    def test_prediction_validation(self):
        StatePrediction(np.array([0.2, 0.5, 0.3]))
        StatePrediction(np.array([0.2, 0.5, 0.3 + 5e-7]))  # inside tolerance
        with pytest.raises(ValueError):
            StatePrediction(np.array([0.5, 0.6, -0.1]))
        with pytest.raises(ValueError):
            StatePrediction(np.array([0.2, 0.2, 0.2]))
        with pytest.raises(ValueError):
            StatePrediction(np.array([0.5, 0.5]))


class TestOverlapLoss:
    def test_hand_value_single_occupied(self):
        loss = overlap_loss([OCCUPIED], [1.0], [[0.2, 0.5, 0.3]])
        assert loss == pytest.approx(3.4657359027997265, rel=1e-15)

    def test_accepts_state_prediction_objects(self):
        preds = [StatePrediction(np.array([0.2, 0.5, 0.3]))]
        assert overlap_loss([OCCUPIED], [1.0], preds) == pytest.approx(
            3.4657359027997265, rel=1e-15)

    def test_perfect_prediction_is_zero(self):
        probs = np.eye(3)[[FREE, OCCUPIED, UNKNOWN]]
        assert overlap_loss([FREE, OCCUPIED, UNKNOWN], np.ones(3), probs) == 0.0

    def test_confidence_scales_linearly(self):
        p = [[0.2, 0.5, 0.3]]
        full = overlap_loss([UNKNOWN], [1.0], p)
        half = overlap_loss([UNKNOWN], [0.5], p)
        assert half == pytest.approx(full / 2, rel=1e-15)

    def test_weight_scaling(self):
        rng = np.random.default_rng(5)
        states, conf, probs = random_batch(rng, 64)
        base = overlap_loss(states, conf, probs, ClassWeights(1.0, 5.0, 1.0))
        tripled = overlap_loss(states, conf, probs, ClassWeights(3.0, 15.0, 3.0))
        assert tripled == pytest.approx(3 * base, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        states, conf, probs = random_batch(rng, 200)
        perm = rng.permutation(200)
        a = overlap_loss(states, conf, probs)
        b = overlap_loss(states[perm], conf[perm], probs[perm])
        assert b == pytest.approx(a, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 33, 1000, 100_000])
    def test_matches_fsum_oracle(self, m):
        rng = np.random.default_rng(m)
        states, conf, probs = random_batch(rng, m)
        w = ClassWeights().as_array()
        fast = overlap_loss(states, conf, probs)
        slow = naive_overlap(states, conf, probs, w)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            overlap_loss([], [], np.empty((0, 3)))

    def test_zero_true_probability(self):
        with pytest.raises(NonFiniteLoss):
            overlap_loss([FREE], [1.0], [[0.0, 0.5, 0.5]])

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            overlap_loss([FREE, FREE], [1.0], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestReconLoss:
    def test_hand_value_single_free(self):
        loss = recon_loss([FREE], [[0.5, 0.25, 0.25]], n_beams=1, per_beam=1)
        assert loss == pytest.approx(0.6931471805599453, rel=1e-15)

    def test_no_confidence_weighting(self):
        # recon normalizes by the beam budget, not by batch mean with conf
        states = [OCCUPIED, OCCUPIED]
        probs = [[0.25, 0.5, 0.25]] * 2
        loss = recon_loss(states, probs, n_beams=1, per_beam=2)
        assert loss == pytest.approx(5.0 * math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("n,m", [(1, 1), (7, 30), (100, 30)])
    def test_matches_fsum_oracle(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        states, _, probs = random_batch(rng, n * m)
        w = ClassWeights().as_array()
        fast = recon_loss(states, probs, n_beams=n, per_beam=m)
        slow = naive_recon(states, probs, w, n, m)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_budget_mismatch(self):
        states, _, probs = random_batch(np.random.default_rng(0), 29)
        with pytest.raises(CountMismatch):
            recon_loss(states, probs, n_beams=1, per_beam=30)

    def test_empty_budget(self):
        with pytest.raises(EmptyBatch):
            recon_loss([], np.empty((0, 3)), n_beams=0, per_beam=30)

    def test_zero_true_probability(self):
        with pytest.raises(NonFiniteLoss):
            recon_loss([UNKNOWN], [[0.5, 0.5, 0.0]], n_beams=1, per_beam=1)


class TestStatesOutsideTheThree:
    """A state that is not FREE, OCCUPIED or UNKNOWN is bad data, in any
    chunk of the batch, for either loss."""

    @pytest.mark.parametrize("bad", [3, 255, -1])
    @pytest.mark.parametrize("at", [0, 70000, 70001])
    def test_both_losses_raise(self, bad, at):
        rng = np.random.default_rng(at)
        states, conf, probs = random_batch(rng, 70002)
        states[at] = bad
        if bad == 255:
            states = states.astype(np.uint8)
        with pytest.raises(BadState, match=f"state {bad} "):
            overlap_loss(states, conf, probs)
        with pytest.raises(BadState, match=f"state {bad} "):
            recon_loss(states, probs, n_beams=70002, per_beam=1)
        assert issubclass(BadState, DataError)


class TestChunkedWeightedNll:
    """Both losses weight the per-row log-loss chunk by chunk, in place, and
    sum the whole array once: the same bits as the whole-batch product, in
    bounded extra memory."""

    ROWS = 2_000_000

    def batch(self):
        rng = np.random.default_rng(8)
        states, conf, probs = random_batch(rng, self.ROWS)
        return states.astype(np.uint8), conf, probs

    def test_bit_for_bit_with_the_whole_batch_product(self):
        states, conf, probs = self.batch()
        w = ClassWeights().as_array()[states.astype(np.intp)]
        nll = -np.log(probs[np.arange(self.ROWS), states])
        assert overlap_loss(states, conf, probs) == float(np.sum(conf * w * nll)) / self.ROWS
        assert recon_loss(states, probs, n_beams=self.ROWS, per_beam=1) == float(np.sum(w * nll)) / self.ROWS

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 191, 193])
    def test_float32_inputs_give_the_bits_of_their_float64_copies(self, monkeypatch, n):
        # float32 rows and confidences, the latter strided as in a record
        # array, are widened chunk by chunk: exact, so the bits cannot move
        monkeypatch.setattr(objectives, "_CHUNK", 64)
        states, conf, probs = random_batch(np.random.default_rng(n), n)
        rec = np.zeros(n, dtype=[("state", "u1"), ("confidence", "<f4")])
        rec["state"], rec["confidence"] = states, conf
        probs32 = probs.astype(np.float32)
        got = overlap_loss(rec["state"], rec["confidence"], probs32)
        want = overlap_loss(states, rec["confidence"].astype(float), probs32.astype(float))
        assert got == want
        got = recon_loss(rec["state"], probs32, n_beams=n, per_beam=1)
        assert got == recon_loss(states, probs32.astype(float), n_beams=n, per_beam=1)

    def test_peak_memory_per_row(self):
        states, conf64, probs64 = self.batch()
        conf32, probs32 = conf64.astype(np.float32), probs64.astype(np.float32)
        for conf, probs in ((conf64, probs64), (conf32, probs32)):
            for loss in (lambda: overlap_loss(states, conf, probs),
                         lambda: recon_loss(states, probs, n_beams=self.ROWS, per_beam=1)):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    loss()
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                # the nll array is 8 B per row; whole-batch weights and
                # products took 24 B per row, and float64 copies of float32
                # rows and confidences 32 B
                assert peak <= 10 * self.ROWS, (probs.dtype, peak)


def test_total_loss_is_plain_sum():
    assert total_loss(1.25, 2.5) == 3.75
    assert total_loss(3.4657359027997265, 0.6931471805599453) == pytest.approx(
        4.158883083359672, rel=1e-15)
