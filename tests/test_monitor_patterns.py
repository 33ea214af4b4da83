"""Tests for pattern extraction (Definition 1) and packing."""

import numpy as np
import pytest

from repro.monitor import binarize, extract_patterns, hamming_distance, pack_patterns, unpack_patterns
from repro.monitor.patterns import infer_pattern_width
from repro.nn import Linear, ReLU, Sequential


class TestBinarize:
    def test_strictly_positive_is_one(self):
        acts = np.array([[-1.0, 0.0, 0.5, 2.0]])
        np.testing.assert_array_equal(binarize(acts), [[0, 0, 1, 1]])

    def test_zero_maps_to_zero(self):
        # Definition 1: prelu(x) = 1 iff x > 0, so exactly 0 is "off".
        assert binarize(np.array([[0.0]]))[0, 0] == 0

    def test_flattens_feature_maps(self):
        acts = np.ones((2, 3, 4, 4))
        assert binarize(acts).shape == (2, 48)

    def test_dtype_uint8(self):
        assert binarize(np.array([[1.0]])).dtype == np.uint8


class TestHammingDistance:
    def test_identical_patterns(self):
        p = np.array([1, 0, 1], dtype=np.uint8)
        assert hamming_distance(p, p) == 0

    def test_known_distance(self):
        a = np.array([1, 0, 1, 0], dtype=np.uint8)
        b = np.array([0, 0, 1, 1], dtype=np.uint8)
        assert hamming_distance(a, b) == 2

    def test_broadcast_rows(self):
        a = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        b = np.array([1, 1], dtype=np.uint8)
        np.testing.assert_array_equal(hamming_distance(a, b), [1, 2])


class TestExtractPatterns:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(0)
        monitored = ReLU()
        net = Sequential(Linear(4, 6, rng=rng), monitored, Linear(6, 3, rng=rng))
        return net, monitored

    def test_shapes(self, model):
        net, monitored = model
        inputs = np.random.default_rng(1).normal(size=(10, 4))
        patterns, logits = extract_patterns(net, monitored, inputs, batch_size=4)
        assert patterns.shape == (10, 6)
        assert logits.shape == (10, 3)

    def test_patterns_match_manual_forward(self, model):
        net, monitored = model
        inputs = np.random.default_rng(2).normal(size=(5, 4))
        patterns, logits = extract_patterns(net, monitored, inputs)
        hidden = inputs @ net[0].weight.data.T + net[0].bias.data
        relu_out = np.maximum(hidden, 0.0)
        np.testing.assert_array_equal(patterns, (relu_out > 0).astype(np.uint8))
        np.testing.assert_allclose(
            logits, relu_out @ net[2].weight.data.T + net[2].bias.data
        )

    def test_batching_invariant(self, model):
        net, monitored = model
        inputs = np.random.default_rng(3).normal(size=(7, 4))
        p1, l1 = extract_patterns(net, monitored, inputs, batch_size=2)
        p2, l2 = extract_patterns(net, monitored, inputs, batch_size=7)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_allclose(l1, l2)

    def test_empty_inputs_no_forward_pass(self, model):
        """Regression: zero-length inputs used to raise RuntimeError from
        ActivationTap.concatenated (no forward pass ever ran)."""
        net, monitored = model
        patterns, logits = extract_patterns(net, monitored, np.zeros((0, 4)))
        assert patterns.shape == (0, 6)  # width inferred from the network
        assert patterns.dtype == np.uint8
        assert logits.shape[0] == 0
        assert logits.argmax(axis=1).shape == (0,)  # callers' dec(in) works


class TestInferPatternWidth:
    def test_linear_module_declares_width(self):
        net = Sequential(Linear(4, 6))
        assert infer_pattern_width(net, net[0]) == 6

    def test_relu_takes_preceding_linear_width(self):
        monitored = ReLU()
        net = Sequential(Linear(4, 6), monitored, Linear(6, 3))
        assert infer_pattern_width(net, monitored) == 6

    def test_unknown_width_is_zero(self):
        monitored = ReLU()
        net = Sequential(monitored)
        assert infer_pattern_width(net, monitored) == 0


class TestPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        patterns = (rng.random((13, 21)) > 0.5).astype(np.uint8)
        packed = pack_patterns(patterns)
        np.testing.assert_array_equal(unpack_patterns(packed, 21), patterns)

    def test_packed_is_smaller(self):
        patterns = np.ones((4, 64), dtype=np.uint8)
        assert pack_patterns(patterns).shape == (4, 8)

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            pack_patterns(np.ones(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            unpack_patterns(np.ones(4, dtype=np.uint8), 4)

    def test_width_too_large_raises(self):
        packed = pack_patterns(np.ones((2, 8), dtype=np.uint8))
        with pytest.raises(ValueError):
            unpack_patterns(packed, 9)
