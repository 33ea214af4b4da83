"""The numpy inference plan against the autograd forward pass.

The autograd forward with an :class:`ActivationTap` is the oracle.  The
plan must give the same pattern bits (rows whose tapped value sits within
1e-9 of 0 are exempt: a convolution sums in another order and may move
such a value across 0), the same argmax and logits within 1e-10, on
hypothesis-built nets covering every layer type of ``nn/layers.py`` and
``nn/extras.py``, and bit-identical patterns and argmax on cached paper
systems.  Models the plan does not cover must take the autograd path and
be counted; parameters changed after compiling must be served.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import STANDARD_CONFIGS, train_system
from repro.models.grid_detector import build_grid_detector
from repro.monitor import extract_patterns
from repro.nn import (
    SGD,
    ActivationTap,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Dropout,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
)
from repro.nn import inference
from repro.nn.data import stack_dataset
from repro.nn.inference import compile_inference

NEAR_ZERO = 1e-9


def autograd_forward(model, tap, inputs, batch_size=256):
    """Oracle: (tap input, tap output, logits) from the autograd forward."""
    seen, logits = [], []
    remove = tap.register_forward_hook(lambda _m, x, _out: seen.append(x.data))
    try:
        with ActivationTap(tap) as recorder:
            for start in range(0, len(inputs), batch_size):
                logits.append(model(Tensor(inputs[start : start + batch_size])).data)
    finally:
        remove()
    return (
        np.concatenate(seen, axis=0),
        recorder.concatenated(),
        np.concatenate(logits, axis=0),
    )


def run_plan(model, tap, inputs):
    """The plan's output; fails if the call took the autograd fallback."""
    model.eval()
    before = dict(inference.FALLBACKS)
    activations, logits = compile_inference(model, tap)(inputs)
    assert dict(inference.FALLBACKS) == before
    return activations, logits


def assert_matches_autograd(model, tap, inputs):
    activations, logits = run_plan(model, tap, inputs)
    tap_in, ref_activations, ref_logits = autograd_forward(model, tap, inputs)

    assert activations.shape == ref_activations.shape
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-10, atol=1e-10)
    n = len(inputs)
    near = (np.abs(ref_activations) <= NEAR_ZERO) & (ref_activations != 0)
    exempt = near.reshape(n, -1).any(axis=1)
    if tap_in.shape == ref_activations.shape:  # elementwise tap: its input
        exempt |= (np.abs(tap_in) <= NEAR_ZERO).reshape(n, -1).any(axis=1)
    bits = activations.reshape(n, -1) > 0
    ref_bits = ref_activations.reshape(n, -1) > 0
    np.testing.assert_array_equal(bits[~exempt], ref_bits[~exempt])
    ranked = np.sort(ref_logits, axis=1)
    tied = ranked[:, -1] - ranked[:, -2] <= NEAR_ZERO
    np.testing.assert_array_equal(
        logits.argmax(axis=1)[~tied], ref_logits.argmax(axis=1)[~tied]
    )


# ----------------------------------------------------------------------
# hypothesis-built nets
# ----------------------------------------------------------------------
def _activation(draw, rng):
    kind = draw(st.sampled_from((ReLU, LeakyReLU, Tanh, Sigmoid)))
    return LeakyReLU(float(rng.uniform(0.0, 0.3))) if kind is LeakyReLU else kind()


@st.composite
def conv_nets(draw):
    """A conv net, a tapped top-level layer and an input batch.  The
    search space holds every layer type, odd sizes, padding, and pooling
    with stride != kernel; BatchNorm2d gets non-trivial running stats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    in_channels = channels = draw(st.integers(1, 3))
    in_h = height = draw(st.integers(5, 13))
    in_w = width = draw(st.integers(5, 13))
    layers = []
    for _ in range(draw(st.integers(1, 2))):
        kernel = draw(st.integers(1, min(3, height, width)))
        stride = draw(st.integers(1, 2))
        padding = draw(st.integers(0, 1))
        out_channels = draw(st.integers(1, 4))
        layers.append(Conv2d(channels, out_channels, kernel, stride, padding, rng=rng))
        channels = out_channels
        height = (height + 2 * padding - kernel) // stride + 1
        width = (width + 2 * padding - kernel) // stride + 1
        if draw(st.booleans()):
            norm = BatchNorm2d(channels)
            norm.running_mean[...] = rng.normal(size=norm.running_mean.shape)
            norm.running_var[...] = rng.uniform(0.2, 3.0, size=norm.running_var.shape)
            norm.gamma.data[...] = rng.normal(size=norm.gamma.shape)
            norm.beta.data[...] = rng.normal(size=norm.beta.shape)
            layers.append(norm)
        layers.append(_activation(draw, rng))
        pool = draw(st.sampled_from((None, MaxPool2d, AvgPool2d)))
        if pool is not None:
            kernel = draw(st.integers(1, min(3, height, width)))
            stride = draw(st.integers(1, 3))
            layers.append(pool(kernel, stride))
            height = (height - kernel) // stride + 1
            width = (width - kernel) // stride + 1
        if draw(st.booleans()):
            layers.append(Dropout(0.5, seed=int(rng.integers(1000))))
    layers.append(Flatten())
    hidden = draw(st.integers(1, 12))
    layers.append(Linear(channels * height * width, hidden, rng=rng))
    layers.append(_activation(draw, rng))
    layers.append(Dropout(0.3))
    layers.append(Linear(hidden, draw(st.integers(2, 5)), rng=rng))
    tap = layers[draw(st.integers(0, len(layers) - 1))]
    inputs = rng.normal(size=(draw(st.integers(1, 5)), in_channels, in_h, in_w))
    return Sequential(*layers), tap, inputs


@st.composite
def mlp_nets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 16))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        hidden = draw(st.integers(1, 16))
        layers.append(Linear(width, hidden, rng=rng))
        layers.append(_activation(draw, rng))
        if draw(st.booleans()):
            layers.append(Dropout(0.5))
        width = hidden
    layers.append(Linear(width, draw(st.integers(2, 5)), rng=rng))
    tap = layers[draw(st.integers(0, len(layers) - 1))]
    # Up to 40 rows: more than one CHUNK_ROWS pass.
    inputs = rng.normal(size=(draw(st.integers(1, 40)), layers[0].in_features))
    return Sequential(*layers), tap, inputs


@given(conv_nets())
@settings(max_examples=250, deadline=None)
def test_plan_matches_autograd_on_conv_nets(case):
    assert_matches_autograd(*case)


@given(mlp_nets())
@settings(max_examples=60, deadline=None)
def test_plan_matches_autograd_on_mlps(case):
    assert_matches_autograd(*case)


def test_every_layer_type_has_a_plan_op():
    from repro.nn import extras, layers

    module_types = {
        value
        for source in (layers, extras)
        for value in vars(source).values()
        if isinstance(value, type) and issubclass(value, Module)
    }
    assert module_types - {Module, Sequential} == set(inference._OPS)


# ----------------------------------------------------------------------
# cached paper systems: bit-identical patterns and argmax
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["mnist", "frontcar"])
def test_cached_system_patterns_bit_identical(name):
    """GTSRB (slow to load) runs in benchmarks/test_bench_inference.py."""
    system = train_system(STANDARD_CONFIGS[name])
    model, tap = system.spec.model, system.spec.monitored_module
    inputs, _ = stack_dataset(system.val_dataset)
    activations, logits = run_plan(model, tap, inputs)
    _, ref_activations, ref_logits = autograd_forward(model, tap, inputs)
    np.testing.assert_array_equal(activations > 0, ref_activations > 0)
    np.testing.assert_array_equal(logits.argmax(axis=1), ref_logits.argmax(axis=1))
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-10)


# ----------------------------------------------------------------------
# fallback: counted, never silent
# ----------------------------------------------------------------------
def _small_mlp(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(5, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng))


class _Doubler(Module):
    def forward(self, x):
        return x * 2.0


class _NoisyReLU(ReLU):
    """A subclass whose forward differs: exact types only get a plan op."""

    def forward(self, x):
        return x.relu() + 1.0


def _fallback_delta(reason, run):
    before = inference.FALLBACKS[reason]
    result = run()
    return inference.FALLBACKS[reason] - before, result


class TestFallback:
    def test_forward_hook_takes_autograd_path(self):
        model = _small_mlp()
        calls = []
        model[0].register_forward_hook(lambda *_: calls.append(1))
        inputs = np.random.default_rng(1).normal(size=(4, 5))
        delta, (patterns, _) = _fallback_delta(
            inference.FORWARD_HOOK, lambda: extract_patterns(model, model[1], inputs)
        )
        assert delta == 1
        assert calls == [1]
        assert patterns.shape == (4, 8)

    def test_hook_added_after_compiling_is_honoured(self):
        model = _small_mlp().eval()
        plan = compile_inference(model, model[1])
        calls = []
        model.register_forward_hook(lambda *_: calls.append(1))
        delta, _ = _fallback_delta(
            inference.FORWARD_HOOK, lambda: plan(np.ones((2, 5)))
        )
        assert delta == 1 and calls == [1]

    def test_grid_detector_takes_autograd_path(self):
        spec = build_grid_detector(np.random.default_rng(0))
        inputs = np.random.default_rng(1).normal(size=(2, 3, 64, 64))
        delta, (patterns, logits) = _fallback_delta(
            inference.NOT_SEQUENTIAL,
            lambda: extract_patterns(spec.model, spec.monitored_module, inputs),
        )
        assert delta == 1
        assert patterns.shape == (2, spec.monitored_width)
        assert logits.ndim == 3

    @pytest.mark.parametrize("odd_layer", [_Doubler, _NoisyReLU])
    def test_unknown_module_takes_autograd_path(self, odd_layer):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(5, 8, rng=rng), odd_layer(), ReLU(), Linear(8, 3, rng=rng))
        inputs = rng.normal(size=(3, 5))
        delta, (patterns, logits) = _fallback_delta(
            inference.UNSUPPORTED_LAYER, lambda: extract_patterns(model, model[2], inputs)
        )
        assert delta == 1
        _, ref_activations, ref_logits = autograd_forward(model, model[2], inputs)
        np.testing.assert_array_equal(patterns, (ref_activations > 0).astype(np.uint8))
        np.testing.assert_array_equal(logits, ref_logits)

    def test_nested_tap_takes_autograd_path(self):
        rng = np.random.default_rng(0)
        inner = Sequential(Linear(5, 8, rng=rng), ReLU())
        model = Sequential(inner, Linear(8, 3, rng=rng))
        delta, (patterns, _) = _fallback_delta(
            inference.UNSUPPORTED_LAYER,
            lambda: extract_patterns(model, inner[1], rng.normal(size=(3, 5))),
        )
        assert delta == 1 and patterns.shape == (3, 8)

    def test_tap_outside_the_model_is_counted(self):
        model = _small_mlp().eval()
        before = inference.FALLBACKS[inference.TAP_NOT_TOP_LEVEL]
        with pytest.raises(RuntimeError, match="no activations captured"):
            compile_inference(model, ReLU())(np.ones((2, 5)))
        assert inference.FALLBACKS[inference.TAP_NOT_TOP_LEVEL] == before + 1

    def test_training_mode_is_counted(self):
        model = _small_mlp().train()
        delta, _ = _fallback_delta(
            inference.TRAINING_MODE,
            lambda: compile_inference(model, model[1])(np.ones((2, 5))),
        )
        assert delta == 1

    def test_layer_list_edited_after_compiling_is_followed(self):
        model = _small_mlp().eval()
        plan = compile_inference(model, model[1])
        model.layers.append(ReLU().eval())
        before = dict(inference.FALLBACKS)
        _, logits = plan(np.full((2, 5), -3.0))
        assert dict(inference.FALLBACKS) == before
        np.testing.assert_array_equal(logits, model(Tensor(np.full((2, 5), -3.0))).data)


# ----------------------------------------------------------------------
# no stale weights
# ----------------------------------------------------------------------
class TestFreshWeights:
    def _case(self):
        rng = np.random.default_rng(5)
        model = Sequential(
            Conv2d(1, 3, 3, rng=rng), BatchNorm2d(3), ReLU(), MaxPool2d(2),
            Flatten(), Linear(3 * 3 * 3, 6, rng=rng), ReLU(), Linear(6, 3, rng=rng),
        )
        return model, model[6], rng.normal(size=(6, 1, 8, 8))

    def test_sgd_step_after_first_call_is_served(self):
        model, tap, inputs = self._case()
        plan = compile_inference(model.eval(), tap)
        _, first = plan(inputs)
        model.train()
        optimizer = SGD(list(model.parameters()), lr=0.5)
        loss = CrossEntropyLoss()(model(Tensor(inputs)), np.array([0, 1, 2, 0, 1, 2]))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        model.eval()
        activations, logits = plan(inputs)
        assert not np.allclose(logits, first)
        _, ref_activations, ref_logits = autograd_forward(model, tap, inputs)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(activations, ref_activations, rtol=1e-10, atol=1e-12)

    def test_load_state_dict_after_first_call_is_served(self):
        model, tap, inputs = self._case()
        other, _, _ = self._case()
        for param in other.parameters():
            param.data[...] = np.random.default_rng(9).normal(size=param.shape)
        other[1].running_mean[...] = 0.3
        other[1].running_var[...] = 2.0
        plan = compile_inference(model.eval(), tap)
        _, first = plan(inputs)
        model.load_state_dict(other.state_dict())
        _, logits = plan(inputs)
        assert not np.allclose(logits, first)
        _, _, ref_logits = autograd_forward(other.eval(), other[6], inputs)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-10, atol=1e-10)
