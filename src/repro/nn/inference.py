"""Inference plans: the eval-mode forward pass as plain numpy ops.

Serving a monitored decision needs the monitored layer's activations and
the logits, never a gradient.  :func:`compile_inference` runs an
eval-mode :class:`~repro.nn.layers.Sequential` as plain numpy ops, one per
top-level layer, that compute exactly that: no
:class:`~repro.nn.tensor.Tensor`, no backward closure and no forward hook.  Feature maps stay NHWC inside the
plan so a convolution is one BLAS ``matmul`` over an im2col view and a
pooling layer combines one strided view per window offset; the
monitored activations, ``Flatten`` and the logits are handed back in the
autograd layers' NCHW order.

ReLU, BatchNorm2d, Linear and max pooling compute the autograd layers'
values in their op order and give the same bits; a convolution or an
average pool sums in a different order, so its outputs may differ in the
last few ulps.  Computation stays float64.

A model the plan does not cover takes the autograd forward pass with an
:class:`~repro.nn.hooks.ActivationTap` instead: a non-``Sequential``
model, a layer type without a plan op (exact types only, so a subclass
that overrides ``forward`` is never mis-served), a forward hook on the
model or a layer, a module in training mode, or a tap that is not exactly
one of the top-level layers.  Every such run adds one to
:data:`FALLBACKS` under its reason.

Parameters are read when the plan runs, never copied when it is
compiled, so training or ``load_state_dict`` after compiling cannot
serve stale weights.
"""

from __future__ import annotations

import collections
import functools
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.extras import AvgPool2d, Dropout, LeakyReLU, Sigmoid, Tanh
from repro.nn.hooks import ActivationTap
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor

NOT_SEQUENTIAL = "model is not a Sequential"
UNSUPPORTED_LAYER = "layer type has no plan op"
FORWARD_HOOK = "forward hook registered"
TRAINING_MODE = "module in training mode"
TAP_NOT_TOP_LEVEL = "tap is not exactly one top-level layer"

#: Rows per plan pass.  Feature maps of a few dozen images stay in cache:
#: on a 2-CPU x86 box, 32-row passes ran MNIST 1.4x and GTSRB 1.8x faster
#: per image than 256-row ones.
CHUNK_ROWS = 32

#: Autograd fallback runs per reason (one of the constants above).
FALLBACKS: "collections.Counter[str]" = collections.Counter()
_FALLBACKS_LOCK = threading.Lock()  # plans also run on executor threads

# A plan value is an array plus whether a 4-D array is held NHWC.
_Value = Tuple[np.ndarray, bool]


def _nhwc(value: _Value) -> np.ndarray:
    x, nhwc = value
    if x.ndim != 4:
        raise ValueError(f"expected an NCHW batch, got shape {x.shape}")
    return x if nhwc else x.transpose(0, 2, 3, 1)


def _nchw(value: _Value) -> np.ndarray:
    x, nhwc = value
    return x.transpose(0, 3, 1, 2) if nhwc else x


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """``(N, out_h, out_w, kernel, kernel, C)`` strided view of NHWC ``x``."""
    n, h, w, c = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    sn, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, out_h, out_w, kernel, kernel, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _conv2d(layer: Conv2d, value: _Value) -> _Value:
    x = np.ascontiguousarray(_nhwc(value))
    p = layer.padding
    if p:
        x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    weight = layer.weight.data
    c_out, c_in, kh, kw = weight.shape
    if x.shape[3] != c_in:
        raise ValueError(f"input has {x.shape[3]} channels, weight expects {c_in}")
    cols = _windows(x, kh, layer.stride)
    n, out_h, out_w = cols.shape[:3]
    cols = cols.reshape(n * out_h * out_w, kh * kw * c_in)
    flat_w = weight.transpose(2, 3, 1, 0).reshape(kh * kw * c_in, c_out)
    out = cols @ flat_w
    out += layer.bias.data
    return out.reshape(n, out_h, out_w, c_out), True


def _window_offsets(layer: Module, value: _Value) -> List[np.ndarray]:
    """One strided ``(N, out_h, out_w, C)`` view per pooling-window offset
    (faster than reducing a 6-D window view over two inner axes)."""
    x = _nhwc(value)
    k, s = layer.kernel_size, layer.stride
    out_h = (x.shape[1] - k) // s + 1
    out_w = (x.shape[2] - k) // s + 1
    return [
        x[:, i : i + s * out_h : s, j : j + s * out_w : s]
        for i in range(k)
        for j in range(k)
    ]


def _max_pool2d(layer: MaxPool2d, value: _Value) -> _Value:
    return functools.reduce(np.maximum, _window_offsets(layer, value)), True


def _avg_pool2d(layer: AvgPool2d, value: _Value) -> _Value:
    windows = _window_offsets(layer, value)
    return functools.reduce(np.add, windows) / len(windows), True


def _batch_norm2d(layer: BatchNorm2d, value: _Value) -> _Value:
    # The autograd layer's eval branch, op for op, channel-last and in
    # place on the one fresh array.
    out = _nhwc(value) - layer.running_mean.reshape(-1)
    out *= (layer.running_var.reshape(-1) + layer.eps) ** -0.5
    out *= layer.gamma.data.reshape(-1)
    out += layer.beta.data.reshape(-1)
    return out, True


def _linear(layer: Linear, value: _Value) -> _Value:
    return _nchw(value) @ layer.weight.data.T + layer.bias.data, False


def _flatten(_layer: Flatten, value: _Value) -> _Value:
    x = _nchw(value)
    return x.reshape(x.shape[0], -1), False


def _relu(_layer: ReLU, value: _Value) -> _Value:
    return np.maximum(value[0], 0.0), value[1]


def _leaky_relu(layer: LeakyReLU, value: _Value) -> _Value:
    x = value[0]
    return np.where(x > 0, x, x * layer.negative_slope), value[1]


def _tanh(_layer: Tanh, value: _Value) -> _Value:
    return np.tanh(value[0]), value[1]


def _sigmoid(_layer: Sigmoid, value: _Value) -> _Value:
    return 1.0 / (1.0 + np.exp(-value[0])), value[1]


def _identity(_layer: Dropout, value: _Value) -> _Value:
    return value


_OPS: Dict[type, Callable[[Module, _Value], _Value]] = {
    Conv2d: _conv2d,
    MaxPool2d: _max_pool2d,
    AvgPool2d: _avg_pool2d,
    BatchNorm2d: _batch_norm2d,
    Linear: _linear,
    Flatten: _flatten,
    ReLU: _relu,
    LeakyReLU: _leaky_relu,
    Tanh: _tanh,
    Sigmoid: _sigmoid,
    Dropout: _identity,
}


def _blocker(model: Module, tap: Module) -> Optional[str]:
    """Why ``model`` cannot run as a plan tapping ``tap``, or None."""
    if type(model) is not Sequential:
        return NOT_SEQUENTIAL
    if model._hooks:
        return FORWARD_HOOK
    if model.training:
        return TRAINING_MODE
    taps = 0
    for layer in model.layers:
        if type(layer) not in _OPS:
            return UNSUPPORTED_LAYER
        if layer._hooks:
            return FORWARD_HOOK
        if layer.training:
            return TRAINING_MODE
        taps += layer is tap
    return None if taps == 1 else TAP_NOT_TOP_LEVEL


def _fallback(
    model: Module, tap: Module, reason: str, inputs: np.ndarray, batch_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Count one fallback run under ``reason``, then run the autograd
    forward pass with an activation hook on ``tap``."""
    with _FALLBACKS_LOCK:
        FALLBACKS[reason] += 1
    logits_chunks = []
    with ActivationTap(tap) as recorder:
        for start in range(0, len(inputs), batch_size):
            logits_chunks.append(model(Tensor(inputs[start : start + batch_size])).data)
    return recorder.concatenated(), np.concatenate(logits_chunks, axis=0)


def _forward(
    model: Sequential, tap: Module, batch: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One plan pass: each top-level layer's op, tap output copied out."""
    value: _Value = (np.asarray(batch, dtype=np.float64), False)
    activations = None
    for layer in model.layers:
        value = _OPS[type(layer)](layer, value)
        if layer is tap:
            activations = np.ascontiguousarray(_nchw(value))
    return activations, np.ascontiguousarray(_nchw(value))


def compile_inference(
    model: Module, tap: Module
) -> Callable[..., Tuple[np.ndarray, np.ndarray]]:
    """The inference plan of ``model`` tapping ``tap``: call it as
    ``plan(inputs, batch_size=256)`` to get ``(activations of tap,
    logits)``, the arrays the autograd forward pass with an
    ``ActivationTap`` gives.  Put the model in ``eval()`` first.

    Each call looks at the model's current layers, hooks and modes, so a
    hook, ``train()`` or an edited layer list after compiling is never
    served by a stale plan: a call the plan cannot serve runs the
    autograd forward pass and counts one fallback in :data:`FALLBACKS`.
    """

    def plan(inputs: np.ndarray, batch_size: int = 256) -> Tuple[np.ndarray, np.ndarray]:
        reason = _blocker(model, tap)
        if reason is not None:
            return _fallback(model, tap, reason, inputs, batch_size)
        rows = min(batch_size, CHUNK_ROWS)
        passes = [
            _forward(model, tap, inputs[start : start + rows])
            for start in range(0, len(inputs), rows)
        ]
        return (
            np.concatenate([activations for activations, _ in passes], axis=0),
            np.concatenate([logits for _, logits in passes], axis=0),
        )

    return plan
