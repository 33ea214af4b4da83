"""Neuron activation patterns (Definition 1 of the paper).

A pattern is the elementwise binarisation of a ReLU layer's output:
``prelu(x) = 1 if x > 0 else 0``.  These helpers extract patterns for whole
datasets in one batched forward sweep through the network.  The sweep runs
as a plain-numpy inference plan (:func:`repro.nn.inference.compile_inference`)
that builds no autograd graph; a model the plan does not cover takes the
autograd forward pass with a hook on the monitored module, and each such
run is counted in :data:`repro.nn.inference.FALLBACKS`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.inference import compile_inference
from repro.nn.layers import Module


def binarize(activations: np.ndarray) -> np.ndarray:
    """Apply ``prelu`` elementwise: strictly positive becomes 1, else 0.

    Accepts any shape; trailing dimensions are flattened so convolutional
    feature maps become flat patterns (the paper treats convolutional layers
    as fully-connected ones with zero weights for missing connections).
    """
    flat = activations.reshape(activations.shape[0], -1)
    return (flat > 0).astype(np.uint8)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between pattern arrays (broadcasting rows).

    ``a`` may be ``(N, d)`` and ``b`` ``(d,)`` or ``(N, d)``; returns the
    per-row distance.
    """
    return np.asarray(a != b).sum(axis=-1)


def infer_pattern_width(model: Module, monitored_module: Module) -> int:
    """Best-effort flat pattern width of ``monitored_module``, without a
    forward pass.

    Activationless modules (ReLU, the usual monitoring point) take the
    width of the closest preceding layer with a declared ``out_features``
    in their enclosing ``Sequential``.  Returns 0 when nothing declares a
    width (empty-input extraction then yields ``(0, 0)`` patterns).
    """
    def declared(module: Module) -> int:
        width = getattr(module, "out_features", None)
        return int(width) if isinstance(width, int) else 0

    width = declared(monitored_module)
    if width:
        return width
    for container in model.modules():
        layers = getattr(container, "layers", None)
        if not isinstance(layers, list):
            continue
        for index, layer in enumerate(layers):
            if layer is monitored_module:
                for previous in reversed(layers[:index]):
                    width = declared(previous)
                    if width:
                        return width
    return 0


def extract_patterns(
    model: Module,
    monitored_module: Module,
    inputs: np.ndarray,
    batch_size: int = 256,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``inputs`` through ``model`` and collect patterns plus logits.

    Zero-length inputs run no forward pass; the pattern matrix is then
    ``(0, d)`` with ``d`` taken from :func:`infer_pattern_width` and the
    logits ``(0, 1)`` (so ``argmax(axis=1)`` stays well-defined).

    Returns
    -------
    patterns:
        ``(N, d)`` uint8 binarised activations of the monitored module.
    logits:
        ``(N, C)`` raw network outputs, for deciding ``dec(in)``.
    """
    if len(inputs) == 0:
        width = infer_pattern_width(model, monitored_module)
        return np.zeros((0, width), dtype=np.uint8), np.zeros((0, 1))
    model.eval()
    activations, logits = compile_inference(model, monitored_module)(inputs, batch_size)
    return binarize(activations), logits


def pack_patterns(patterns: np.ndarray) -> np.ndarray:
    """Pack a ``(N, d)`` 0/1 array into bytes for compact storage."""
    if patterns.ndim != 2:
        raise ValueError(f"expected (N, d) patterns, got shape {patterns.shape}")
    return np.packbits(patterns.astype(np.uint8), axis=1)


def unpack_patterns(packed: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_patterns` given the original pattern width."""
    if packed.ndim != 2:
        raise ValueError(f"expected (N, B) packed array, got shape {packed.shape}")
    unpacked = np.unpackbits(packed, axis=1)
    if unpacked.shape[1] < width:
        raise ValueError(
            f"packed rows hold only {unpacked.shape[1]} bits, need {width}"
        )
    return unpacked[:, :width]
