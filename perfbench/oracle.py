"""Independent answers the program's outputs are checked against.

Nothing here calls a zone backend, the monitor, the network modules or
the serving layer.  Hamming balls are XOR/popcount over plain numpy
words, the MNIST network is re-run as plain numpy arrays straight from
the checkpoint file, and the γ rule is recomputed from its definition.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from common import require

#: Pre-activations closer to 0 than this are "ambiguous": float rounding
#: in a different operation order may put them on either side, so their
#: pattern bits are not compared.
ACTIVATION_TOL = 1e-9

#: γ calibration rule of the paper's §III, as the benchmark states it.
CALIBRATION_MAX_GAMMA = 4
CALIBRATION_MAX_OOP = 0.05


# ----------------------------------------------------------------------
# Hamming geometry on packed words
# ----------------------------------------------------------------------
def pack_words(patterns: np.ndarray) -> np.ndarray:
    """0/1 rows (N, d) → (N, ceil(d/64)) uint64 words."""
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
    n, d = patterns.shape
    width = -(-max(d, 1) // 64) * 64
    padded = np.zeros((n, width), dtype=np.uint8)
    padded[:, :d] = patterns
    return np.ascontiguousarray(np.packbits(padded, axis=1)).view(np.uint64)


def min_hamming(queries: np.ndarray, reference: np.ndarray, width: int,
                chunk: int = 1024) -> np.ndarray:
    """Per-query minimum Hamming distance to any reference row (packed).

    An empty reference gives ``width + 1``, farther than any real
    pattern (the backends' sentinel)."""
    out = np.empty(len(queries), dtype=np.int64)
    if len(reference) == 0:
        out.fill(width + 1)
        return out
    for start in range(0, len(queries), chunk):
        block = queries[start : start + chunk]
        xor = block[:, None, :] ^ reference[None, :, :]
        out[start : start + chunk] = (
            np.bitwise_count(xor).sum(axis=2, dtype=np.int64).min(axis=1)
        )
    return out


class ClassZones:
    """Per-class unique visited rows, kept as packed words.

    The oracle's own copy of the comfort zones: it starts from the
    training patterns Algorithm 1 records (label == prediction == c) and
    grows with every absorbed row, deduplicated with ``np.unique``.
    """

    def __init__(self, patterns: np.ndarray, labels: np.ndarray, predictions: np.ndarray,
                 classes: Iterable[int]):
        self.width = int(np.shape(patterns)[1])
        words = pack_words(patterns)
        self.words: Dict[int, np.ndarray] = {}
        for c in classes:
            mask = (labels == c) & (predictions == c)
            self.words[int(c)] = np.unique(words[mask], axis=0)

    def copy(self) -> "ClassZones":
        twin = ClassZones.__new__(ClassZones)
        twin.width, twin.words = self.width, dict(self.words)
        return twin

    def absorb(self, patterns: np.ndarray, classes: np.ndarray) -> None:
        words = pack_words(patterns)
        for c in np.unique(classes):
            c = int(c)
            self.words[c] = np.unique(
                np.concatenate([self.words[c], words[classes == c]]), axis=0
            )

    def count(self, c: int) -> int:
        return int(len(self.words[int(c)]))

    def distances(self, patterns: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Exact distance of each row to its predicted class's rows."""
        words = pack_words(patterns)
        classes = np.asarray(classes)
        out = np.zeros(len(words), dtype=np.int64)
        for c in np.unique(classes):
            mask = classes == c
            out[mask] = min_hamming(words[mask], self.words[int(c)], self.width)
        return out

    def verdicts(self, patterns: np.ndarray, classes: np.ndarray, gamma: int) -> np.ndarray:
        """Hamming-ball membership: distance ≤ γ."""
        return self.distances(patterns, classes) <= gamma


def calibrated_gamma(distances: np.ndarray) -> int:
    """Smallest γ ≤ 4 whose out-of-pattern rate (share of rows farther
    than γ) is ≤ 5%; when none is, the largest γ of the sweep."""
    distances = np.asarray(distances)
    for gamma in range(CALIBRATION_MAX_GAMMA + 1):
        if float((distances > gamma).mean()) <= CALIBRATION_MAX_OOP:
            return gamma
    return CALIBRATION_MAX_GAMMA


# ----------------------------------------------------------------------
# plain-numpy MNIST forward pass
# ----------------------------------------------------------------------
def _conv_valid(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1, unpadded cross-correlation via one matmul (NCHW)."""
    n, c, h, w = x.shape
    out_c, _, kh, kw = weight.shape
    oh, ow = h - kh + 1, w - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (n, c, oh, ow, kh, kw) → (n, oh, ow, c*kh*kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, c * kh * kw)
    out = cols @ weight.reshape(out_c, -1).T + bias
    return out.transpose(0, 3, 1, 2)


def _max_pool2(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    x = x[:, :, : h // 2 * 2, : w // 2 * 2]
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def mnist_reference_forward(weights: Dict[str, np.ndarray], images: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Table I network 1 as plain arrays: returns (monitored
    pre-activations, logits).  Keys follow the checkpoint's layer indices:
    conv 0, conv 3, fc 7/9/11, monitored fc 13, output fc 15."""
    x = np.asarray(images, dtype=np.float64)
    x = _max_pool2(np.maximum(_conv_valid(x, weights["layers.0.weight"], weights["layers.0.bias"]), 0))
    x = _max_pool2(np.maximum(_conv_valid(x, weights["layers.3.weight"], weights["layers.3.bias"]), 0))
    x = x.reshape(len(x), -1)
    for index in (7, 9, 11):
        x = np.maximum(x @ weights[f"layers.{index}.weight"].T + weights[f"layers.{index}.bias"], 0)
    pre = x @ weights["layers.13.weight"].T + weights["layers.13.bias"]
    logits = np.maximum(pre, 0) @ weights["layers.15.weight"].T + weights["layers.15.bias"]
    return pre, logits


def load_checkpoint(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def check_patterns_match(program_patterns: np.ndarray, pre_activations: np.ndarray,
                         what: str) -> int:
    """Program pattern bits must equal ``pre > 0`` wherever the
    pre-activation is farther than :data:`ACTIVATION_TOL` from 0.
    Returns the number of ambiguous bits skipped."""
    reference = pre_activations > 0
    clear = np.abs(pre_activations) > ACTIVATION_TOL
    mismatched = (np.asarray(program_patterns, dtype=bool) != reference) & clear
    require(
        not mismatched.any(),
        f"{what}: {int(mismatched.sum())} pattern bits differ from the "
        f"plain-numpy forward pass (first row {int(np.argwhere(mismatched)[0][0]) if mismatched.any() else -1})",
    )
    return int((~clear).sum())


def unambiguous_rows(pre_activations: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Rows whose pattern bits and argmax are both clear of rounding."""
    clear_bits = (np.abs(pre_activations) > ACTIVATION_TOL).all(axis=1)
    top2 = np.sort(logits, axis=1)[:, -2:]
    clear_argmax = (top2[:, 1] - top2[:, 0]) > ACTIVATION_TOL
    return clear_bits & clear_argmax


def first_mismatch(expected: np.ndarray, actual: np.ndarray) -> Optional[int]:
    diff = np.flatnonzero(np.asarray(expected) != np.asarray(actual))
    return int(diff[0]) if len(diff) else None
