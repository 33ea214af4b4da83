"""Functional building blocks: im2col convolution, pooling, softmax.

``conv2d`` and ``max_pool2d`` are implemented as autograd *primitives* (one
node each with a hand-written backward) because expressing them through
elementary ops would be prohibitively slow in numpy.  Both match the standard
PyTorch semantics for stride/padding so Table I architectures transfer
one-to-one.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def im2col(
    images: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> np.ndarray:
    """Unfold sliding windows into columns.

    Parameters
    ----------
    images:
        ``(N, C, H, W)`` input batch.
    kernel, stride:
        Window height/width and vertical/horizontal step.

    Returns
    -------
    ``(N, C*kh*kw, out_h*out_w)`` array where each column is one receptive
    field, ready for a matmul against flattened filters.
    """
    n, c, h, w = images.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    stride_n, stride_c, stride_h, stride_w = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(stride_n, stride_c, stride_h, stride_w, stride_h * sh, stride_w * sw),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, out_h * out_w)


def col2im(
    columns: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = image_shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols = columns.reshape(n, c, kh, kw, out_h, out_w)
    images = np.zeros(image_shape, dtype=columns.dtype)
    for i in range(kh):
        for j in range(kw):
            images[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[
                :, :, i, j, :, :
            ]
    return images


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: Tuple[int, int] = (1, 1),
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation, PyTorch ``Conv2d`` semantics.

    ``x`` is ``(N, C_in, H, W)``, ``weight`` is ``(C_out, C_in, kh, kw)``,
    ``bias`` is ``(C_out,)``.
    """
    if padding:
        x = x.pad2d(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels, weight expects {c_in_w}")
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1

    cols = im2col(x.data, (kh, kw), stride)          # (N, C*kh*kw, L)
    flat_w = weight.data.reshape(c_out, -1)          # (C_out, C*kh*kw)
    out = flat_w @ cols                              # (N, C_out, L), BLAS
    out += bias.data.reshape(1, c_out, 1)
    out = out.reshape(n, c_out, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n, c_out, -1)       # (N, C_out, L)
        if weight.requires_grad:
            grad_w = (grad_flat @ cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = flat_w.T @ grad_flat         # (N, C*kh*kw, L)
            x._accumulate(col2im(grad_cols, x.shape, (kh, kw), stride))

    return Tensor._make(out, (x, weight, bias), backward)


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Max pooling over ``kernel x kernel`` windows (stride defaults to kernel).

    Trailing rows/columns that do not fill a window are dropped, matching
    PyTorch's default (no ceil mode).
    """
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=4)
    out = np.take_along_axis(flat, argmax[..., None], axis=4)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        ki, kj = np.divmod(argmax, kernel)
        n_idx, c_idx, i_idx, j_idx = np.indices((n, c, out_h, out_w))
        rows = i_idx * stride + ki
        cols_ = j_idx * stride + kj
        np.add.at(grad_x, (n_idx, c_idx, rows, cols_), grad)
        x._accumulate(grad_x)

    return Tensor._make(out, (x,), backward)


# ----------------------------------------------------------------------
# classification heads
# ----------------------------------------------------------------------
def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a plain array."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax on a plain array."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as one-hot rows."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
