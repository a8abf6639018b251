"""Kernel fusion algebra for inference-time reparameterization.

Two linear structures collapse into single convolutions:

- a sequence of depthwise dilated convolutions (no nonlinearity between
  stages) composes into one dense depthwise kernel whose support is
  ``K = 1 + sum(d_i * (k_i - 1))``;
- parallel same-shape 3x3 branches (optionally plus an identity
  self-residual) sum into one 3x3 kernel.

Branch fusion is exact everywhere because all branches share one zero
padding. Stack fusion is exact on interior pixels only: per-stage zero
padding is not equivalent to single-stage zero padding, so rows and
columns within ``(K - 1) // 2`` of the border may differ. Tests and the
fused inference path treat that margin as the documented boundary
caveat.
"""

from __future__ import annotations

import numpy as np

from .nn import ConfigError, ShapeError


def effective_kernel_size(stages) -> int:
    """Support of the dense kernel equivalent to a stack of ``(kernel,
    dilation)`` stages: 1 + sum(d*(k-1))."""
    return 1 + sum(d * (k - 1) for k, d in stages)


def dilate_kernel_to_dense(weight: np.ndarray, d: int) -> np.ndarray:
    """Spread a (C, 1, k, k) kernel onto a dense d*(k-1)+1 grid, taps at stride d."""
    if weight.ndim != 4 or weight.shape[1] != 1:
        raise ShapeError("expected a depthwise (C, 1, k, k) kernel")
    k = weight.shape[2]
    if k != weight.shape[3] or k % 2 == 0:
        raise ConfigError("kernel must be square and odd")
    if d < 1:
        raise ConfigError(f"stage dilation {d} must be >= 1")
    if d == 1:
        return weight.copy()
    size = d * (k - 1) + 1
    dense = np.zeros((weight.shape[0], 1, size, size), dtype=weight.dtype)
    dense[:, :, ::d, ::d] = weight
    return dense


def _convolve_full_per_channel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel full 2-D convolution of (C, 1, A, A) with (C, 1, B, B)."""
    ca, _, ah, aw = a.shape
    cb, _, bh, bw = b.shape
    if ca != cb:
        raise ShapeError("channel counts differ between stage kernels")
    out = np.zeros((ca, 1, ah + bh - 1, aw + bw - 1), dtype=np.result_type(a, b))
    for i in range(bh):
        for j in range(bw):
            out[:, :, i : i + ah, j : j + aw] += b[:, :, i : i + 1, j : j + 1] * a
    return out


def compose_stack_to_dense(weights, biases, dilations):
    """Collapse a depthwise dilated stack into one dense kernel plus bias.

    Stage i convolves with ``weights[i]`` (C, 1, k_i, k_i) at dilation
    ``dilations[i]`` and adds ``biases[i]`` (C values).

    Successive stride-1 correlations compose into a single correlation
    whose kernel is the (true) convolution of the densified per-stage
    kernels. A constant bias plane b passed through the next stage picks
    up that stage's tap sum, so biases fold as
    ``b <- b * sum(w_next) + b_next`` (exact on interior pixels).

    Returns (dense_weight (C, 1, K, K), dense_bias (1, C, 1, 1)).
    """
    if not weights:
        raise ConfigError("stack needs at least one stage")
    if len(biases) != len(weights) or len(dilations) != len(weights):
        raise ShapeError("one weight, bias and dilation per stage required")

    c = weights[0].shape[0]
    dense = None
    bias_acc = np.zeros(c, dtype=np.float64)
    for w, b, d in zip(weights, biases, dilations):
        w64 = np.asarray(w, dtype=np.float64)
        stage_dense = dilate_kernel_to_dense(w64, d)
        if dense is None:
            dense = stage_dense
        else:
            dense = _convolve_full_per_channel(dense, stage_dense)
            bias_acc = bias_acc * w64.sum(axis=(1, 2, 3))
        bias_acc = bias_acc + np.asarray(b, dtype=np.float64).reshape(c)

    target = effective_kernel_size((w.shape[2], d) for w, d in zip(weights, dilations))
    assert dense.shape[2] == target and dense.shape[3] == target
    out_dtype = np.result_type(*[w.dtype for w in weights])
    return dense.astype(out_dtype), bias_acc.reshape(1, c, 1, 1).astype(out_dtype)


def fuse_parallel_3x3(branch_weights, branch_biases, include_identity=False):
    """Sum parallel same-shape 3x3 branches into one kernel.

    The identity self-residual embeds as a center-tap identity map
    (requires in_channels == out_channels). Biases sum. Returns
    (weight, bias (1, C_out, 1, 1)).
    """
    if not branch_weights:
        raise ShapeError("at least one branch required")
    base = branch_weights[0]
    if base.ndim != 4 or base.shape[2:] != (3, 3):
        raise ShapeError("branches must be (out, in, 3, 3) kernels")
    for w in branch_weights[1:]:
        if w.shape != base.shape:
            raise ShapeError("branch weight shapes differ")
    if len(branch_biases) != len(branch_weights):
        raise ShapeError("one bias per branch required")
    out_c, in_c = base.shape[:2]

    weight = np.zeros(base.shape, dtype=np.float64)
    for w in branch_weights:
        weight += w
    if include_identity:
        if out_c != in_c:
            raise ShapeError("identity branch needs in_channels == out_channels")
        idx = np.arange(out_c)
        weight[idx, idx, 1, 1] += 1.0

    bias = np.zeros((1, out_c, 1, 1), dtype=np.float64)
    for b in branch_biases:
        if b.shape != (1, out_c, 1, 1):
            raise ShapeError(f"branch bias shape {b.shape} mismatches")
        bias += b
    return weight.astype(base.dtype), bias.astype(base.dtype)
