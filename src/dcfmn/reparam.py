"""Kernel fusion algebra for structural reparameterization.

Two linear structures collapse into single convolutions:

- a sequence of depthwise dilated convolutions (no nonlinearity between
  stages) composes into one dense depthwise kernel whose support is
  ``K = 1 + sum(d_i * (k_i - 1))``. The composition is the stack's own
  impulse response, computed by running the stack through ``nn.conv2d``
  on a K x K canvas, where it is exact;
- parallel same-shape 3x3 branches (optionally plus an identity
  self-residual) sum into one 3x3 kernel. The model's training form takes
  this sum at every step and folds the LFEM's expand 1x1 into it, so each
  LFEM runs as one conv in both forms; fusion stores that fold.

Both are exact over the whole image. All branches share one zero padding.
A stack matches its dense kernel when its input is zero-padded once by the
kernel's radius ``(K - 1) // 2``, as the training form of the model does,
rather than once per stage.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .nn import ConfigError, ShapeError


def effective_kernel_size(stages) -> int:
    """Support of the dense kernel equivalent to a stack of ``(kernel,
    dilation)`` stages: 1 + sum(d*(k-1))."""
    return 1 + sum(d * (k - 1) for k, d in stages)


def compose_stack_to_dense(weights, biases, dilations):
    """Collapse a depthwise dilated stack into one dense kernel plus bias.

    Stage i convolves with ``weights[i]`` (C, 1, k_i, k_i) at dilation
    ``dilations[i]`` and adds ``biases[i]`` (1, C, 1, 1).

    The stack runs through ``nn.conv2d`` in float64 on a K x K canvas,
    once on a unit impulse without biases and once on zeros with biases.
    The stack is linear up to its bias, so the flipped impulse response is
    the dense kernel and the centre of the zero response is the dense
    bias. Both are exact: each stage's support stays inside the canvas,
    and the centre's receptive field is the whole canvas.

    Returns (dense_weight (C, 1, K, K), dense_bias (1, C, 1, 1)).
    """
    if not weights:
        raise ConfigError("stack needs at least one stage")
    if len(biases) != len(weights) or len(dilations) != len(weights):
        raise ShapeError("one weight, bias and dilation per stage required")
    if any(w.ndim != 4 or w.shape[2] != w.shape[3] for w in weights):
        raise ConfigError("stage kernels must be square (C, 1, k, k)")

    c = weights[0].shape[0]
    specs = [nn.ConvSpec(c, c, w.shape[2], dilation=d, groups=c)
             for w, d in zip(weights, dilations)]
    size = effective_kernel_size((spec.kernel, spec.dilation) for spec in specs)
    impulse = np.zeros((1, c, size, size))
    impulse[:, :, size // 2, size // 2] = 1.0
    response = np.zeros_like(impulse)
    for w, b, spec in zip(weights, biases, specs):
        w64 = np.asarray(w, dtype=np.float64)
        impulse = nn.conv2d(impulse, w64, None, spec)
        response = nn.conv2d(response, w64, np.asarray(b, dtype=np.float64), spec)

    out_dtype = np.result_type(*[w.dtype for w in weights])
    dense = impulse[0, :, None, ::-1, ::-1]
    bias = response[:, :, size // 2 : size // 2 + 1, size // 2 : size // 2 + 1]
    return dense.astype(out_dtype), bias.astype(out_dtype)


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
