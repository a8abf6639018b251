"""Rank-4 tensor primitives with hand-written reverse-mode gradients.

Every value is a plain numpy array in (batch, channel, height, width)
layout ("Tensor4"); float32 is the working precision and float64 is used
by the gradient-check suites. Operations are pure functions. Each
differentiable op has a ``*_vjp`` companion returning the exact analytic
gradients of ``sum(upstream * op(...))`` with respect to its inputs.

Convolutions are stride-1 with square odd kernels and zero "same"
padding only; dilation expands the tap spacing and ``groups`` splits the
channels into independent groups (``groups == channels`` is the
depthwise case). ``conv2d`` and ``conv2d_vjp`` hold the package's only
convolution code, two kernels that compute in the operands' dtype:

- depthwise: one multiply-add of a shifted slice of the padded input per
  tap; the weight gradient is a per-tap reduction against the upstream;
- everything else: im2col into one buffer, then one GEMM (once per
  group); the weight gradient is a GEMM against the same columns. A 1x1
  conv needs no padding and no gather: its columns are the input itself.

The input gradient is ``conv2d`` of the upstream with the flipped,
group-transposed kernel, except for a 1x1 conv with one group, whose
input gradient is one GEMM with the transposed weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

Tensor4 = np.ndarray

# Python floats, not numpy scalars: under NEP 50 a numpy float64 scalar
# would promote a float32 tensor to float64.
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Output elements per depthwise chunk: 256 KB of float32, which stays in a
# core's L2 cache across the taps.
_CHUNK = 1 << 16


class ShapeError(ValueError):
    """Operand extents do not match the operation's contract."""


class ConfigError(ValueError):
    """Structural parameter (groups, divisibility, kernel size) is invalid."""


def check_tensor4(x: np.ndarray, name: str = "tensor") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name} must be a rank-4 (n, c, h, w) array")


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a stride-1, zero-padded "same" convolution."""

    in_channels: int
    out_channels: int
    kernel: int
    dilation: int = 1
    groups: int = 1

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and positive, got {self.kernel}")
        if self.dilation < 1:
            raise ConfigError(f"dilation must be >= 1, got {self.dilation}")
        if self.groups < 1:
            raise ConfigError("groups must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ConfigError(
                f"groups={self.groups} must divide in_channels={self.in_channels} "
                f"and out_channels={self.out_channels}"
            )

    @property
    def padding(self) -> int:
        return self.dilation * (self.kernel - 1) // 2

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (
            self.out_channels,
            self.in_channels // self.groups,
            self.kernel,
            self.kernel,
        )


def _check_conv_operands(x, weight, bias, spec: ConvSpec):
    check_tensor4(x, "x")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels, spec expects {spec.in_channels}"
        )
    if tuple(weight.shape) != spec.weight_shape:
        raise ShapeError(
            f"weight shape {tuple(weight.shape)} != expected {spec.weight_shape}"
        )
    if bias is not None and tuple(bias.shape) != (1, spec.out_channels, 1, 1):
        raise ShapeError(
            f"bias shape {tuple(bias.shape)} != (1, {spec.out_channels}, 1, 1)"
        )


def _taps(xp: np.ndarray, h: int, w: int, k: int, d: int):
    """Each kernel tap (i, j) with its view of the padded input: the h x w
    window that tap reads, offset by (i * d, j * d)."""
    for i in range(k):
        for j in range(k):
            yield i, j, xp[..., i * d : i * d + h, j * d : j * d + w]


def _columns(xp: np.ndarray, h: int, w: int, k: int, d: int) -> np.ndarray:
    """im2col: the taps of the padded input gathered into one
    (n, c * k * k, h * w) buffer of its dtype, channel-major like a weight row.
    For k == 1 that is the input itself, reshaped."""
    n, c = xp.shape[:2]
    if k == 1:
        return xp.reshape(n, c, h * w)
    cols = np.empty((n, c, k, k, h, w), xp.dtype)
    for i, j, tap in _taps(xp, h, w, k, d):
        cols[:, :, i, j] = tap
    return cols.reshape(n, c * k * k, h * w)


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x


def _is_depthwise(spec: ConvSpec) -> bool:
    return spec.groups == spec.in_channels == spec.out_channels


def _depthwise(xp, weight, h, w, k, d, dtype) -> np.ndarray:
    """Depthwise correlation by shift and accumulate: one multiply-add of a
    shifted slice per tap. The (image, channel) planes go through in chunks
    of about _CHUNK output elements, so a chunk stays in cache across taps."""
    n, c = xp.shape[:2]
    planes = xp.reshape(n * c, *xp.shape[2:])
    kernels = np.tile(weight[:, 0], (n, 1, 1))  # one k x k kernel per plane
    out = np.zeros((n * c, h, w), dtype)
    step = max(1, _CHUNK // (h * w))
    scratch = np.empty((min(step, n * c), h, w), dtype)
    for s in range(0, n * c, step):
        acc = out[s : s + step]
        prod = scratch[: len(acc)]
        for i, j, tap in _taps(planes[s : s + step], h, w, k, d):
            np.multiply(tap, kernels[s : s + step, i, j, None, None], out=prod)
            acc += prod
    return out.reshape(n, c, h, w)


def conv2d(x: Tensor4, weight: Tensor4, bias: Tensor4 | None, spec: ConvSpec) -> Tensor4:
    """Stride-1 "same" cross-correlation with dilation and channel groups."""
    _check_conv_operands(x, weight, bias, spec)
    n, _, h, w = x.shape
    k, d, g = spec.kernel, spec.dilation, spec.groups
    dtype = np.result_type(x, weight, *([] if bias is None else [bias]))
    xp = _pad(x, spec.padding)
    if _is_depthwise(spec):
        out = _depthwise(xp, weight, h, w, k, d, dtype)
    else:
        # im2col + GEMM, once per group
        cg = spec.in_channels // g
        og = spec.out_channels // g
        out = np.empty((n, spec.out_channels, h * w), dtype)
        for q in range(g):
            cols = _columns(xp[:, q * cg : (q + 1) * cg], h, w, k, d)
            np.matmul(weight[q * og : (q + 1) * og].reshape(og, -1), cols,
                      out=out[:, q * og : (q + 1) * og])
        out = out.reshape(n, spec.out_channels, h, w)
    if bias is not None:
        out += bias
    return out


def conv2d_vjp(
    x: Tensor4,
    weight: Tensor4,
    bias: Tensor4 | None,
    spec: ConvSpec,
    upstream: Tensor4,
    need_dx: bool = True,
):
    """Gradients of sum(upstream * conv2d(x, weight, bias, spec)).

    Returns (dx, dweight, dbias); dx is None when need_dx is False and
    dbias is None when bias is None. dx is the "same"-padded correlation
    of the upstream with the spatially flipped, group-transposed kernel,
    which is the exact adjoint of the forward map; for a 1x1 conv with one
    group that is one GEMM with the transposed weight, computed here.
    """
    _check_conv_operands(x, weight, bias, spec)
    if upstream.shape != (x.shape[0], spec.out_channels, x.shape[2], x.shape[3]):
        raise ShapeError(f"upstream shape {upstream.shape} mismatches forward output")
    n, _, h, w = x.shape
    k, d, g = spec.kernel, spec.dilation, spec.groups
    cg = spec.in_channels // g
    og = spec.out_channels // g

    dbias = None
    if bias is not None:
        dbias = upstream.sum(axis=(0, 2, 3)).reshape(1, spec.out_channels, 1, 1)

    xp = _pad(x, spec.padding)
    dweight = np.empty(spec.weight_shape, np.result_type(x, upstream))
    if _is_depthwise(spec):
        # per-tap reduction of the shifted input against the upstream
        for i, j, tap in _taps(xp, h, w, k, d):
            dweight[:, 0, i, j] = np.einsum("nchw,nchw->c", tap, upstream)
    else:
        # GEMM of the upstream against the same columns as the forward
        for q in range(g):
            cols = _columns(xp[:, q * cg : (q + 1) * cg], h, w, k, d)
            upq = upstream[:, q * og : (q + 1) * og].reshape(n, og, h * w)
            dweight[q * og : (q + 1) * og] = (
                np.matmul(upq, cols.transpose(0, 2, 1)).sum(axis=0).reshape(og, cg, k, k)
            )

    dx = None
    if need_dx and k == 1 and g == 1:
        dx = np.matmul(weight[:, :, 0, 0].T, upstream.reshape(n, og, h * w)).reshape(x.shape)
    elif need_dx:
        wt = weight.reshape(g, og, cg, k, k).transpose(0, 2, 1, 3, 4)
        wt = np.ascontiguousarray(wt[..., ::-1, ::-1]).reshape(g * cg, og, k, k)
        spec_t = ConvSpec(spec.out_channels, spec.in_channels, k, d, g)
        dx = conv2d(upstream, wt, None, spec_t)
    return dx, dweight, dbias


def gelu(x: Tensor4) -> Tensor4:
    """Exact-CDF GELU, x * Phi(x), applied elementwise."""
    return x * (0.5 * (1.0 + erf(x * _INV_SQRT2)))


def gelu_vjp(x: Tensor4, upstream: Tensor4) -> Tensor4:
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    phi_pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return upstream * (phi_cdf + x * phi_pdf)


def layer_norm(
    x: Tensor4, gain: Tensor4, bias: Tensor4, eps: float = 1e-6
) -> Tensor4:
    """Normalize across channels per (n, h, w) position, then per-channel affine.

    gain and bias are (1, c, 1, 1). Variance uses the biased (1/c) estimator.
    """
    check_tensor4(x, "x")
    c = x.shape[1]
    if gain.shape != (1, c, 1, 1) or bias.shape != (1, c, 1, 1):
        raise ShapeError("layer_norm gain/bias must have shape (1, c, 1, 1)")
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return gain * xhat + bias


def layer_norm_vjp(
    x: Tensor4, gain: Tensor4, bias: Tensor4, upstream: Tensor4, eps: float = 1e-6
):
    """Returns (dx, dgain, dbias) for the channel-wise layer norm."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    dgain = (upstream * xhat).sum(axis=(0, 2, 3)).reshape(bias.shape)
    dbias = upstream.sum(axis=(0, 2, 3)).reshape(bias.shape)
    u = upstream * gain
    dx = inv_std * (
        u
        - u.mean(axis=1, keepdims=True)
        - xhat * (u * xhat).mean(axis=1, keepdims=True)
    )
    return dx, dgain, dbias


def pixel_shuffle(x: Tensor4, s: int) -> Tensor4:
    """Depth-to-space: (n, c, h, w) -> (n, c/s^2, h*s, w*s).

    Output channel o at (y, x) reads input channel o*s^2 + (y%s)*s + (x%s)
    at (y//s, x//s).
    """
    check_tensor4(x, "x")
    n, c, h, w = x.shape
    if s < 1 or c % (s * s):
        raise ConfigError(f"channels {c} not divisible by s^2 = {s * s}")
    oc = c // (s * s)
    y = x.reshape(n, oc, s, s, h, w)
    y = y.transpose(0, 1, 4, 2, 5, 3)
    return y.reshape(n, oc, h * s, w * s)


def pixel_shuffle_vjp(upstream: Tensor4, s: int) -> Tensor4:
    """Space-to-depth rearrangement of the upstream (exact inverse index map)."""
    n, oc, hs, ws = upstream.shape
    if hs % s or ws % s:
        raise ShapeError("upstream extents not divisible by the shuffle factor")
    h, w = hs // s, ws // s
    y = upstream.reshape(n, oc, h, s, w, s)
    y = y.transpose(0, 1, 3, 5, 2, 4)
    return y.reshape(n, oc * s * s, h, w)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _fc_1x1(z, w):
    # (n, c, 1, 1) x (o, c, 1, 1) -> (n, o, 1, 1)
    return np.einsum("nc,oc->no", z[:, :, 0, 0], w[:, :, 0, 0])[:, :, None, None]


def se_block(
    x: Tensor4, w1: Tensor4, b1: Tensor4, w2: Tensor4, b2: Tensor4
) -> Tensor4:
    """Squeeze-excitation channel gate.

    Global average pool -> 1x1 conv C->C/r -> ReLU -> 1x1 conv C/r->C ->
    sigmoid -> per-channel multiply into x.
    """
    check_tensor4(x, "x")
    c = x.shape[1]
    mid = w1.shape[0]
    if w1.shape != (mid, c, 1, 1) or w2.shape != (c, mid, 1, 1):
        raise ShapeError("se_block weight extents mismatch the input channels")
    if b1.shape != (1, mid, 1, 1) or b2.shape != (1, c, 1, 1):
        raise ShapeError("se_block bias extents mismatch")
    z = x.mean(axis=(2, 3), keepdims=True)
    h1 = _fc_1x1(z, w1) + b1
    r1 = np.maximum(h1, 0.0)
    h2 = _fc_1x1(r1, w2) + b2
    gate = _sigmoid(h2)
    return x * gate


def se_block_vjp(x, w1, b1, w2, b2, upstream):
    """Returns (dx, dw1, db1, dw2, db2) for the squeeze-excitation gate."""
    n, c, h, w = x.shape
    z = x.mean(axis=(2, 3), keepdims=True)
    h1 = _fc_1x1(z, w1) + b1
    r1 = np.maximum(h1, 0.0)
    h2 = _fc_1x1(r1, w2) + b2
    gate = _sigmoid(h2)

    dx = upstream * gate
    dgate = (upstream * x).sum(axis=(2, 3), keepdims=True)
    dh2 = dgate * gate * (1.0 - gate)
    db2 = dh2.sum(axis=0, keepdims=True)
    dw2 = np.einsum("no,nc->oc", dh2[:, :, 0, 0], r1[:, :, 0, 0])[..., None, None]
    dr1 = np.einsum("no,oc->nc", dh2[:, :, 0, 0], w2[:, :, 0, 0])[:, :, None, None]
    dh1 = dr1 * (h1 > 0)
    db1 = dh1.sum(axis=0, keepdims=True)
    dw1 = np.einsum("no,nc->oc", dh1[:, :, 0, 0], z[:, :, 0, 0])[..., None, None]
    dz = np.einsum("no,oc->nc", dh1[:, :, 0, 0], w1[:, :, 0, 0])[:, :, None, None]
    dx = dx + dz / (h * w)
    return dx, dw1, db1, dw2, db2

