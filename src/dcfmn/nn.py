"""Rank-4 tensor primitives with hand-written reverse-mode gradients.

Every value is a plain numpy array in (batch, channel, height, width)
layout ("Tensor4"); float32 is the working precision and float64 is used
by the gradient-check suites. Operations are pure functions. Each
differentiable op has a ``*_vjp`` companion returning the exact analytic
gradients of ``sum(upstream * op(...))`` with respect to its inputs.

Convolutions are stride-1 with square odd kernels and zero "same"
padding only; dilation expands the tap spacing and ``groups`` splits the
channels into independent groups (``groups == channels`` is the
depthwise case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf

Tensor4 = np.ndarray

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


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


def _dilated_windows(xp: np.ndarray, h: int, w: int, k: int, d: int) -> np.ndarray:
    """View of the padded input as (n, c, h, w, k, k) tap windows, tap stride d."""
    sn, sc, sh, sw = xp.strides
    n, c = xp.shape[:2]
    return as_strided(xp, (n, c, h, w, k, k), (sn, sc, sh, sw, d * sh, d * sw))


def conv2d(x: Tensor4, weight: Tensor4, bias: Tensor4 | None, spec: ConvSpec) -> Tensor4:
    """Stride-1 "same" cross-correlation with dilation and channel groups."""
    _check_conv_operands(x, weight, bias, spec)
    n, _, h, w = x.shape
    k, d, g = spec.kernel, spec.dilation, spec.groups
    if k == 1 and g == 1:
        # pointwise: plain channel mix, no padding or windows
        out = np.einsum("nchw,oc->nohw", x, weight[:, :, 0, 0], optimize=True)
        if bias is not None:
            out = out + bias
        return out
    p = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = _dilated_windows(xp, h, w, k, d)
    if g == 1:
        out = np.einsum("nchwij,ocij->nohw", win, weight, optimize=True)
    elif g == spec.in_channels and g == spec.out_channels:
        # depthwise fast path
        out = np.einsum("nchwij,cij->nchw", win, weight[:, 0], optimize=True)
    else:
        cg = spec.in_channels // g
        og = spec.out_channels // g
        wing = win.reshape(n, g, cg, h, w, k, k)
        wg = weight.reshape(g, og, cg, k, k)
        out = np.einsum("ngchwij,gocij->ngohw", wing, wg, optimize=True)
        out = out.reshape(n, spec.out_channels, h, w)
    if bias is not None:
        out = out + bias
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
    which is the exact adjoint of the forward map.
    """
    _check_conv_operands(x, weight, bias, spec)
    if upstream.shape != (x.shape[0], spec.out_channels, x.shape[2], x.shape[3]):
        raise ShapeError(f"upstream shape {upstream.shape} mismatches forward output")
    n, _, h, w = x.shape
    k, d, g = spec.kernel, spec.dilation, spec.groups
    p = spec.padding
    cg = spec.in_channels // g
    og = spec.out_channels // g

    dbias = None
    if bias is not None:
        dbias = upstream.sum(axis=(0, 2, 3)).reshape(1, spec.out_channels, 1, 1)

    if k == 1 and g == 1:
        dweight = np.einsum("nchw,nohw->oc", x, upstream, optimize=True)
        dweight = dweight[:, :, None, None]
        dx = None
        if need_dx:
            dx = np.einsum("nohw,oc->nchw", upstream, weight[:, :, 0, 0],
                           optimize=True)
        return dx, dweight, dbias

    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = _dilated_windows(xp, h, w, k, d)
    if g == 1:
        dweight = np.einsum("nchwij,nohw->ocij", win, upstream, optimize=True)
    elif g == spec.in_channels and g == spec.out_channels:
        dweight = np.einsum("nchwij,nchw->cij", win, upstream, optimize=True)
        dweight = dweight[:, None]
    else:
        wing = win.reshape(n, g, cg, h, w, k, k)
        upg = upstream.reshape(n, g, og, h, w)
        dweight = np.einsum("ngchwij,ngohw->gocij", wing, upg, optimize=True)
        dweight = dweight.reshape(spec.out_channels, cg, k, k)

    dx = None
    if need_dx:
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


def chunk4(x: Tensor4) -> tuple[Tensor4, Tensor4, Tensor4, Tensor4]:
    """Split into four contiguous channel ranges, in order."""
    check_tensor4(x, "x")
    c = x.shape[1]
    if c % 4:
        raise ConfigError(f"channel count {c} is not divisible by 4")
    q = c // 4
    return tuple(x[:, i * q : (i + 1) * q] for i in range(4))


def concat4(parts) -> Tensor4:
    """Channel-stack tensors that agree on (n, h, w)."""
    first = parts[0]
    for p in parts[1:]:
        if p.shape[0] != first.shape[0] or p.shape[2:] != first.shape[2:]:
            raise ShapeError("concat4 operands disagree on batch or spatial extents")
    return np.concatenate(parts, axis=1)


def concat4_vjp(upstream: Tensor4, channel_sizes) -> tuple[Tensor4, ...]:
    """Split the upstream back into the concatenated pieces."""
    bounds = np.cumsum(channel_sizes)[:-1]
    return tuple(np.split(upstream, bounds, axis=1))


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

