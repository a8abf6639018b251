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
convolution code, which computes in the operands' dtype with two kernels:

- banded im2col + GEMM, for every conv but the one below. The columns of
  a band of output rows are gathered into one reused cache-sized buffer
  and multiplied into that band's output by one ``np.matmul`` batched over
  the groups, so neither a padded copy of the input nor a k*k-times-larger
  column array is ever built; the weight gradient sums the same GEMMs over
  the bands. A 1x1 conv needs no padding and no gather: its columns are
  the input itself. Pointwise, dense, grouped and depthwise convs at any
  dilation are the same lowering with a different group count;
- FFT, for a float32 depthwise conv at dilation 1 with a kernel of
  ``_FFT_KERNEL`` (9) or more: a real FFT correlation (``scipy.fft``,
  imported on first use), whose cost barely grows with K. Float64 stays on
  the GEMM: it is the exact reference of the gradient-check suites, where
  FFT round-off would turn a gradient that is exactly zero (a tap that
  only ever reads padding) into noise.

The input gradient is ``conv2d`` of the upstream with the flipped,
group-transposed kernel, except for a 1x1 conv with one group, whose
input gradient is one GEMM with the transposed weight.

The memory-bound layers work through cache-sized pieces of their input and
write into their output, so that no full-size temporary is built:

- float32 GELU evaluates q = erfc(|x| / sqrt(2)) / 2 with the
  Abramowitz-Stegun 7.1.26 erfc (absolute error <= 1.5e-7) in place over
  flat chunks of ``_CHUNK`` elements, and takes x Phi(x) in the sign-free
  form max(x, 0) - |x| q; its VJP shares that evaluation and gets Phi from q
  by the sign bit of x. Other dtypes use ``scipy.special.erf``, imported on
  first use, so float64 GELU stays exact for the gradient checks;
- layer norm and its VJP normalize one (images, channels, pixel columns)
  slab of about ``_BAND`` elements at a time: column ranges of a large
  image, several whole images at once for small ones. The forward makes the
  same operations as ``(x - x.mean(1)) / np.sqrt(x.var(1) + eps)`` in the
  same order, so it is bit-identical to that whole-array formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Tensor4 = np.ndarray

# Python floats, not numpy scalars: under NEP 50 a numpy float64 scalar
# would promote a float32 tensor to float64.
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Elements of a GELU chunk: 256 KB of float32 stays in a core's L2 cache.
_CHUNK = 1 << 16
# Elements of an im2col band buffer and of a layer-norm slab, chosen by
# measurement on one core: at 1 MB of float32 rather than _CHUNK's 256 KB,
# fewer and taller bands ran 5x5 depthwise convs (8 channels, 180x320) and
# batched 3x3 depthwise convs (8 x 16 channels, 32x32) 1.5-1.8x faster, and no
# conv ran slower; a 32-channel 180x320 layer norm took 4.3 ms against 7.7 ms.
_BAND = 1 << 18
# Smallest depthwise kernel that a float32 conv at dilation 1 runs by FFT.
_FFT_KERNEL = 9
# Abramowitz & Stegun 7.1.26 erf: p, then a5..a1 halved, in Horner order, so
# that t poly(t) exp(-z^2) is erfc(z) / 2
_ERF_P = 0.3275911
_ERFC_A = (0.5307027145, -0.7265760135, 0.7107068705, -0.142248368, 0.127414796)


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


def _bands(x: np.ndarray, k: int, d: int):
    """Banded im2col of the zero-padded input. Yields (r0, r1, cols) with the
    columns of output rows r0..r1-1 as an (n, c * k * k, (r1 - r0) * w) array
    of the input's dtype, channel-major like a weight row. Each band copies
    its input rows into one reused zero-bordered slab and gathers the taps
    into one reused buffer of about _BAND elements, so its GEMM reads the
    columns from cache and no padded copy of the whole input is made. For
    k == 1 the input itself, reshaped, is the one band."""
    n, c, h, w = x.shape
    if k == 1:
        yield 0, h, x.reshape(n, c, h * w)
        return
    p = d * (k - 1) // 2
    per_row = n * c * k * k * w
    rows = min(h, max(1, _BAND // per_row))
    slab = np.zeros((n, c, rows + 2 * p, w + 2 * p), x.dtype)
    buf = np.empty(per_row * rows, x.dtype)
    # taps[:, :, i, j] is the rows x w window of the slab that tap (i, j) reads
    s0, s1, s2, s3 = slab.strides
    taps = np.lib.stride_tricks.as_strided(
        slab, (n, c, k, k, rows, w), (s0, s1, d * s2, d * s3, s2, s3), writeable=False)
    for r0 in range(0, h, rows):
        r1 = min(h, r0 + rows)
        top = r0 - p  # the input row slab row 0 holds; rows outside the image are 0
        lo, hi = max(0, -top), min(h, r1 + p) - top
        slab[:, :, :lo] = 0
        slab[:, :, lo:hi, p : p + w] = x[:, :, top + lo : top + hi]
        slab[:, :, hi:] = 0
        cols = buf[: per_row * (r1 - r0)].reshape(n, c, k, k, r1 - r0, w)
        cols[...] = taps[..., : r1 - r0, :]
        yield r0, r1, cols.reshape(n, c * k * k, (r1 - r0) * w)


def _depthwise_fft(x, weight, k) -> np.ndarray:
    """Depthwise "same" correlation of float32 operands by real FFT: the
    flipped kernel and the unpadded input are zero-padded to a fast length of
    at least h + k - 1 per axis, where the circular product equals the linear
    convolution, and the h x w window starting at the "same" padding is kept."""
    from scipy import fft  # ~40 ms of import that no training run needs

    h, w = x.shape[2:]
    p = (k - 1) // 2
    shape = (fft.next_fast_len(h + k - 1, real=True), fft.next_fast_len(w + k - 1, real=True))
    spectrum = fft.rfft2(x, shape)
    # the kernel's k rows first, then its columns: a third of a full rfft2
    spectrum *= fft.fft(fft.rfft(weight[:, 0, ::-1, ::-1], shape[1]), shape[0], axis=-2)
    return np.ascontiguousarray(fft.irfft2(spectrum, shape)[..., p : p + h, p : p + w])


def conv2d(x: Tensor4, weight: Tensor4, bias: Tensor4 | None, spec: ConvSpec) -> Tensor4:
    """Stride-1 "same" cross-correlation with dilation and channel groups."""
    _check_conv_operands(x, weight, bias, spec)
    n, _, h, w = x.shape
    k, d, g = spec.kernel, spec.dilation, spec.groups
    dtype = np.result_type(x, weight, *([] if bias is None else [bias]))
    depthwise = g == spec.in_channels == spec.out_channels
    if depthwise and d == 1 and k >= _FFT_KERNEL and dtype == np.float32:
        out = _depthwise_fft(x, weight, k)
    else:
        # banded im2col + one GEMM per band, batched over the groups
        og = spec.out_channels // g
        wrows = weight.reshape(g, og, -1)
        out = np.empty((n, g, og, h * w), dtype)
        for r0, r1, cols in _bands(x, k, d):
            np.matmul(wrows, cols.reshape(n, g, -1, (r1 - r0) * w), out=out[..., r0 * w : r1 * w])
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

    # GEMM of the upstream against the forward's columns, summed over bands
    up = upstream.reshape(n, g, og, h * w)
    dweight = np.zeros((g, og, cg * k * k), np.result_type(x, upstream))
    for r0, r1, cols in _bands(x, k, d):
        cols = cols.reshape(n, g, cg * k * k, -1).transpose(0, 1, 3, 2)
        dweight += np.matmul(up[..., r0 * w : r1 * w], cols).sum(axis=0)
    dweight = dweight.reshape(spec.weight_shape)

    dx = None
    if need_dx and k == 1 and g == 1:
        dx = np.matmul(weight[:, :, 0, 0].T, upstream.reshape(n, og, h * w)).reshape(x.shape)
    elif need_dx:
        wt = weight.reshape(g, og, cg, k, k).transpose(0, 2, 1, 3, 4)
        wt = np.ascontiguousarray(wt[..., ::-1, ::-1]).reshape(g * cg, og, k, k)
        spec_t = ConvSpec(spec.out_channels, spec.in_channels, k, d, g)
        dx = conv2d(upstream, wt, None, spec_t)
    return dx, dweight, dbias


def _phi(x: np.ndarray) -> np.ndarray:
    """Phi(x), the standard normal CDF, through scipy's erf (any dtype)."""
    from scipy.special import erf  # ~0.4 s of import, kept off `import dcfmn`

    return 0.5 * (1.0 + erf(x * _INV_SQRT2))


def _erfc_chunks(x: np.ndarray):
    """q = erfc(|x| / sqrt(2)) / 2 = Phi(-|x|) and exp(-x^2 / 2) of a float32
    array, in flat chunks of _CHUNK elements. Yields (start, x chunk, |x|, q,
    exp); the last three are scratch that the next chunk overwrites. Everything
    is evaluated in place so that the temporaries stay in cache, with the
    Abramowitz & Stegun 7.1.26 erfc (absolute error <= 1.5e-7) at z = |x| / sqrt(2):
    t = 1 / (1 + p z) and q = t poly(t) exp(-z^2), poly's coefficients halved."""
    flat = x.reshape(-1)
    scratch = np.empty((3, min(flat.size, _CHUNK)), np.float32)
    for s in range(0, flat.size, _CHUNK):
        xs = flat[s : s + _CHUNK]
        a, q, t = scratch[:, : xs.size]
        np.abs(xs, out=a)
        np.multiply(a, _ERF_P * _INV_SQRT2, out=t)
        t += 1.0
        np.reciprocal(t, out=t)
        np.multiply(t, _ERFC_A[0], out=q)
        for c in _ERFC_A[1:]:
            q += c
            q *= t
        np.square(xs, out=t)
        t *= -0.5
        np.exp(t, out=t)
        q *= t
        yield s, xs, a, q, t


def gelu(x: Tensor4) -> Tensor4:
    """Exact-CDF GELU, x * Phi(x), applied elementwise."""
    if x.dtype != np.float32:
        return x * _phi(x)
    # x Phi(x) = max(x, 0) - |x| q on both sides of 0, with no sign test
    out = np.empty(x.shape, np.float32)
    flat = out.reshape(-1)
    for s, xs, a, q, _ in _erfc_chunks(x):
        o = flat[s : s + xs.size]
        np.maximum(xs, 0.0, out=o)
        q *= a
        o -= q
    return out


def gelu_vjp(x: Tensor4, upstream: Tensor4) -> Tensor4:
    if x.dtype != np.float32 or upstream.dtype != np.float32:
        return upstream * (_phi(x) + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x)))
    out = np.empty(x.shape, np.float32)
    flat, up = out.reshape(-1), upstream.reshape(-1)
    for s, xs, phi, q, pdf in _erfc_chunks(x):
        # Phi(x) = 1 - q when the sign bit of x is clear, q when it is set (so
        # -0.0 maps like 0.0); 1 - q rounds once, where 0.5 + 0.5 erf rounds twice
        np.copysign(q, xs, out=q)
        np.signbit(xs, out=phi)
        np.subtract(1.0, phi, out=phi)
        phi -= q
        pdf *= xs
        pdf *= _INV_SQRT2PI
        phi += pdf
        np.multiply(up[s : s + xs.size], phi, out=flat[s : s + xs.size])
    return out


def _slabs(x3: np.ndarray, buffers: int, dtype):
    """Cover an (n, c, h*w) array with slabs of about _BAND elements: column
    ranges of one image for a large image, whole images at a time for small
    ones, so that the per-slab Python work stays small against the numpy
    work. Yields (index, slab, scratch, stat): the slab's index into any array
    of x3's shape, x3's (m, c, P) slab, ``buffers`` scratch arrays of its shape
    and one (m, 1, P) scratch array, all reused from slab to slab."""
    n, c, hw = x3.shape
    cols = max(2, _BAND // c)
    if hw <= cols:
        step = cols // max(hw, 1)
        index = [(slice(i, i + step), slice(None), slice(None)) for i in range(0, n, step)]
        size = min(n, step) * hw
    else:
        # no slab of one column: numpy would sum its channels pairwise, not in order
        starts = list(range(0, hw, cols))
        if hw - starts[-1] == 1:
            starts.pop()
        ranges = list(zip(starts, starts[1:] + [hw]))
        index = [(slice(i, i + 1), slice(None), slice(*r)) for i in range(n) for r in ranges]
        size = cols + 1
    scratch, stat = np.empty((buffers, c * size), dtype), np.empty(size, dtype)
    for k in index:
        xs = x3[k]
        m, _, p = xs.shape
        bufs = [a[: xs.size].reshape(xs.shape) for a in scratch]
        yield k, xs, bufs, stat[: m * p].reshape(m, 1, p)


def _normalize_slab(xs, out, sq, stat, eps):
    """out = (xs - mean) / sqrt(var + eps) over axis 1 of an (m, c, P) slab,
    with the statistics numpy's mean and var compute (sum, then divide by c)
    and the same operations in the same order, so the result is bit-identical
    to ``(x - x.mean(1)) / np.sqrt(x.var(1) + eps)``; sq and stat are
    (m, c, P) and (m, 1, P) scratch. Leaves sqrt(var + eps) in stat."""
    c = xs.shape[1]
    np.sum(xs, axis=1, keepdims=True, out=stat)
    stat /= c
    np.subtract(xs, stat, out=out)
    np.square(out, out=sq)
    np.sum(sq, axis=1, keepdims=True, out=stat)
    stat /= c
    stat += eps
    np.sqrt(stat, out=stat)
    out /= stat


def layer_norm(
    x: Tensor4, gain: Tensor4, bias: Tensor4, eps: float = 1e-6
) -> Tensor4:
    """Normalize across channels per (n, h, w) position, then per-channel affine.

    gain and bias are (1, c, 1, 1). Variance uses the biased (1/c) estimator.
    """
    check_tensor4(x, "x")
    n, c, h, w = x.shape
    if gain.shape != (1, c, 1, 1) or bias.shape != (1, c, 1, 1):
        raise ShapeError("layer_norm gain/bias must have shape (1, c, 1, 1)")
    x3 = x.reshape(n, c, h * w)
    g, b = gain.reshape(1, c, 1), bias.reshape(1, c, 1)
    out = np.empty(x3.shape, np.result_type(x, gain, bias))
    for k, xs, (sq,), stat in _slabs(x3, 1, x.dtype):
        o = out[k]
        _normalize_slab(xs, o, sq, stat, eps)
        o *= g
        o += b
    return out.reshape(x.shape)


def layer_norm_vjp(
    x: Tensor4, gain: Tensor4, bias: Tensor4, upstream: Tensor4, eps: float = 1e-6
):
    """Returns (dx, dgain, dbias) for the channel-wise layer norm.

    With xhat the normalized input and u = upstream * gain,
    dx = (u - mean_c(u) - xhat mean_c(u xhat)) / sqrt(var + eps)."""
    n, c, h, w = x.shape
    x3, up3 = x.reshape(n, c, h * w), upstream.reshape(n, c, h * w)
    g = gain.reshape(1, c, 1)
    dtype = np.result_type(x, gain, upstream)
    dx = np.empty(x3.shape, dtype)
    dgain = np.zeros((1, c, 1), dtype)
    for k, xs, (xhat, t), std in _slabs(x3, 2, dtype):
        _normalize_slab(xs, xhat, t, std, eps)
        us, u = up3[k], dx[k]
        np.multiply(us, xhat, out=t)
        dgain += t.sum(axis=(0, 2), keepdims=True)
        t *= g  # u * xhat
        np.multiply(us, g, out=u)
        u -= u.mean(axis=1, keepdims=True)
        xhat *= t.mean(axis=1, keepdims=True)
        u -= xhat
        u /= std
    dbias = upstream.sum(axis=(0, 2, 3)).reshape(bias.shape)
    return dx.reshape(x.shape), dgain.reshape(bias.shape), dbias


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
    return x * _se_gate(x, w1, b1, w2, b2)[3][:, :, None, None]


def _se_gate(x, w1, b1, w2, b2):
    """(pooled input, squeeze pre-activation, its ReLU, gate) of the SE block,
    each an (images, channels) matrix. The 1x1 convs on pooled vectors are
    matrix products, and sigmoid(t) = exp(-log(1 + e^-t)) overflows at
    neither end and keeps float32 in float32."""
    z = x.mean(axis=(2, 3))
    h1 = z @ w1[:, :, 0, 0].T + b1[0, :, 0, 0]
    r1 = np.maximum(h1, 0.0)
    t = r1 @ w2[:, :, 0, 0].T + b2[0, :, 0, 0]
    return z, h1, r1, np.exp(-np.logaddexp(0.0, -t))


def se_block_vjp(x, w1, b1, w2, b2, upstream):
    """Returns (dx, dw1, db1, dw2, db2) for the squeeze-excitation gate."""
    h, w = x.shape[2:]
    z, h1, r1, gate = _se_gate(x, w1, b1, w2, b2)
    dh2 = (upstream * x).sum(axis=(2, 3)) * gate * (1.0 - gate)
    dh1 = (dh2 @ w2[:, :, 0, 0]) * (h1 > 0)
    dx = upstream * gate[:, :, None, None]
    dx += ((dh1 @ w1[:, :, 0, 0]) / (h * w))[:, :, None, None]
    return (dx, (dh1.T @ z).reshape(w1.shape), dh1.sum(axis=0).reshape(b1.shape),
            (dh2.T @ r1).reshape(w2.shape), dh2.sum(axis=0).reshape(b2.shape))
