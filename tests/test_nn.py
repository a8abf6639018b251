import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dcfmn import nn

from conftest import finite_difference_grad, naive_conv2d, rel_err

F64 = np.float64


# ---------------------------------------------------------------------------
# conv2d forward
# ---------------------------------------------------------------------------


def test_conv2d_identity_kernel():
    x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    spec = nn.ConvSpec(1, 1, 3)
    y = nn.conv2d(x, w, None, spec)
    np.testing.assert_array_equal(y, x)


def test_conv2d_ones_kernel_padding_arithmetic():
    c = 0.7
    x = np.full((1, 1, 5, 5), c, dtype=np.float64)
    w = np.ones((1, 1, 3, 3), dtype=np.float64)
    y = nn.conv2d(x, w, None, nn.ConvSpec(1, 1, 3))
    assert y[0, 0, 2, 2] == pytest.approx(9 * c)
    for corner in [(0, 0), (0, 4), (4, 0), (4, 4)]:
        assert y[0, 0][corner] == pytest.approx(4 * c)
    # edge midpoints see a 2x3 window
    assert y[0, 0, 0, 2] == pytest.approx(6 * c)


def test_conv2d_dilated_matches_loop_oracle(rng):
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal((1, 2, 1, 1))
    spec = nn.ConvSpec(2, 2, 3, dilation=2)
    got = nn.conv2d(x, w, b, spec)
    want = naive_conv2d(x, w, b, kernel=3, dilation=2, groups=1)
    assert rel_err(got, want) < 1e-6


def _case(groups, cin, cout, k, d, size):
    """A conv test case whose id also names the image size."""
    case_id = "-".join(map(str, (groups, cin, cout, k, d)))
    return pytest.param(groups, cin, cout, k, d, size, id=case_id + "-{}x{}".format(*size))


# depthwise cases: K = 5..17, 3x3 at dilation 2 and 3, and a 17x17 kernel over
# a 6x7 image, wider than the image in both directions
_DW_CASES = [(4, 4, 4, 5, 1), (4, 4, 4, 7, 1), (4, 4, 4, 13, 1), (4, 4, 4, 17, 1),
             (4, 4, 4, 3, 2), (4, 4, 4, 3, 3)]
_DW_WIDE = _case(4, 4, 4, 17, 1, (6, 7))


def _banded(groups, c, d, n=2, w=8):
    """A 3x3 case whose image height spans three im2col bands of nn._CHUNK
    elements plus a shorter remainder band. The tests that take it shrink
    nn._BAND to nn._CHUNK, which keeps the finite-difference check of a
    three-band image small."""
    rows = nn._CHUNK // (n * c * 3 * 3 * w)
    return _case(groups, c, c, 3, d, (3 * rows + 5, w))


@pytest.mark.parametrize("groups,cin,cout,k,d,size", [
    pytest.param(2, 4, 6, 3, 1, (6, 7), id="2-4-6-3-1"),
    pytest.param(4, 4, 4, 3, 2, (6, 7), id="4-4-4-3-2"),
    pytest.param(1, 3, 5, 5, 1, (6, 7), id="1-3-5-5-1"),
    pytest.param(8, 8, 8, 3, 3, (6, 7), id="8-8-8-3-3"),
    pytest.param(1, 4, 6, 1, 1, (6, 7), id="1-4-6-1-1"),
] + [_case(*c, (c[3] + 4, c[3] + 5)) for c in _DW_CASES] + [_DW_WIDE, _banded(1, 2, 1), _banded(2, 2, 2)])
def test_conv2d_grouped_matches_loop_oracle(rng, monkeypatch, groups, cin, cout, k, d, size):
    monkeypatch.setattr(nn, "_BAND", nn._CHUNK)
    x = rng.standard_normal((2, cin, *size))
    w = rng.standard_normal((cout, cin // groups, k, k))
    spec = nn.ConvSpec(cin, cout, k, dilation=d, groups=groups)
    got = nn.conv2d(x, w, None, spec)
    want = naive_conv2d(x, w, None, kernel=k, dilation=d, groups=groups)
    assert rel_err(got, want) < 1e-10


def test_conv2d_linear_in_input(rng):
    spec = nn.ConvSpec(3, 4, 3)
    w = rng.standard_normal(spec.weight_shape).astype(np.float32)
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    y = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    a, b = 1.3, -0.4
    lhs = nn.conv2d(a * x + b * y, w, None, spec)
    rhs = a * nn.conv2d(x, w, None, spec) + b * nn.conv2d(y, w, None, spec)
    assert rel_err(lhs, rhs) < 1e-5


def test_conv2d_depthwise_equals_per_channel_convs(rng):
    c = 5
    x = rng.standard_normal((2, c, 6, 6))
    w = rng.standard_normal((c, 1, 3, 3))
    spec = nn.ConvSpec(c, c, 3, groups=c)
    got = nn.conv2d(x, w, None, spec)
    for ch in range(c):
        single = nn.conv2d(
            x[:, ch : ch + 1], w[ch : ch + 1], None, nn.ConvSpec(1, 1, 3)
        )
        assert rel_err(got[:, ch : ch + 1], single) < 1e-12


def test_conv2d_shape_and_config_errors(rng):
    x = rng.standard_normal((1, 3, 4, 4))
    w = rng.standard_normal((4, 3, 3, 3))
    with pytest.raises(nn.ShapeError):
        nn.conv2d(x, w, None, nn.ConvSpec(4, 4, 3))  # channel mismatch
    with pytest.raises(nn.ShapeError):
        nn.conv2d(x, w[:, :2], None, nn.ConvSpec(3, 4, 3))  # weight extents
    with pytest.raises(nn.ConfigError):
        nn.ConvSpec(3, 4, 3, groups=2)  # groups must divide channels
    with pytest.raises(nn.ConfigError):
        nn.ConvSpec(3, 4, 4)  # even kernel


# ---------------------------------------------------------------------------
# conv2d vjp
# ---------------------------------------------------------------------------


def test_conv2d_vjp_zero_upstream(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    spec = nn.ConvSpec(2, 3, 3)
    w = rng.standard_normal(spec.weight_shape)
    b = rng.standard_normal((1, 3, 1, 1))
    dx, dw, db = nn.conv2d_vjp(x, w, b, spec, np.zeros((1, 3, 4, 4)))
    assert not dx.any() and not dw.any() and not db.any()


def test_conv2d_vjp_1x1_scalar_case(rng):
    x = rng.standard_normal((2, 1, 3, 3))
    up = rng.standard_normal((2, 1, 3, 3))
    w = rng.standard_normal((1, 1, 1, 1))
    _, dw, _ = nn.conv2d_vjp(x, w, None, nn.ConvSpec(1, 1, 1), up)
    assert dw[0, 0, 0, 0] == pytest.approx((x * up).sum())


@pytest.mark.parametrize("groups,cin,cout,k,d,size", [
    pytest.param(1, 2, 3, 3, 1, (6, 6), id="1-2-3-3-1"),
    pytest.param(1, 2, 2, 3, 2, (6, 6), id="1-2-2-3-2"),
    pytest.param(2, 4, 4, 3, 1, (6, 6), id="2-4-4-3-1"),
    pytest.param(4, 4, 4, 5, 2, (6, 6), id="4-4-4-5-2"),
    pytest.param(1, 4, 6, 1, 1, (6, 6), id="1-4-6-1-1"),
] + [_case(*c, (8, 8) if c[3] > 5 else (6, 6)) for c in _DW_CASES] + [_DW_WIDE])
def test_conv2d_vjp_finite_difference(rng, monkeypatch, groups, cin, cout, k, d, size):
    monkeypatch.setattr(nn, "_BAND", nn._CHUNK)
    x = rng.standard_normal((2, cin, *size))
    spec = nn.ConvSpec(cin, cout, k, dilation=d, groups=groups)
    w = rng.standard_normal(spec.weight_shape)
    b = rng.standard_normal((1, cout, 1, 1))
    up = rng.standard_normal((2, cout, *size))

    dx, dw, db = nn.conv2d_vjp(x, w, b, spec, up)
    fd_x = finite_difference_grad(lambda v: (nn.conv2d(v, w, b, spec) * up).sum(), x)
    fd_w = finite_difference_grad(lambda v: (nn.conv2d(x, v, b, spec) * up).sum(), w)
    fd_b = finite_difference_grad(lambda v: (nn.conv2d(x, w, v, spec) * up).sum(), b)
    assert rel_err(dx, fd_x) < 1e-4
    assert rel_err(dw, fd_w) < 1e-4
    assert rel_err(db, fd_b) < 1e-4


@pytest.mark.parametrize("groups,cin,cout,k,d,size", [_banded(1, 2, 1), _banded(2, 2, 2)])
def test_conv2d_vjp_depthwise_across_bands(rng, monkeypatch, groups, cin, cout, k, d, size):
    """A dense and a dilated depthwise conv over three im2col bands plus a
    remainder: the weight and bias gradients, summed over the bands, against
    finite differences, and the input gradient against the loop oracle of
    the flipped, group-transposed kernel."""
    monkeypatch.setattr(nn, "_BAND", nn._CHUNK)
    x = rng.standard_normal((2, cin, *size))
    spec = nn.ConvSpec(cin, cout, k, dilation=d, groups=groups)
    w = rng.standard_normal(spec.weight_shape)
    b = rng.standard_normal((1, cout, 1, 1))
    up = rng.standard_normal((2, cout, *size))
    dx, dw, db = nn.conv2d_vjp(x, w, b, spec, up)
    fd_w = finite_difference_grad(lambda v: (nn.conv2d(x, v, b, spec) * up).sum(), w)
    fd_b = finite_difference_grad(lambda v: (nn.conv2d(x, w, v, spec) * up).sum(), b)
    assert rel_err(dw, fd_w) < 1e-4
    assert rel_err(db, fd_b) < 1e-4
    og, cg = cout // groups, cin // groups
    wt = w.reshape(groups, og, cg, k, k).transpose(0, 2, 1, 3, 4).reshape(cin, og, k, k)
    want_dx = naive_conv2d(up, wt[:, :, ::-1, ::-1], None, kernel=k, dilation=d, groups=groups)
    assert rel_err(dx, want_dx) < 1e-10


@pytest.mark.parametrize("groups,cin,cout,k", [
    (1, 4, 6, 1), (1, 4, 6, 3), (4, 4, 4, 7), (2, 4, 6, 3), (4, 4, 4, 17),
], ids=["pw", "dense", "dw", "grouped", "dw17"])
def test_conv2d_float32_stays_float32(rng, groups, cin, cout, k):
    spec = nn.ConvSpec(cin, cout, k, groups=groups)
    f32 = lambda shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
    x, w, b, up = f32((2, cin, 5, 6)), f32(spec.weight_shape), f32((1, cout, 1, 1)), f32((2, cout, 5, 6))
    assert nn.conv2d(x, w, b, spec).dtype == np.float32
    for grad in nn.conv2d_vjp(x, w, b, spec, up):
        assert grad.dtype == np.float32


@pytest.mark.parametrize("groups,cin,cout,k,d,size", [
    _case(*c, (c[3] + 4, c[3] + 5)) for c in _DW_CASES if c[3] > 3] + [_DW_WIDE])
def test_conv2d_float32_depthwise_matches_loop_oracle(rng, groups, cin, cout, k, d, size):
    """Float32 depthwise kernels of K >= 5 (FFT from nn._FFT_KERNEL up, GEMM
    below it): the forward and the VJP's input gradient, which is the
    correlation with the flipped kernel, against the float64 loop oracle."""
    x = rng.standard_normal((2, cin, *size))
    w = rng.standard_normal((cout, 1, k, k))
    up = rng.standard_normal((2, cout, *size))
    spec = nn.ConvSpec(cin, cout, k, dilation=d, groups=groups)
    f32 = lambda a: a.astype(np.float32)  # noqa: E731
    got = nn.conv2d(f32(x), f32(w), None, spec)
    dx, _, _ = nn.conv2d_vjp(f32(x), f32(w), None, spec, f32(up))
    assert got.dtype == dx.dtype == np.float32
    assert rel_err(got, naive_conv2d(x, w, None, kernel=k, dilation=d, groups=groups)) < 1e-6
    want_dx = naive_conv2d(up, w[:, :, ::-1, ::-1], None, kernel=k, dilation=d, groups=groups)
    assert rel_err(dx, want_dx) < 1e-6


def test_conv2d_dense_peak_memory_is_banded(rng):
    """A 64->64 3x3 float32 conv and 8-channel 5x5 and 7x7 depthwise convs
    on a 180x320 image allocate less than their output again: no whole-image
    padded copy and no k*k-times-larger column gather."""
    for c, k, groups in [(64, 3, 1), (8, 5, 8), (8, 7, 8)]:
        x = rng.standard_normal((1, c, 180, 320), dtype=np.float32)
        spec = nn.ConvSpec(c, c, k, groups=groups)
        w = rng.standard_normal(spec.weight_shape, dtype=np.float32)
        tracemalloc.start()
        try:
            y = nn.conv2d(x, w, None, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * y.nbytes, (k, groups, peak / y.nbytes)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("groups", [1, 2], ids=["dense", "dw"])
def test_conv2d_vjp_padding_only_taps_have_exact_zero_gradient(rng, groups, dtype):
    """A 3x3 conv at dilation 3 on a 2x2 image: every off-centre tap reads
    only zero padding, so its weight gradient is exactly zero, not round-off."""
    spec = nn.ConvSpec(2, 2, 3, dilation=3, groups=groups)
    x = rng.standard_normal((2, 2, 2, 2)).astype(dtype)
    w = rng.standard_normal(spec.weight_shape).astype(dtype)
    up = rng.standard_normal((2, 2, 2, 2)).astype(dtype)
    _, dw, _ = nn.conv2d_vjp(x, w, None, spec, up)
    centre = dw[:, :, 1, 1].copy()
    dw[:, :, 1, 1] = 0
    assert not dw.any()
    assert np.all(centre != 0)


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------


def test_gelu_values():
    x = np.array([[[[0.0, 10.0, 1.0]]]])
    y = nn.gelu(x)
    assert y[0, 0, 0, 0] == 0.0
    assert y[0, 0, 0, 1] == pytest.approx(10.0, abs=1e-6)
    # independent oracle: x * Phi(x) via the stdlib erf
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert y[0, 0, 0, 2] == pytest.approx(1.0 * phi1, abs=1e-12)
    assert y[0, 0, 0, 2] == pytest.approx(0.841345, abs=1e-5)


def test_gelu_float32_matches_float64_erf(rng):
    """The float32 GELU and its derivative against scipy's float64 erf, on
    normal samples and a dense grid over [-10, 10]; scipy's own float32 erf
    reaches about 4.5e-7 on GELU here."""
    from scipy.special import erf

    x = np.concatenate([2.0 * rng.standard_normal(4096), np.linspace(-10.0, 10.0, 2001)])
    x = x.astype(np.float32).reshape(1, 1, 1, -1)
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
    y = nn.gelu(x)
    dy = nn.gelu_vjp(x, np.ones_like(x))
    assert y.dtype == dy.dtype == np.float32
    assert np.abs(y - x64 * cdf).max() < 5e-7
    assert np.abs(dy - (cdf + x64 * pdf)).max() < 5e-7
    # the sign of zero does not flip Phi: Phi(-0.0) = Phi(0.0) = 0.5
    zeros = np.array([-0.0, 0.0], np.float32).reshape(1, 1, 1, 2)
    np.testing.assert_array_equal(nn.gelu_vjp(zeros, np.ones_like(zeros)), 0.5)


def test_gelu_vjp_finite_difference(rng):
    x = rng.standard_normal((1, 2, 3, 3))
    up = rng.standard_normal(x.shape)
    got = nn.gelu_vjp(x, up)
    fd = finite_difference_grad(lambda v: (nn.gelu(v) * up).sum(), x)
    assert rel_err(got, fd) < 1e-4


@pytest.mark.parametrize("size", [1, 999, 1000, 1001, 2500, (1 << 16) + 3])
def test_gelu_chunk_tails(rng, monkeypatch, size):
    """Sizes that are not a multiple of the chunk give the elementwise values
    of one whole-array evaluation: the last, short chunk is not special."""
    x = (3.0 * rng.standard_normal(size)).astype(np.float32).reshape(1, 1, 1, -1)
    up = rng.standard_normal(x.shape).astype(np.float32)
    whole_y, whole_dy = nn.gelu(x), nn.gelu_vjp(x, up)
    monkeypatch.setattr(nn, "_CHUNK", 1000)
    np.testing.assert_array_equal(nn.gelu(x), whole_y)
    np.testing.assert_array_equal(nn.gelu_vjp(x, up), whole_dy)


def test_gelu_float32_signed_zero_and_extremes():
    """gelu(+-0) is 0 with slope 0.5; finite float32 input gives finite output,
    x itself far right and 0 far left, up to the largest float32."""
    big = np.float32(3.4e38)
    x = np.array([-0.0, 0.0, 1e4, -1e4, big, -big], np.float32).reshape(1, 1, 1, -1)
    with np.errstate(over="ignore"):  # x^2 / 2 overflows to inf, and exp(-inf) is 0
        y = nn.gelu(x)
        dy = nn.gelu_vjp(x, np.ones_like(x))
    assert np.isfinite(y).all() and np.isfinite(dy).all()
    np.testing.assert_array_equal(y, [[[[0.0, 0.0, 1e4, 0.0, big, 0.0]]]])
    np.testing.assert_array_equal(dy, [[[[0.5, 0.5, 1.0, 0.0, 1.0, 0.0]]]])


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def _ln_params(c, dtype=F64):
    return np.ones((1, c, 1, 1), dtype=dtype), np.zeros((1, c, 1, 1), dtype=dtype)


def test_layer_norm_constant_channels():
    x = np.full((1, 4, 2, 2), 3.25)
    g, b = _ln_params(4)
    y = nn.layer_norm(x, g, b)
    np.testing.assert_allclose(y, 0.0, atol=1e-3)


def test_layer_norm_two_channel_symmetry():
    eps = 1e-6
    x = np.zeros((1, 2, 1, 1))
    x[0, 0] = -1.0
    x[0, 1] = 1.0
    g, b = _ln_params(2)
    y = nn.layer_norm(x, g, b, eps=eps)
    expected = 1.0 / math.sqrt(1.0 + eps)
    assert y[0, 0, 0, 0] == pytest.approx(-expected, abs=1e-9)
    assert y[0, 1, 0, 0] == pytest.approx(expected, abs=1e-9)


def test_layer_norm_statistics(rng):
    x = rng.standard_normal((2, 16, 5, 5)) * 3.0 + 1.0
    g, b = _ln_params(16)
    y = nn.layer_norm(x, g, b)
    assert np.abs(y.mean(axis=1)).max() < 1e-6
    assert np.abs(y.var(axis=1) - 1.0).max() < 1e-4


def test_layer_norm_vjp_finite_difference(rng):
    x = rng.standard_normal((2, 6, 3, 3))
    g = rng.standard_normal((1, 6, 1, 1))
    b = rng.standard_normal((1, 6, 1, 1))
    up = rng.standard_normal(x.shape)
    dx, dg, db = nn.layer_norm_vjp(x, g, b, up)
    fd_x = finite_difference_grad(lambda v: (nn.layer_norm(v, g, b) * up).sum(), x)
    fd_g = finite_difference_grad(lambda v: (nn.layer_norm(x, v, b) * up).sum(), g)
    fd_b = finite_difference_grad(lambda v: (nn.layer_norm(x, g, v) * up).sum(), b)
    assert rel_err(dx, fd_x) < 1e-4
    assert rel_err(dg, fd_g) < 1e-4
    assert rel_err(db, fd_b) < 1e-4


def _layer_norm_unchunked(x, g, b, eps=1e-6):
    """The whole-array formula nn.layer_norm evaluates slab by slab."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return g * ((x - mu) / np.sqrt(var + eps)) + b


# (n, c, h, w) at _BAND 1536, 96 columns of 16 channels: whole images per slab
# (three to a slab in the second), an image spanning four slabs, one whose last
# slab would be one column wide, and one-pixel images
_LN_SHAPES = [(2, 16, 5, 6), (7, 16, 5, 6), (2, 16, 9, 40), (2, 16, 1, 97), (5, 16, 1, 1)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", _LN_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_layer_norm_bit_identical_to_unchunked(rng, monkeypatch, dtype, shape):
    monkeypatch.setattr(nn, "_BAND", 1536)
    x = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
    g = rng.standard_normal((1, shape[1], 1, 1)).astype(dtype)
    b = rng.standard_normal((1, shape[1], 1, 1)).astype(dtype)
    y = nn.layer_norm(x, g, b)
    assert y.dtype == dtype
    np.testing.assert_array_equal(y, _layer_norm_unchunked(x, g, b))


def test_layer_norm_float32_matches_float64(rng, monkeypatch):
    monkeypatch.setattr(nn, "_BAND", 1536)
    x = 3.0 * rng.standard_normal((2, 16, 9, 40)) + 1.0
    g = rng.standard_normal((1, 16, 1, 1))
    b = rng.standard_normal((1, 16, 1, 1))
    up = rng.standard_normal(x.shape)
    f32 = [a.astype(np.float32) for a in (x, g, b, up)]
    y = nn.layer_norm(*f32[:3])
    dx, dg, db = nn.layer_norm_vjp(*f32)
    assert y.dtype == dx.dtype == dg.dtype == db.dtype == np.float32
    assert rel_err(y, nn.layer_norm(x, g, b)) < 1e-6
    for got, want in zip((dx, dg, db), nn.layer_norm_vjp(x, g, b, up)):
        assert rel_err(got, want) < 1e-5


@pytest.mark.parametrize("shape", [(7, 6, 2, 3), (1, 6, 3, 11)], ids=["images", "columns"])
def test_layer_norm_vjp_finite_difference_across_slabs(rng, monkeypatch, shape):
    """Slabs of 12 columns: two images to a slab, or an image of three slabs."""
    monkeypatch.setattr(nn, "_BAND", 72)
    x = rng.standard_normal(shape)
    g = rng.standard_normal((1, 6, 1, 1))
    b = rng.standard_normal((1, 6, 1, 1))
    up = rng.standard_normal(shape)
    dx, dg, db = nn.layer_norm_vjp(x, g, b, up)
    fd_x = finite_difference_grad(lambda v: (nn.layer_norm(v, g, b) * up).sum(), x)
    fd_g = finite_difference_grad(lambda v: (nn.layer_norm(x, v, b) * up).sum(), g)
    fd_b = finite_difference_grad(lambda v: (nn.layer_norm(x, g, v) * up).sum(), b)
    assert rel_err(dx, fd_x) < 1e-4
    assert rel_err(dg, fd_g) < 1e-4
    assert rel_err(db, fd_b) < 1e-4


def test_layer_norm_and_gelu_peak_memory_is_chunked(rng):
    """On a 32-channel 180x320 float32 tensor, layer norm and GELU allocate
    their output and at most 2 MB of cache-sized scratch besides."""
    x = rng.standard_normal((1, 32, 180, 320), dtype=np.float32)
    g, b = _ln_params(32, np.float32)
    for fn in (lambda: nn.layer_norm(x, g, b), lambda: nn.gelu(x)):
        tracemalloc.start()
        try:
            y = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes + (2 << 20), peak / y.nbytes


# ---------------------------------------------------------------------------
# pixel_shuffle
# ---------------------------------------------------------------------------


def test_pixel_shuffle_shape():
    y = nn.pixel_shuffle(np.zeros((1, 4, 2, 2)), 2)
    assert y.shape == (1, 1, 4, 4)


def test_pixel_shuffle_identity_at_s1(rng):
    x = rng.standard_normal((1, 3, 4, 4))
    np.testing.assert_array_equal(nn.pixel_shuffle(x, 1), x)


def test_pixel_shuffle_tile_pattern():
    # channel k constant k, s = 2: every 2x2 output tile is [[0, 1], [2, 3]],
    # from output(o, y, x) = input(o*s^2 + (y%s)*s + (x%s), y//s, x//s).
    x = np.zeros((1, 4, 2, 2))
    for k in range(4):
        x[0, k] = k
    y = nn.pixel_shuffle(x, 2)
    want_tile = np.array([[0.0, 1.0], [2.0, 3.0]])
    np.testing.assert_array_equal(y[0, 0], np.tile(want_tile, (2, 2)))


def test_pixel_shuffle_vjp_is_exact_inverse(rng):
    x = rng.standard_normal((2, 8, 3, 3))
    y = nn.pixel_shuffle(x, 2)
    np.testing.assert_array_equal(nn.pixel_shuffle_vjp(y, 2), x)


def test_pixel_shuffle_rejects_bad_channels():
    with pytest.raises(nn.ConfigError):
        nn.pixel_shuffle(np.zeros((1, 3, 2, 2)), 2)


def test_pixel_shuffle_vjp_finite_difference(rng):
    x = rng.standard_normal((1, 4, 2, 2))
    up = rng.standard_normal((1, 1, 4, 4))
    got = nn.pixel_shuffle_vjp(up, 2)
    fd = finite_difference_grad(lambda v: (nn.pixel_shuffle(v, 2) * up).sum(), x)
    assert rel_err(got, fd) < 1e-4


# ---------------------------------------------------------------------------
# se_block
# ---------------------------------------------------------------------------


def _se_params(c, mid, rng=None):
    if rng is None:
        w1 = np.zeros((mid, c, 1, 1))
        b1 = np.zeros((1, mid, 1, 1))
        w2 = np.zeros((c, mid, 1, 1))
        b2 = np.zeros((1, c, 1, 1))
    else:
        w1 = rng.standard_normal((mid, c, 1, 1))
        b1 = rng.standard_normal((1, mid, 1, 1))
        w2 = rng.standard_normal((c, mid, 1, 1))
        b2 = rng.standard_normal((1, c, 1, 1))
    return w1, b1, w2, b2


def test_se_block_zero_weights_halves_input(rng):
    x = rng.standard_normal((2, 4, 3, 3))
    y = nn.se_block(x, *_se_params(4, 1))
    np.testing.assert_allclose(y, 0.5 * x, atol=1e-12)


def test_se_block_zero_input(rng):
    w1, b1, w2, b2 = _se_params(4, 2, rng)
    y = nn.se_block(np.zeros((1, 4, 2, 2)), w1, b1, w2, b2)
    assert not y.any()


def test_se_block_matches_direct_oracle(rng):
    c, mid = 8, 2
    x = rng.standard_normal((2, c, 4, 5))
    w1, b1, w2, b2 = _se_params(c, mid, rng)
    got = nn.se_block(x, w1, b1, w2, b2)
    # direct oracle: explicit pool and two matrix products
    want = np.empty_like(x)
    for b in range(2):
        pooled = x[b].mean(axis=(1, 2))
        hid = w1[:, :, 0, 0] @ pooled + b1[0, :, 0, 0]
        hid = np.maximum(hid, 0.0)
        logits = w2[:, :, 0, 0] @ hid + b2[0, :, 0, 0]
        gate = 1.0 / (1.0 + np.exp(-logits))
        want[b] = x[b] * gate[:, None, None]
    assert rel_err(got, want) < 1e-6


def test_se_block_vjp_finite_difference(rng):
    c, mid = 4, 2
    x = rng.standard_normal((2, c, 3, 3))
    w1, b1, w2, b2 = _se_params(c, mid, rng)
    up = rng.standard_normal(x.shape)
    dx, dw1, db1, dw2, db2 = nn.se_block_vjp(x, w1, b1, w2, b2, up)
    pairs = [
        (dx, x, lambda v: nn.se_block(v, w1, b1, w2, b2)),
        (dw1, w1, lambda v: nn.se_block(x, v, b1, w2, b2)),
        (db1, b1, lambda v: nn.se_block(x, w1, v, w2, b2)),
        (dw2, w2, lambda v: nn.se_block(x, w1, b1, v, b2)),
        (db2, b2, lambda v: nn.se_block(x, w1, b1, w2, v)),
    ]
    for got, arg, f in pairs:
        fd = finite_difference_grad(lambda v: (f(v) * up).sum(), arg)
        assert rel_err(got, fd) < 1e-4


def test_se_block_float32_stays_float32(rng):
    x = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
    params = [p.astype(np.float32) for p in _se_params(4, 2, rng)]
    up = rng.standard_normal(x.shape).astype(np.float32)
    assert nn.se_block(x, *params).dtype == np.float32
    assert [g.dtype for g in nn.se_block_vjp(x, *params, up)] == [np.float32] * 5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_se_block_saturated_gates(dtype):
    # squeeze pre-activations +-1e3, then excitation pre-activations +-1e3:
    # the gates are exactly 1 and 0 and every gradient finite, with no warning
    x = np.ones((1, 4, 2, 2), dtype)
    w1 = np.zeros((2, 4, 1, 1), dtype)
    b1 = np.array([1e3, -1e3], dtype).reshape(1, 2, 1, 1)
    w2 = np.zeros((4, 2, 1, 1), dtype)
    w2[:, 0, 0, 0] = [1, -1, 1, -1]
    b2 = np.zeros((1, 4, 1, 1), dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = nn.se_block(x, w1, b1, w2, b2)
        grads = nn.se_block_vjp(x, w1, b1, w2, b2, np.ones_like(x))
    assert y.dtype == dtype
    np.testing.assert_array_equal(y[0, :, 0, 0], [1, 0, 1, 0])
    assert all(np.isfinite(g).all() for g in grads)


def test_se_block_shape_errors(rng):
    x = rng.standard_normal((1, 4, 2, 2))
    w1, b1, w2, b2 = _se_params(4, 2, rng)
    with pytest.raises(nn.ShapeError):
        nn.se_block(x, w1[:, :3], b1, w2, b2)


# ---------------------------------------------------------------------------
# property sweep: every vjp against finite differences on random instances
# ---------------------------------------------------------------------------


def test_vjp_sweep_random_instances():
    rng = np.random.default_rng(777)
    checked = 0
    for trial in range(20):
        cin = int(rng.integers(1, 4)) * 2
        cout = int(rng.integers(1, 3)) * 2
        k = int(rng.choice([1, 3]))
        d = int(rng.integers(1, 3))
        groups = 2 if (cin % 2 == 0 and cout % 2 == 0 and rng.integers(2)) else 1
        h = int(rng.integers(3, 6))
        x = rng.standard_normal((1, cin, h, h))
        spec = nn.ConvSpec(cin, cout, k, dilation=d, groups=groups)
        w = rng.standard_normal(spec.weight_shape)
        up = rng.standard_normal((1, cout, h, h))
        dx, dw, _ = nn.conv2d_vjp(x, w, None, spec, up)
        fd_x = finite_difference_grad(lambda v: (nn.conv2d(v, w, None, spec) * up).sum(), x)
        fd_w = finite_difference_grad(lambda v: (nn.conv2d(x, v, None, spec) * up).sum(), w)
        assert rel_err(dx, fd_x) < 1e-4
        assert rel_err(dw, fd_w) < 1e-4

        xe = rng.standard_normal((1, 4, 4, 4))
        ue = rng.standard_normal(xe.shape)
        assert rel_err(
            nn.gelu_vjp(xe, ue),
            finite_difference_grad(lambda v: (nn.gelu(v) * ue).sum(), xe),
        ) < 1e-4
        g = rng.standard_normal((1, 4, 1, 1))
        b = rng.standard_normal((1, 4, 1, 1))
        dxl, _, _ = nn.layer_norm_vjp(xe, g, b, ue)
        assert rel_err(
            dxl,
            finite_difference_grad(lambda v: (nn.layer_norm(v, g, b) * ue).sum(), xe),
        ) < 1e-4
        checked += 1
    assert checked == 20
