import numpy as np
import pytest

from dcfmn import fourier, loss

from conftest import finite_difference_grad, rel_err


def loop_dft2d(plane):
    """Independent quadratic oracle: explicit double loop over output bins."""
    h, w = plane.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for a in range(h):
                for b in range(w):
                    ang = -2.0 * np.pi * (u * a / h + v * b / w)
                    acc += plane[a, b] * (np.cos(ang) + 1j * np.sin(ang))
            out[u, v] = acc
    return out


# ---------------------------------------------------------------------------
# dft2d
# ---------------------------------------------------------------------------


def test_dft2d_constant_plane():
    v = 0.37
    grid = fourier.dft2d(np.full((4, 8), v))
    assert grid[0, 0] == pytest.approx(v * 4 * 8, abs=1e-9)
    rest = grid.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-9


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (8, 16), (7, 5), (6, 9)])
def test_dft2d_roundtrip(rng, shape):
    x = rng.standard_normal(shape)
    back = fourier.idft2d(fourier.dft2d(x))
    assert np.abs(back.real - x).max() < 1e-6
    assert np.abs(back.imag).max() < 1e-6


def test_fast_path_matches_loop_oracle(rng):
    for shape in [(8, 8), (16, 16)]:
        for _ in range(3):
            x = rng.standard_normal(shape)
            got = fourier.dft2d(x)
            want = loop_dft2d(x)
            assert np.abs(got - want).max() < 1e-9


def test_fast_and_naive_paths_agree(rng):
    # the transform against explicit DFT-matrix products, as acceptance 4
    for shape in [(16, 8), (6, 10), (7, 5)]:
        h, w = shape
        fh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
        fw = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
        x = rng.standard_normal(shape)
        naive = fh @ x.astype(np.complex128) @ fw.T
        assert np.abs(fourier.dft2d(x) - naive).max() < 1e-6


def test_naive_path_matches_loop_oracle(rng):
    x = rng.standard_normal((6, 10))  # not powers of two
    assert np.abs(fourier.dft2d(x) - loop_dft2d(x)).max() < 1e-9


def test_dft2d_rejects_non_planes(rng):
    with pytest.raises(ValueError):
        fourier.dft2d(rng.standard_normal((2, 3, 4)))


@pytest.mark.parametrize("fn", [fourier.dft2d_batch, fourier.idft2d_batch])
@pytest.mark.parametrize("shape", [(), (5,)])
def test_batch_transforms_reject_fewer_than_two_dims(rng, fn, shape):
    with pytest.raises(ValueError, match=r"\(\.\.\., h, w\)"):
        fn(rng.standard_normal(shape))


@pytest.mark.parametrize("shape", [(8, 16), (6, 10), (7, 5)])
def test_batch_transforms_match_plane_transforms(rng, shape):
    x = rng.standard_normal((3, *shape))
    spec = fourier.dft2d_batch(x)
    back = fourier.idft2d_batch(spec)
    for i in range(3):
        np.testing.assert_array_equal(spec[i], fourier.dft2d(x[i]))
        np.testing.assert_array_equal(back[i], fourier.idft2d(spec[i]))
        assert np.abs(spec[i] - loop_dft2d(x[i])).max() < 1e-9
        assert np.abs(back[i] - x[i]).max() < 1e-9


@pytest.mark.parametrize("shape", [(8, 16), (6, 10), (7, 5)])
def test_batch_transforms_of_float32_run_in_float64(rng, shape):
    x32 = rng.standard_normal((3, *shape)).astype(np.float32)
    x64 = x32.astype(np.float64)
    for fn in (fourier.dft2d_batch, fourier.idft2d_batch):
        got = fn(x32)
        assert got.dtype == np.complex128
        assert np.abs(got - fn(x64)).max() < 1e-12


# ---------------------------------------------------------------------------
# l1 loss
# ---------------------------------------------------------------------------


def test_l1_identical_is_zero(rng):
    x = rng.standard_normal((1, 3, 4, 4))
    assert loss.l1_loss(x, x.copy()) == 0.0


def test_l1_single_element_delta():
    sr = np.zeros((1, 1, 4, 4))
    hr = np.zeros((1, 1, 4, 4))
    sr[0, 0, 1, 2] = -0.25
    assert loss.l1_loss(sr, hr) == pytest.approx(0.25 / 16)


def test_l1_grad_sign_and_fd(rng):
    sr = rng.standard_normal((1, 2, 3, 3))
    hr = rng.standard_normal(sr.shape)
    value, grad = loss.l1_grad(sr, hr)
    np.testing.assert_allclose(grad, np.sign(sr - hr) / sr.size)
    fd = finite_difference_grad(lambda v: loss.l1_loss(v, hr), sr)
    assert rel_err(grad, fd) < 1e-4


def test_l1_shape_mismatch(rng):
    with pytest.raises(Exception):
        loss.l1_loss(rng.standard_normal((1, 1, 2, 2)),
                     rng.standard_normal((1, 1, 3, 2)))


# ---------------------------------------------------------------------------
# freq loss
# ---------------------------------------------------------------------------


def test_freq_identical_is_zero(rng):
    x = rng.standard_normal((1, 2, 8, 8))
    assert loss.freq_loss(x, x.copy()) == 0.0


def test_freq_parseval_relation(rng):
    # unnormalized DFT Parseval: sum |F(d)|^2 = h*w * sum d^2, so the
    # mean-normalized frequency loss equals sqrt(h*w) * rms(sr - hr)
    for shape in [(2, 3, 8, 8), (1, 1, 4, 16), (1, 2, 6, 10)]:
        sr = rng.standard_normal(shape)
        hr = rng.standard_normal(shape)
        h, w = shape[2], shape[3]
        want = np.sqrt(h * w) * np.sqrt(((sr - hr) ** 2).mean())
        assert loss.freq_loss(sr, hr) == pytest.approx(want, rel=1e-10)


def test_freq_grad_finite_difference(rng):
    for shape in [(1, 2, 4, 4), (1, 1, 3, 5)]:
        sr = rng.standard_normal(shape)
        hr = rng.standard_normal(sr.shape)
        value, grad = loss.freq_grad(sr, hr)
        assert value > 0
        fd = finite_difference_grad(lambda v: loss.freq_loss(v, hr), sr)
        assert rel_err(grad, fd) < 1e-4


def test_freq_grad_zero_at_minimum(rng):
    x = rng.standard_normal((1, 1, 4, 4))
    value, grad = loss.freq_grad(x, x.copy())
    assert value == 0.0 and not grad.any()


# ---------------------------------------------------------------------------
# composite
# ---------------------------------------------------------------------------


def test_weights_validation():
    with pytest.raises(ValueError):
        loss.LossWeights(0.0, 0.0)
    with pytest.raises(ValueError):
        loss.LossWeights(-1.0, 0.5)


def test_composite_pure_terms(rng):
    sr = rng.standard_normal((1, 1, 8, 8))
    hr = rng.standard_normal(sr.shape)
    v1, _ = loss.composite_loss(sr, hr, loss.LossWeights(1.0, 0.0))
    assert v1 == pytest.approx(loss.l1_loss(sr, hr))
    v2, _ = loss.composite_loss(sr, hr, loss.LossWeights(0.0, 1.0))
    assert v2 == pytest.approx(loss.freq_loss(sr, hr))


def test_composite_combines_components(rng):
    sr = rng.standard_normal((2, 3, 8, 8))
    hr = rng.standard_normal(sr.shape)
    w = loss.LossWeights(1.0, 0.05)
    total, grad = loss.composite_loss(sr, hr, w)
    l1v, l1g = loss.l1_grad(sr, hr)
    fv, fg = loss.freq_grad(sr, hr)
    assert total == pytest.approx(1.0 * l1v + 0.05 * fv, rel=1e-12)
    assert rel_err(grad, 1.0 * l1g + 0.05 * fg) < 1e-12


def test_composite_grad_finite_difference(rng):
    sr = rng.standard_normal((1, 1, 4, 4))
    hr = rng.standard_normal(sr.shape)
    w = loss.LossWeights(1.0, 0.05)
    _, grad = loss.composite_loss(sr, hr, w)
    fd = finite_difference_grad(lambda v: loss.composite_loss(v, hr, w)[0], sr)
    assert rel_err(grad, fd) < 1e-4


def test_composite_nonnegative_and_zero_iff_equal(rng):
    x = rng.standard_normal((1, 1, 8, 8))
    w = loss.LossWeights(1.0, 0.05)
    v, _ = loss.composite_loss(x, x.copy(), w)
    assert v == 0.0
    y = x + 1e-3
    v2, _ = loss.composite_loss(y, x, w)
    assert v2 > 0.0
