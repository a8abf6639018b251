import numpy as np
import pytest

from dcfmn import nn, reparam

from conftest import rel_err


def _run_stack(x, stages, weights, biases):
    """Sequential-forward oracle: apply each dilated stage with nn.conv2d."""
    c = x.shape[1]
    out = x
    for (k, d), w, b in zip(stages, weights, biases):
        out = nn.conv2d(out, w, b, nn.ConvSpec(c, c, k, dilation=d, groups=c))
    return out


def _random_stack(rng, stages, channels=2):
    weights = [rng.standard_normal((channels, 1, k, k)) for k, _ in stages]
    biases = [rng.standard_normal((1, channels, 1, 1)) for _ in stages]
    return weights, biases


def _compose(stages, weights, biases=None):
    """compose_stack_to_dense on the dilations of ``stages`` (zero biases by default)."""
    if biases is None:
        biases = [np.zeros((1, w.shape[0], 1, 1)) for w in weights]
    return reparam.compose_stack_to_dense(weights, biases, [d for _, d in stages])


# ---------------------------------------------------------------------------
# effective_kernel_size
# ---------------------------------------------------------------------------


def test_effective_kernel_size_two_3x3():
    assert reparam.effective_kernel_size([(3, 1), (3, 1)]) == 5


def _measured_support(stages, rng):
    """Side of the composed kernel, after checking that its outer ring is
    nonzero: a larger size than the stack's true support would show there as
    zeros."""
    weights, _ = _random_stack(rng, stages)
    dense, _ = _compose(stages, weights)
    ring = np.ones(dense.shape[2:], dtype=bool)
    ring[1:-1, 1:-1] = False
    assert (np.abs(dense[:, 0][:, ring]) > 1e-12).any(axis=1).all()
    return dense.shape[2]


def test_effective_kernel_size_vs_composition_oracle(rng):
    for stages, want in [([(3, 1), (3, 2)], 7), ([(3, 2), (3, 3), (3, 3)], 17)]:
        assert reparam.effective_kernel_size(stages) == want
        # compose explicit kernels and measure the support directly
        assert _measured_support(stages, rng) == want


def test_effective_kernel_size_random_specs_match_support():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_stages = int(rng.integers(1, 4))
        stages = [
            (int(rng.choice([1, 3, 5])), int(rng.integers(1, 4)))
            for _ in range(n_stages)
        ]
        assert reparam.effective_kernel_size(stages) == _measured_support(stages, rng)


def test_effective_kernel_size_is_odd():
    rng = np.random.default_rng(5)
    for _ in range(20):
        stages = [
            (int(rng.choice([3, 5])), int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        assert reparam.effective_kernel_size(stages) % 2 == 1


# ---------------------------------------------------------------------------
# single-stage compose_stack_to_dense: a dilated kernel spread onto a dense grid
# ---------------------------------------------------------------------------


def test_dilate_identity_at_d1(rng):
    w = rng.standard_normal((3, 1, 3, 3))
    dense, _ = _compose([(3, 1)], [w])
    np.testing.assert_array_equal(dense, w)


def test_dilate_3x3_d2_layout(rng):
    w = rng.standard_normal((1, 1, 3, 3))
    dense, _ = _compose([(3, 2)], [w])
    assert dense.shape == (1, 1, 5, 5)
    np.testing.assert_array_equal(dense[0, 0, ::2, ::2], w[0, 0])
    mask = np.ones((5, 5), dtype=bool)
    mask[::2, ::2] = False
    assert not dense[0, 0][mask].any()


def test_dilated_conv_equals_densified_conv(rng):
    c = 3
    x = rng.standard_normal((1, c, 12, 12)).astype(np.float32)
    w = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
    dilated = nn.conv2d(x, w, None, nn.ConvSpec(c, c, 3, dilation=3, groups=c))
    dense, _ = _compose([(3, 3)], [w])
    densified = nn.conv2d(x, dense, None, nn.ConvSpec(c, c, 7, dilation=1, groups=c))
    assert rel_err(dilated, densified) < 1e-6


# ---------------------------------------------------------------------------
# compose_stack_to_dense
# ---------------------------------------------------------------------------


def _delta(c, k):
    w = np.zeros((c, 1, k, k))
    w[:, :, k // 2, k // 2] = 1.0
    return w


def test_compose_two_deltas_is_delta():
    dense, bias = _compose([(3, 1), (3, 1)], [_delta(2, 3), _delta(2, 3)])
    np.testing.assert_allclose(dense, _delta(2, 5), atol=1e-15)
    assert not bias.any()


def test_compose_delta_absorbs_into_padded_kernel(rng):
    a = rng.standard_normal((2, 1, 3, 3))
    dense, _ = _compose([(3, 1), (3, 2)], [a, _delta(2, 3)])
    assert dense.shape == (2, 1, 7, 7)
    np.testing.assert_allclose(dense[:, :, 2:5, 2:5], a, atol=1e-15)
    mask = np.ones((7, 7), dtype=bool)
    mask[2:5, 2:5] = False
    assert np.abs(dense[:, :, :, :][:, :, mask]).max() < 1e-15


@pytest.mark.parametrize("stages", [
    [(3, 1), (3, 1)],
    [(3, 1), (3, 2)],
    [(3, 2), (3, 2), (3, 2)],
    [(3, 2), (3, 3), (3, 3)],
])
def test_compose_matches_sequential_forward_on_interior(rng, stages):
    c = 4
    weights, biases = _random_stack(rng, stages, channels=c)
    K = reparam.effective_kernel_size(stages)
    margin = (K - 1) // 2
    size = 2 * margin + 6
    x = rng.standard_normal((2, c, size, size)).astype(np.float32)

    seq = _run_stack(x, stages, weights, biases)
    dense, bias = _compose(stages, weights, biases)
    fused = nn.conv2d(x, dense.astype(np.float64), bias.astype(np.float64),
                      nn.ConvSpec(c, c, K, dilation=1, groups=c))

    inner = (slice(None), slice(None), slice(margin, -margin), slice(margin, -margin))
    assert rel_err(seq[inner], fused[inner]) < 1e-5


def test_compose_zero_bias_case(rng):
    stages = [(3, 1), (3, 2)]
    weights, _ = _random_stack(rng, stages)
    c = 2
    K = reparam.effective_kernel_size(stages)
    margin = (K - 1) // 2
    x = rng.standard_normal((1, c, 16, 16))
    seq = _run_stack(x, stages, weights, [None, None])
    dense, bias = _compose(stages, weights)
    assert not bias.any()
    fused = nn.conv2d(x, dense, None, nn.ConvSpec(c, c, K, dilation=1, groups=c))
    inner = (slice(None), slice(None), slice(margin, -margin), slice(margin, -margin))
    assert rel_err(seq[inner], fused[inner]) < 1e-5


# ---------------------------------------------------------------------------
# fuse_parallel_3x3
# ---------------------------------------------------------------------------


def test_fuse_single_branch_unchanged(rng):
    w = rng.standard_normal((4, 4, 3, 3))
    b = rng.standard_normal((1, 4, 1, 1))
    fw, fb = reparam.fuse_parallel_3x3([w], [b], include_identity=False)
    np.testing.assert_allclose(fw, w, atol=1e-15)
    np.testing.assert_allclose(fb, b, atol=1e-15)


def test_fuse_opposite_branches_cancel(rng):
    w = rng.standard_normal((3, 3, 3, 3))
    zero = np.zeros((1, 3, 1, 1))
    fw, fb = reparam.fuse_parallel_3x3([w, -w], [zero, zero], include_identity=False)
    assert np.abs(fw).max() < 1e-15
    assert not fb.any()


def test_fuse_with_identity_matches_multibranch_forward(rng):
    c = 6
    ws = [rng.standard_normal((c, c, 3, 3)).astype(np.float32) for _ in range(2)]
    bs = [rng.standard_normal((1, c, 1, 1)).astype(np.float32) for _ in range(2)]
    fw, fb = reparam.fuse_parallel_3x3(ws, bs, include_identity=True)
    spec = nn.ConvSpec(c, c, 3)
    for _ in range(100):
        x = rng.standard_normal((1, c, 7, 9)).astype(np.float32)
        want = sum(nn.conv2d(x, w, b, spec) for w, b in zip(ws, bs)) + x
        got = nn.conv2d(x, fw, fb, spec)
        assert rel_err(got, want) < 1e-5


def test_fuse_shape_errors(rng):
    a = rng.standard_normal((2, 2, 3, 3))
    b = np.zeros((1, 2, 1, 1))
    with pytest.raises(nn.ShapeError):
        reparam.fuse_parallel_3x3([a, rng.standard_normal((2, 2, 5, 5))], [b, b])
    with pytest.raises(nn.ShapeError):
        reparam.fuse_parallel_3x3([rng.standard_normal((2, 3, 3, 3))], [b],
                                  include_identity=True)
    with pytest.raises(nn.ShapeError):
        reparam.fuse_parallel_3x3([], [])
    with pytest.raises(nn.ShapeError):
        reparam.fuse_parallel_3x3([a, a], [b])  # one bias per branch
    with pytest.raises(nn.ShapeError):
        reparam.fuse_parallel_3x3([a], [np.zeros((1, 3, 1, 1))])


def test_compose_shape_and_geometry_errors(rng):
    w3 = rng.standard_normal((2, 1, 3, 3))
    b = np.zeros((1, 2, 1, 1))
    with pytest.raises(nn.ConfigError):
        reparam.compose_stack_to_dense([], [], [])
    with pytest.raises(nn.ShapeError):
        reparam.compose_stack_to_dense([w3, w3], [b], [1, 1])
    with pytest.raises(nn.ShapeError):
        reparam.compose_stack_to_dense([w3, w3], [b, b], [1])
    with pytest.raises(nn.ShapeError):  # channel count differs between stages
        reparam.compose_stack_to_dense([w3, rng.standard_normal((3, 1, 3, 3))],
                                       [b, np.zeros((1, 3, 1, 1))], [1, 1])
    with pytest.raises(nn.ShapeError):  # not depthwise
        reparam.compose_stack_to_dense([rng.standard_normal((2, 2, 3, 3))], [b], [1])
    with pytest.raises(nn.ConfigError):  # even kernel
        reparam.compose_stack_to_dense([rng.standard_normal((2, 1, 4, 4))], [b], [1])
    with pytest.raises(nn.ConfigError):  # non-square kernel
        reparam.compose_stack_to_dense([rng.standard_normal((2, 1, 3, 5))], [b], [1])
    with pytest.raises(nn.ConfigError):
        reparam.compose_stack_to_dense([w3], [b], [0])
