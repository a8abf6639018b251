import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcfmn import checkpoint, loss, nn, reparam
from dcfmn import model as M

from conftest import rel_err


def tiny_config(**kw):
    base = dict(scale=2, channels=8, num_blocks=1, dtype="float64")
    base.update(kw)
    return M.ModelConfig(**base)


# ---------------------------------------------------------------------------
# config and init
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(nn.ConfigError):
        M.ModelConfig(scale=1)
    with pytest.raises(nn.ConfigError):
        M.ModelConfig(scale=5)
    with pytest.raises(nn.ConfigError):
        M.ModelConfig(channels=10)
    with pytest.raises(nn.ConfigError):
        M.ModelConfig(num_blocks=0)
    with pytest.raises(nn.ConfigError):
        M.ModelConfig(chunk_targets=(5, 7, 13, 19))


def test_presets():
    assert M.preset_config("S", 4).num_blocks == 10
    assert M.preset_config("L", 4).num_blocks == 16
    assert M.preset_config("tiny", 2).channels == 16
    with pytest.raises(nn.ConfigError):
        M.preset_config("XL", 2)


def test_init_model_deterministic():
    a = M.init_model(tiny_config(), seed=7)
    b = M.init_model(tiny_config(), seed=7)
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    c = M.init_model(tiny_config(), seed=8)
    assert any((a.params[k] != c.params[k]).any() for k in a.params)


def test_init_model_finite_and_typed():
    m = M.init_model(M.ModelConfig(scale=3, channels=16, num_blocks=2), seed=0)
    for k, v in m.params.items():
        assert np.isfinite(v).all(), k
        assert v.dtype == np.float32, k


def test_count_params_matches_hand_count_tiny():
    # hand count for scale=2, C=8, one block, 2 branches, SE reduction 4
    head = 8 * 3 * 3 * 3 + 8
    ln1 = 8 + 8
    stages = 2 + 2 + 3 + 3  # targets 5, 7, 13, 17
    dsmu_stacks = stages * (2 * 1 * 3 * 3 + 2)  # chunk width 2
    mix = 8 * 8 + 8
    ln2 = 8 + 8
    expand = 16 * 8 + 16
    branches = 2 * (16 * 16 * 3 * 3 + 16)
    se = 4 * 16 + 4 + 16 * 4 + 16
    reduce_ = 8 * 16 + 8
    tail = (3 * 4) * 8 * 3 * 3 + 12
    want = head + ln1 + dsmu_stacks + mix + ln2 + expand + branches + se + reduce_ + tail
    assert want == 6472
    m = M.init_model(tiny_config(), seed=0)
    assert M.count_params(m) == want


def test_count_params_linear_in_blocks():
    one = M.count_params(M.init_model(tiny_config(num_blocks=1), 0))
    three = M.count_params(M.init_model(tiny_config(num_blocks=3), 0))
    per_block = (three - one) // 2
    seven = M.count_params(M.init_model(tiny_config(num_blocks=7), 0))
    assert seven == one + 6 * per_block


# ---------------------------------------------------------------------------
# forward pieces vs inline oracles
# ---------------------------------------------------------------------------


def _rand_input(rng, c=3, h=8, w=8, n=1):
    return rng.standard_normal((n, c, h, w))


def test_shallow_extract(rng):
    m = M.init_model(tiny_config(), seed=1)
    x = rng.standard_normal((1, 3, 16, 16))
    y = M.shallow_extract(m, x)
    assert y.shape == (1, 8, 16, 16)
    want = nn.conv2d(x, m.params["head.weight"], m.params["head.bias"],
                     nn.ConvSpec(3, 8, 3))
    np.testing.assert_array_equal(y, want)
    m.params["head.bias"][:] = 0.0
    assert not M.shallow_extract(m, np.zeros((1, 3, 4, 4))).any()


def test_dsmu_zero_weights_is_identity(rng):
    m = M.init_model(tiny_config(), seed=2)
    for k in m.params:
        if ".dsmu." in k:
            m.params[k][:] = 0.0
    x = rng.standard_normal((1, 8, 9, 9))
    np.testing.assert_allclose(M.dsmu_forward(m, 0, x), x, atol=1e-12)


def test_dsmu_matches_inline_oracle(rng):
    cfg = tiny_config()
    m = M.init_model(cfg, seed=3)
    p = m.params
    x = rng.standard_normal((2, 8, 10, 10))
    got = M.dsmu_forward(m, 0, x)
    assert got.shape == x.shape

    # each stack is its dense kernel under one zero padding: pad the chunk by
    # the full radius once, run the stages with "same" padding, keep the centre
    parts = np.split(x, 4, axis=1)
    outs = []
    for j, part in enumerate(parts):
        plan = cfg.stack_plan(j)
        r = (reparam.effective_kernel_size(plan) - 1) // 2
        part = np.pad(part, ((0, 0), (0, 0), (r, r), (r, r)))
        for si, (k, d) in enumerate(plan):
            part = nn.conv2d(part, p[f"blocks.00.dsmu.stack{j}.stage{si}.weight"],
                             p[f"blocks.00.dsmu.stack{j}.stage{si}.bias"],
                             nn.ConvSpec(2, 2, k, dilation=d, groups=2))
        outs.append(part[:, :, r:-r, r:-r])
    agg = nn.conv2d(np.concatenate(outs, axis=1), p["blocks.00.dsmu.mix.weight"],
                    p["blocks.00.dsmu.mix.bias"], nn.ConvSpec(8, 8, 1))
    want = nn.gelu(agg) + x
    assert rel_err(got, want) < 1e-12


# the model runs the summed branch kernel; the oracle runs every branch
@pytest.mark.parametrize("identity", [True, False], ids=["self-residual", "no-self-residual"])
@pytest.mark.parametrize("branches", [1, 2, 3])
def test_lfem_matches_inline_oracle(rng, branches, identity):
    cfg = tiny_config(lfem_branches=branches, no_self_residual=not identity)
    m = M.init_model(cfg, seed=4)
    p = m.params
    for path in p:  # nonzero biases, so each branch's bias must reach the sum
        if path.endswith(".bias"):
            p[path] = rng.standard_normal(p[path].shape)
    x = rng.standard_normal((1, 8, 7, 7))
    got = M.lfem_forward(m, 0, x)
    assert got.shape == x.shape

    e = nn.conv2d(x, p["blocks.00.lfem.expand.weight"],
                  p["blocks.00.lfem.expand.bias"], nn.ConvSpec(8, 16, 1))
    pre = sum(
        nn.conv2d(e, p[f"blocks.00.lfem.branch{br}.weight"],
                  p[f"blocks.00.lfem.branch{br}.bias"], nn.ConvSpec(16, 16, 3))
        for br in range(branches)
    )
    if identity:
        pre = pre + e
    act = nn.gelu(pre)
    gated = nn.se_block(act, p["blocks.00.lfem.se.fc1.weight"],
                        p["blocks.00.lfem.se.fc1.bias"],
                        p["blocks.00.lfem.se.fc2.weight"],
                        p["blocks.00.lfem.se.fc2.bias"])
    want = nn.conv2d(gated, p["blocks.00.lfem.reduce.weight"],
                     p["blocks.00.lfem.reduce.bias"], nn.ConvSpec(16, 8, 1))
    assert rel_err(got, want) < 1e-12


def test_lfem_no_se_flag_removes_half_gate(rng):
    cfg = tiny_config()
    m = M.init_model(cfg, seed=5)
    # zero SE weights -> sigmoid(0) = 0.5 gate; zero reduce bias isolates the factor
    for k in m.params:
        if ".se." in k:
            m.params[k][:] = 0.0
    m.params["blocks.00.lfem.reduce.bias"][:] = 0.0

    cfg_nose = tiny_config(no_se=True)
    params_nose = {k: v.copy() for k, v in m.params.items() if ".se." not in k}
    m_nose = M.Model(cfg_nose, params_nose, fused=False)

    x = rng.standard_normal((1, 8, 6, 6))
    np.testing.assert_allclose(M.lfem_forward(m, 0, x),
                               0.5 * M.lfem_forward(m_nose, 0, x), atol=1e-12)


def test_dsmb_zero_weights_is_identity(rng):
    m = M.init_model(tiny_config(), seed=7)
    for k in m.params:
        if k.startswith("blocks.00."):
            m.params[k][:] = 0.0
    x = rng.standard_normal((1, 8, 9, 9))
    np.testing.assert_allclose(M.dsmb_forward(m, 0, x), x, atol=1e-12)


def test_dsmb_matches_inline_composition(rng):
    m = M.init_model(tiny_config(), seed=8)
    p = m.params
    x = rng.standard_normal((1, 8, 8, 8))
    got = M.dsmb_forward(m, 0, x)
    t1 = nn.layer_norm(x, p["blocks.00.ln1.gain"], p["blocks.00.ln1.bias"])
    xp = M.dsmu_forward(m, 0, t1) + x
    t2 = nn.layer_norm(xp, p["blocks.00.ln2.gain"], p["blocks.00.ln2.bias"])
    want = M.lfem_forward(m, 0, t2) + xp
    assert rel_err(got, want) < 1e-12


def test_upsample_reconstruct_shapes_and_oracle(rng):
    cfg = M.ModelConfig(scale=4, channels=8, num_blocks=1, dtype="float64")
    m = M.init_model(cfg, seed=9)
    fk = rng.standard_normal((1, 8, 8, 8))
    f0 = rng.standard_normal((1, 8, 8, 8))
    y = M.upsample_reconstruct(m, fk, f0)
    assert y.shape == (1, 3, 32, 32)
    want = nn.pixel_shuffle(
        nn.conv2d(fk + f0, m.params["tail.weight"], m.params["tail.bias"],
                  nn.ConvSpec(8, 48, 3)), 4)
    np.testing.assert_array_equal(y, want)
    with pytest.raises(nn.ShapeError):
        M.upsample_reconstruct(m, fk, f0[:, :, :4])


# ---------------------------------------------------------------------------
# whole model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [2, 3, 4])
def test_model_forward_shape_law(rng, scale):
    cfg = M.ModelConfig(scale=scale, channels=8, num_blocks=2, dtype="float64")
    m = M.init_model(cfg, seed=0)
    x = rng.standard_normal((2, 3, 6, 7))
    y = M.model_forward(m, x)
    assert y.shape == (2, 3, 6 * scale, 7 * scale)


def test_model_forward_deterministic(rng):
    x = rng.standard_normal((1, 3, 8, 8))
    y1 = M.model_forward(M.init_model(tiny_config(), 11), x)
    y2 = M.model_forward(M.init_model(tiny_config(), 11), x)
    np.testing.assert_array_equal(y1, y2)


def test_model_all_zero_params_gives_zero_image(rng):
    m = M.init_model(tiny_config(), seed=1)
    for k in m.params:
        m.params[k][:] = 0.0
    y = M.model_forward(m, rng.standard_normal((1, 3, 8, 8)))
    assert not y.any()


def test_model_zero_blocks_is_fixed_linear_map(rng):
    m = M.init_model(tiny_config(), seed=2)
    for k in m.params:
        if k.startswith("blocks."):
            m.params[k][:] = 0.0
    x = rng.standard_normal((1, 3, 8, 8))
    f0 = nn.conv2d(x, m.params["head.weight"], m.params["head.bias"],
                   nn.ConvSpec(3, 8, 3))
    want = nn.pixel_shuffle(
        nn.conv2d(2.0 * f0, m.params["tail.weight"], m.params["tail.bias"],
                  nn.ConvSpec(8, 12, 3)), 2)
    np.testing.assert_allclose(M.model_forward(m, x), want, atol=1e-12)


def test_model_rejects_bad_input(rng):
    m = M.init_model(tiny_config(), seed=0)
    with pytest.raises(nn.ShapeError):
        M.model_forward(m, rng.standard_normal((1, 4, 8, 8)))
    with pytest.raises(nn.ShapeError):
        M.model_backward(m, rng.standard_normal((1, 3, 8, 8)),
                         rng.standard_normal((1, 3, 9, 9)))


@pytest.mark.parametrize("no_se", [False, True], ids=["se", "no_se"])
@pytest.mark.parametrize("form", ["raw", "fused"])
def test_model_forward_equals_cached_forward(rng, form, no_se):
    m = M.init_model(M.ModelConfig(scale=2, channels=8, num_blocks=2, no_se=no_se), seed=3)
    if form == "fused":
        m = M.fuse_model(m)
    x = rng.standard_normal((2, 3, 9, 11)).astype(np.float32)
    y = M.model_forward(m, x)
    want = M.model_forward_cached(m, x)[0]
    assert y.dtype == want.dtype and y.shape == want.shape
    assert y.tobytes() == want.tobytes()


@pytest.mark.parametrize("form", ["raw", "fused"])
def test_model_forward_keeps_no_block_caches(form):
    # inference frees each block's intermediates; the cached forward keeps
    # all ten blocks' until the backward
    m = M.init_model(M.ModelConfig(scale=2, channels=8, num_blocks=10), seed=4)
    if form == "fused":
        m = M.fuse_model(m)
    x = np.random.default_rng(5).random((1, 3, 24, 24), dtype=np.float32)

    def peak(forward):
        tracemalloc.start()
        try:
            forward(m, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    M.model_forward(m, x)  # build the cached description outside the traces
    assert peak(M.model_forward) <= 0.75 * peak(M.model_forward_cached)


def _arrays(value):
    """Every array in a nest of tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("form", ["raw", "fused"])
def test_model_computes_in_its_dtype(form, dtype):
    # the output, every cached intermediate, the loss gradient and every
    # parameter gradient keep the config's dtype
    m = M.init_model(M.ModelConfig(scale=2, channels=8, num_blocks=2, dtype=dtype), seed=6)
    if form == "fused":
        m = M.fuse_model(m)
    rng = np.random.default_rng(7)
    x = rng.random((2, 3, 10, 12)).astype(dtype)
    assert M.model_forward(m, x).dtype == dtype
    y, cache = M.model_forward_cached(m, x)
    assert {a.dtype for a in _arrays(cache)} == {np.dtype(dtype)}
    *_, grad = loss.composite_loss_detailed(y, rng.random(y.shape).astype(dtype),
                                            loss.LossWeights())
    assert grad.dtype == dtype
    grads = M.model_backward_from_cache(m, cache, grad)
    assert sorted(grads) == sorted(m.params)
    assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}


@pytest.mark.parametrize("form", ["raw", "fused"])
def test_backward_consumes_its_cache(form):
    # the backward frees every block's activations and gives the gradients
    # of a fresh forward; a second backward on the spent cache is refused
    m = M.init_model(M.ModelConfig(scale=2, channels=8, num_blocks=3), seed=8)
    if form == "fused":
        m = M.fuse_model(m)
    rng = np.random.default_rng(9)
    x = rng.random((2, 3, 9, 10)).astype(np.float32)
    y, cache = M.model_forward_cached(m, x)
    upstream = rng.standard_normal(y.shape).astype(np.float32)
    params = {id(p) for p in m.params.values()}
    activations = [weakref.ref(a) for a in _arrays(cache[1]) if id(a) not in params]
    grads = M.model_backward_from_cache(m, cache, upstream)
    assert activations and all(ref() is None for ref in activations)
    want = M.model_backward(m, x, upstream)
    assert all(grads[k].tobytes() == want[k].tobytes() for k in want)
    with pytest.raises(ValueError, match="already used by a backward"):
        M.model_backward_from_cache(m, cache, upstream)


# the 5x7 image is smaller than the K = 17 stack's support, so every stage
# of that stack reads the zero border that its chunk is padded with once;
# a 2x3 image has no pixel whose 3x3 window lies inside it, so every pixel
# of the LFEM conv, in either form, takes its edge term from its own set of
# taps; the three-branch case without the self-residual checks the gradient
# that all branches share beyond two of them
@pytest.mark.parametrize("form, h, w, lfem", [
    ("raw", 8, 8, {}), ("fused", 8, 8, {}), ("raw", 5, 7, {}), ("fused", 2, 3, {}),
    ("raw", 2, 3, {}), ("raw", 8, 8, dict(lfem_branches=3, no_self_residual=True))],
    ids=["raw", "fused", "raw-5x7", "fused-2x3", "raw-2x3",
         "raw-3-branches-no-self-residual"])
def test_whole_model_gradient_finite_difference(form, h, w, lfem):
    rng = np.random.default_rng(99)
    cfg = tiny_config(**lfem)  # C=8, one block, float64
    m = M.init_model(cfg, seed=3)
    if form == "fused":
        m = M.fuse_model(m)
    x = rng.standard_normal((1, 3, h, w))
    up = rng.standard_normal((1, 3, 2 * h, 2 * w))

    grads = M.model_backward(m, x, up)
    assert sorted(grads) == sorted(m.params)

    paths = sorted(m.params)
    step = 1e-5
    checked = 0
    failures = []
    for t in range(50):
        path = paths[int(rng.integers(len(paths)))]
        arr = m.params[path]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        orig = arr[idx]
        arr[idx] = orig + step
        fp = float((M.model_forward(m, x) * up).sum())
        arr[idx] = orig - step
        fm = float((M.model_forward(m, x) * up).sum())
        arr[idx] = orig
        fd = (fp - fm) / (2 * step)
        an = grads[path][idx]
        denom = max(abs(fd), abs(an), 1e-8)
        if abs(fd - an) / denom > 1e-3:
            failures.append((path, idx, an, fd))
        checked += 1
    assert checked == 50
    assert not failures, failures


@pytest.mark.parametrize("lfem", [{}, dict(lfem_branches=3, no_self_residual=True)],
                         ids=["default", "3-branches-no-self-residual"])
def test_lfem_fold_gradient_finite_difference(lfem):
    # the expand reaches the output only through the fold into the rep conv
    # (its bias through the edge term), so check every expand entry, and one
    # entry of each branch tensor, which all take the summed kernel's gradient
    rng = np.random.default_rng(17)
    m = M.init_model(tiny_config(**lfem), seed=9)  # C=8, one block, float64
    for path, v in m.params.items():
        if path.endswith(".bias"):
            v[...] = 0.1 * rng.standard_normal(v.shape)
    x = rng.standard_normal((1, 3, 5, 6))
    up = rng.standard_normal((1, 3, 10, 12))
    grads = M.model_backward(m, x, up)

    entries = [(path, idx) for path in ("blocks.00.lfem.expand.weight",
                                        "blocks.00.lfem.expand.bias")
               for idx in np.ndindex(m.params[path].shape)]
    for b in range(m.config.lfem_branches):
        for name in ("weight", "bias"):
            arr = m.params[f"blocks.00.lfem.branch{b}.{name}"]
            entries.append((f"blocks.00.lfem.branch{b}.{name}",
                            np.unravel_index(int(rng.integers(arr.size)), arr.shape)))
    assert len(entries) == 16 * 8 + 16 + 2 * m.config.lfem_branches
    step = 1e-5
    failures = []
    for path, idx in entries:
        arr = m.params[path]
        orig = arr[idx]
        arr[idx] = orig + step
        fp = float((M.model_forward(m, x) * up).sum())
        arr[idx] = orig - step
        fm = float((M.model_forward(m, x) * up).sum())
        arr[idx] = orig
        fd = (fp - fm) / (2 * step)
        if abs(fd - grads[path][idx]) > 1e-6 * max(1.0, abs(fd)):
            failures.append((path, idx, grads[path][idx], fd))
    assert not failures, failures


@pytest.mark.parametrize("dtype, branches, identity",
                         [("float32", 2, True), ("float64", 3, False)])
def test_fuse_model_rep_is_the_float64_fold(dtype, branches, identity):
    # the fused rep is bit for bit the fold written out here: the branches
    # (and self-residual) summed in float64 and cast to the model dtype, then
    # the expand 1x1 folded in, in float64
    cfg = M.ModelConfig(scale=2, channels=8, num_blocks=2, lfem_branches=branches,
                        no_self_residual=not identity, dtype=dtype)
    m = M.init_model(cfg, seed=11)
    rng = np.random.default_rng(12)
    for path, v in m.params.items():
        if path.endswith(".bias"):
            v[...] = 0.1 * rng.standard_normal(v.shape)
    fm = M.fuse_model(m)
    for i in range(cfg.num_blocks):
        p = {k.split(".lfem.")[1]: v for k, v in m.params.items()
             if k.startswith(f"blocks.{i:02d}.lfem.")}
        w = np.zeros((16, 16, 3, 3))
        b = np.zeros((1, 16, 1, 1))
        for br in range(branches):
            w += p[f"branch{br}.weight"]
            b += p[f"branch{br}.bias"]
        if identity:
            w[np.arange(16), np.arange(16), 1, 1] += 1.0
        taps = w.astype(dtype).astype(np.float64).transpose(0, 2, 3, 1)
        want = {
            "weight": (taps @ p["expand.weight"].astype(np.float64)[:, :, 0, 0])
            .transpose(0, 3, 1, 2),
            "bias": b,
            "edge": (taps @ p["expand.bias"].astype(np.float64).reshape(-1))[:, None],
        }
        for name, value in want.items():
            got = fm.params[f"blocks.{i:02d}.lfem.rep.{name}"]
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.array_equal(got, value.astype(dtype)), (i, name)


@pytest.mark.parametrize("form", ["raw", "fused"])
def test_lfem_runs_two_convs_in_both_forms(form, monkeypatch):
    # expand and branches run as one C -> 2C 3x3 in training form too, so
    # each form's LFEM makes the same two convs: the rep and the reduce 1x1
    m = M.init_model(M.ModelConfig(scale=2, channels=8, num_blocks=1), seed=2)
    if form == "fused":
        m = M.fuse_model(m)
    specs = []
    conv2d = nn.conv2d

    def recording_conv2d(x, weight, bias, spec):
        specs.append(spec)
        return conv2d(x, weight, bias, spec)

    monkeypatch.setattr(nn, "conv2d", recording_conv2d)
    M.lfem_forward(m, 0, np.zeros((1, 8, 6, 5), np.float32))
    assert specs == [nn.ConvSpec(8, 16, 3), nn.ConvSpec(16, 8, 1)]


@pytest.mark.parametrize("form", ["raw", "fused"])
def test_every_layer_runs_through_one_call_site(form, monkeypatch):
    # a forward and backward pass each layer of the description, the LFEM's
    # rep included, to _apply once and to _apply_vjp once
    cfg = M.ModelConfig(scale=2, channels=8, num_blocks=2)
    m = M.init_model(cfg, seed=5)
    if form == "fused":
        m = M.fuse_model(m)
    seen = {"_apply": [], "_apply_vjp": []}
    for name, calls in seen.items():
        def recording(params, layer, *args, _run=getattr(M, name), _calls=calls, **kwargs):
            _calls.append(layer.path)
            return _run(params, layer, *args, **kwargs)

        monkeypatch.setattr(M, name, recording)
    x = np.random.default_rng(6).random((1, 3, 6, 5), dtype=np.float32)
    grads = M.model_backward(m, x, np.ones((1, 3, 12, 10), np.float32))
    paths = sorted(layer.path for layer in M.layers(cfg, fused=form == "fused"))
    assert sorted(seen["_apply"]) == paths
    assert sorted(seen["_apply_vjp"]) == paths
    assert sorted(grads) == sorted(m.params)


def test_training_step_folds_each_lfem_once(monkeypatch):
    # the forward's cache carries each rep's fold to the backward
    cfg = M.ModelConfig(scale=2, channels=8, num_blocks=2)
    m = M.init_model(cfg, seed=7)
    calls = []
    fold = M.fuse_parallel_3x3

    def counting(*args, **kwargs):
        calls.append(args)
        return fold(*args, **kwargs)

    monkeypatch.setattr(M, "fuse_parallel_3x3", counting)
    x = np.random.default_rng(8).random((2, 3, 6, 5), dtype=np.float32)
    M.model_backward(m, x, np.ones((2, 3, 12, 10), np.float32))
    assert len(calls) == cfg.num_blocks


@pytest.mark.parametrize("form", ["raw", "fused"])
def test_inference_block_frees_lfem_intermediates(form):
    # an inference block frees the LFEM's input, pre-activation and
    # activation as it goes, so the 2C-channel LFEM maps never pile up: the
    # block peaks below eight input-sized arrays (nine or more when they
    # were all held until the reduce 1x1)
    m = M.init_model(M.ModelConfig(scale=2, channels=32, num_blocks=1), seed=3)
    if form == "fused":
        m = M.fuse_model(m)
    x = np.random.default_rng(4).random((1, 32, 60, 80), dtype=np.float32)
    M.dsmb_forward(m, 0, x)  # build the cached description outside the trace
    tracemalloc.start()
    try:
        M.dsmb_forward(m, 0, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.nbytes


def test_training_layout_and_init_are_pinned():
    # the training-form description lists the LFEM's expand and branches as
    # one layer's tensors, in the init order they always had: the parameter
    # count and the bytes of a freshly initialized checkpoint stay as pinned
    cfg = M.preset_config("tiny", 2)
    blob = checkpoint.model_to_bytes(M.init_model(cfg, seed=0))
    assert hashlib.sha256(blob).hexdigest() == (
        "7b006337b96e985e374a6f6f5ceba656a03eea8b5f2d4bdc3cef00f43066bd7c")
    s4 = M.preset_config("S", 4)
    assert (M.count_params(s4), M.count_params(s4, fused=True)) == (836_368, 302_288)


def test_count_params_fused_le_training():
    m = M.init_model(M.ModelConfig(scale=2, channels=32, num_blocks=2), seed=0)
    fused = M.fuse_model(m)
    assert M.count_params(fused) <= M.count_params(m)
    # the branch collapse strictly shrinks the LFEM
    pre = sum(v.size for k, v in m.params.items() if ".lfem.branch" in k)
    post = sum(v.size for k, v in fused.params.items() if ".lfem.rep" in k)
    assert post < pre


# ---------------------------------------------------------------------------
# fusion at the model level
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype, bound", [("float32", 1e-4), ("float64", 1e-10)],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("no_se", [False, True], ids=["se", "no_se"])
def test_fuse_model_forward_equivalence_whole_image(no_se, dtype, bound):
    # each stack pads once, so fusion is exact at every pixel, SE gate
    # included, on images smaller than the largest stack radius (8) too;
    # the random biases make the fused LFEM's edge term differ on the
    # one-pixel ring, which is all or most of the image from 1x1 to 3x3
    rng = np.random.default_rng(10)
    cfg = M.preset_config("S", 2, no_se=no_se, dtype=dtype)
    m = M.init_model(cfg, seed=5)
    for path, v in m.params.items():
        if path.endswith(".bias"):
            v[...] = 0.1 * rng.standard_normal(v.shape)
    if dtype == "float32":
        # outputs of about unit scale, as a trained model's: the absolute
        # float32 bound presumes them (at random init they reach ~100)
        m.params["tail.weight"] *= 0.01
    fm = M.fuse_model(m)
    assert fm.fused and not m.fused
    for h, w in [(5, 7), (13, 9), (21, 19), (1, 1), (1, 6), (6, 1), (2, 2), (3, 3)]:
        x = rng.random((1, 3, h, w)).astype(dtype)
        y = M.model_forward(m, x)
        yf = M.model_forward(fm, x)
        assert np.abs(y - yf).max() <= bound, (h, w)


def test_dsmu_fused_equivalence_whole_image(rng):
    cfg = M.ModelConfig(scale=2, channels=16, num_blocks=1)
    m = M.init_model(cfg, seed=15)
    for path, v in m.params.items():
        if ".dsmu." in path and path.endswith(".bias"):
            v[...] = rng.standard_normal(v.shape).astype(v.dtype)
    fm = M.fuse_model(m)
    for h, w in [(5, 7), (11, 13), (27, 25)]:
        x = rng.standard_normal((1, 16, h, w)).astype(np.float32)
        y = M.dsmu_forward(m, 0, x)
        yf = M.dsmu_forward(fm, 0, x)
        assert np.abs(y - yf).max() <= 1e-5, (h, w)


def test_lfem_fused_equivalence_everywhere_with_se(rng):
    # branch fusion shares one padding, so the LFEM (SE included) matches
    # across its whole output, borders included
    cfg = M.ModelConfig(scale=2, channels=16, num_blocks=1)
    m = M.init_model(cfg, seed=16)
    fm = M.fuse_model(m)
    x = rng.standard_normal((1, 16, 14, 14)).astype(np.float32)
    y = M.lfem_forward(m, 0, x)
    yf = M.lfem_forward(fm, 0, x)
    assert np.abs(y - yf).max() <= 1e-5


def test_fuse_model_idempotent():
    m = M.init_model(M.ModelConfig(scale=2, channels=16, num_blocks=1), seed=6)
    f1 = M.fuse_model(m)
    f2 = M.fuse_model(f1)
    assert f2.fused
    assert sorted(f1.params) == sorted(f2.params)
    for k in f1.params:
        np.testing.assert_array_equal(f1.params[k], f2.params[k])


def test_fused_stack_shapes_match_targets():
    cfg = M.ModelConfig(scale=2, channels=16, num_blocks=1)
    fused = M.fuse_model(M.init_model(cfg, seed=7))
    cg = cfg.chunk_channels
    for j, target in enumerate(cfg.chunk_targets):
        w = fused.params[f"blocks.00.dsmu.stack{j}.weight"]
        b = fused.params[f"blocks.00.dsmu.stack{j}.bias"]
        assert w.shape == (cg, 1, target, target)
        assert b.shape == (1, cg, 1, 1)
        assert w.size == cg * target * target  # K=7 chunk: cg*49 weights + cg biases


def test_fused_model_backward_works(rng):
    # gradients are defined for the fused form too (dense kernels are params)
    cfg = tiny_config()
    fm = M.fuse_model(M.init_model(cfg, seed=8))
    x = rng.standard_normal((1, 3, 8, 8))
    up = rng.standard_normal((1, 3, 16, 16))
    grads = M.model_backward(fm, x, up)
    assert sorted(grads) == sorted(fm.params)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = M.init_model(M.ModelConfig(scale=3, channels=16, num_blocks=2), seed=12)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(m, path)
    back = checkpoint.load_model(path)
    assert back.config == m.config
    assert back.fused == m.fused
    assert sorted(back.params) == sorted(m.params)
    for k in m.params:
        assert back.params[k].dtype == m.params[k].dtype
        np.testing.assert_array_equal(back.params[k], m.params[k])


def test_checkpoint_serialization_deterministic():
    m = M.init_model(tiny_config(), seed=13)
    assert checkpoint.model_to_bytes(m) == checkpoint.model_to_bytes(m.copy())


def test_checkpoint_preserves_fused_flag(tmp_path):
    m = M.fuse_model(M.init_model(M.ModelConfig(scale=2, channels=16, num_blocks=1), 1))
    path = tmp_path / "f.ckpt"
    checkpoint.save_model(m, path)
    assert checkpoint.load_model(path).fused is True


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_model(path)


def test_checkpoint_rejects_truncation(tmp_path):
    m = M.init_model(tiny_config(), seed=14)
    blob = checkpoint.model_to_bytes(m)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.model_from_bytes(blob[: len(blob) - 10])
    for size in (8, 12, 19):  # the magic, then a cut inside version/length
        with pytest.raises(checkpoint.CheckpointError, match="truncated"):
            checkpoint.model_from_bytes(blob[:size])


@pytest.mark.parametrize("defect", ["missing", "extra", "shape", "dtype", "flag"])
def test_checkpoint_rejects_layout_mismatch(defect):
    m = M.init_model(tiny_config(), seed=14)
    if defect == "missing":
        del m.params["blocks.00.lfem.se.fc2.bias"]
    elif defect == "extra":
        m.params["blocks.00.lfem.rep.bias"] = np.zeros((1, 16, 1, 1))
    elif defect == "shape":
        m.params["tail.bias"] = np.zeros((1, 13, 1, 1))
    elif defect == "dtype":
        m.params["head.bias"] = m.params["head.bias"].astype(np.float32)
    else:  # training-form tensors under the fused flag
        m.fused = True
    with pytest.raises(checkpoint.CheckpointError, match="layout"):
        checkpoint.model_from_bytes(checkpoint.model_to_bytes(m))


def test_checkpoint_rejects_fused_layout_before_expand_fold():
    # a fused checkpoint written while the fused LFEM still ran its expand
    # 1x1 (expand tensors, a 2C x 2C rep, no edge) says how to get a loadable one
    m = M.fuse_model(M.init_model(tiny_config(), seed=14))
    c, p = m.config.channels, "blocks.00.lfem"
    del m.params[f"{p}.rep.edge"]
    m.params[f"{p}.rep.weight"] = np.zeros((2 * c, 2 * c, 3, 3))
    m.params[f"{p}.expand.weight"] = np.zeros((2 * c, c, 1, 1))
    m.params[f"{p}.expand.bias"] = np.zeros((1, 2 * c, 1, 1))
    with pytest.raises(checkpoint.CheckpointError,
                       match="re-run `dcfmn fuse` on the training checkpoint"):
        checkpoint.model_from_bytes(checkpoint.model_to_bytes(m))


def _with_header(blob, edit):
    """``blob`` with its JSON header passed through ``edit`` (payload kept)."""
    end = 20 + int.from_bytes(blob[12:20], "little")
    header = edit(json.loads(blob[20:end]))
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return blob[:12] + len(text).to_bytes(8, "little") + text + blob[end:]


def _set(path, value):
    """Header edit that sets ``path`` to ``value``, or to ``value(old)`` if callable."""
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return header
    return edit


@pytest.mark.parametrize("edit", [
    lambda h: b"[" * 100_000,  # nesting too deep for the JSON parser
    lambda h: [h],
    lambda h: {k: v for k, v in h.items() if k != "tensors"},
    _set(["config", "colour"], 1),
    _set(["config", "scale"], 2.0),  # a float that ModelConfig would accept
    _set(["config", "chunk_targets"], [5, 7, 13, "17"]),
    _set(["config", "channels"], 6),
    _set(["config", "num_blocks"], 10**9),
    _set(["fused"], "no"),
    _set(["tensors"], {}),
    _set(["tensors", 0, "shape"], lambda shape: [float(n) for n in shape]),
    _set(["tensors", 0, "path"], lambda path: [path]),
], ids=["deep", "list", "no-tensors", "unknown-field", "float-field", "targets",
        "bad-value", "huge", "flag", "records", "float-shape", "path"])
def test_checkpoint_rejects_malformed_header(edit):
    blob = checkpoint.model_to_bytes(M.init_model(tiny_config(), seed=15))
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.model_from_bytes(_with_header(blob, edit))


def test_checkpoint_rejects_future_version():
    m = M.init_model(tiny_config(), seed=15)
    blob = bytearray(checkpoint.model_to_bytes(m))
    blob[8] = 99  # little-endian version field
    with pytest.raises(checkpoint.CheckpointError, match="version"):
        checkpoint.model_from_bytes(bytes(blob))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_checkpoint_rejects_non_finite_payload(value):
    m = M.init_model(tiny_config(dtype="float32"), seed=15)
    blob = bytearray(checkpoint.model_to_bytes(m))
    last = max(m.params)  # payloads follow the sorted paths, so this one is last
    assert m.params[last].dtype == np.float32
    blob[-4:] = np.float32(value).tobytes()
    with pytest.raises(checkpoint.CheckpointError, match=f"non-finite.*{last}"):
        checkpoint.model_from_bytes(bytes(blob))


def test_checkpoint_save_of_non_finite_model_writes_nothing(tmp_path):
    bad = M.init_model(tiny_config(dtype="float32"), seed=17)
    bad.params["head.bias"][0, 0] = np.nan
    path = tmp_path / "m.ckpt"
    with pytest.raises(checkpoint.CheckpointError, match="non-finite.*head.bias"):
        checkpoint.save_model(bad, path)
    assert not path.exists()
    checkpoint.save_model(M.init_model(tiny_config(dtype="float32"), seed=18), path)
    good = path.read_bytes()
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.save_model(bad, path)
    assert path.read_bytes() == good


def _tiny_checkpoint(fused):
    m = M.init_model(M.ModelConfig(scale=2, channels=4, num_blocks=1), seed=16)
    return checkpoint.model_to_bytes(M.fuse_model(m) if fused else m)


_CKPT = {fused: _tiny_checkpoint(fused) for fused in (False, True)}
_FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("fused", [False, True], ids=["raw", "fused"])
@_FUZZ
@given(data=st.data())
def test_checkpoint_header_edits_load_or_raise_checkpoint_error(fused, data):
    blob = bytearray(_CKPT[fused])
    header_end = 20 + int.from_bytes(blob[12:20], "little")
    for _ in range(data.draw(st.integers(1, 3))):  # printable bytes in the JSON header
        blob[data.draw(st.integers(20, header_end - 1))] = data.draw(st.integers(0x20, 0x7E))
    try:
        checkpoint.model_from_bytes(bytes(blob))
    except checkpoint.CheckpointError:
        pass


@pytest.mark.parametrize("fused", [False, True], ids=["raw", "fused"])
@_FUZZ
@given(data=st.data())
def test_checkpoint_truncations_raise_checkpoint_error(fused, data):
    blob = _CKPT[fused]
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.model_from_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
