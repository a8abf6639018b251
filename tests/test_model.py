import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcfmn import checkpoint, loss, nn
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

    parts = np.split(x, 4, axis=1)
    outs = []
    for j, part in enumerate(parts):
        for si, (k, d) in enumerate(cfg.stack_plan(j)):
            part = nn.conv2d(part, p[f"blocks.00.dsmu.stack{j}.stage{si}.weight"],
                             p[f"blocks.00.dsmu.stack{j}.stage{si}.bias"],
                             nn.ConvSpec(2, 2, k, dilation=d, groups=2))
        outs.append(part)
    agg = nn.conv2d(np.concatenate(outs, axis=1), p["blocks.00.dsmu.mix.weight"],
                    p["blocks.00.dsmu.mix.bias"], nn.ConvSpec(8, 8, 1))
    want = nn.gelu(agg) + x
    assert rel_err(got, want) < 1e-12


def test_lfem_matches_inline_oracle(rng):
    cfg = tiny_config()
    m = M.init_model(cfg, seed=4)
    p = m.params
    x = rng.standard_normal((1, 8, 7, 7))
    got = M.lfem_forward(m, 0, x)
    assert got.shape == x.shape

    e = nn.conv2d(x, p["blocks.00.lfem.expand.weight"],
                  p["blocks.00.lfem.expand.bias"], nn.ConvSpec(8, 16, 1))
    pre = sum(
        nn.conv2d(e, p[f"blocks.00.lfem.branch{br}.weight"],
                  p[f"blocks.00.lfem.branch{br}.bias"], nn.ConvSpec(16, 16, 3))
        for br in range(cfg.lfem_branches)
    ) + e
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
def test_whole_model_gradient_finite_difference(form):
    rng = np.random.default_rng(99)
    cfg = tiny_config()  # C=8, one block, float64
    m = M.init_model(cfg, seed=3)
    if form == "fused":
        m = M.fuse_model(m)
    x = rng.standard_normal((1, 3, 8, 8))
    up = rng.standard_normal((1, 3, 16, 16))

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


def _interior(a, margin):
    return a[:, :, margin:-margin, margin:-margin]


def test_fuse_model_forward_equivalence_without_global_gate():
    # the SE global pool leaks boundary differences into every pixel, so the
    # strict interior bound is asserted on no_se models; SE-bearing pieces are
    # covered by the dsmu/lfem-level checks below
    rng = np.random.default_rng(10)
    cfg = M.ModelConfig(scale=2, channels=16, num_blocks=2, no_se=True)
    m = M.init_model(cfg, seed=5)
    fm = M.fuse_model(m)
    assert fm.fused and not m.fused
    margin = M.fusion_margin(cfg)
    size = 2 * margin + 10
    for _ in range(10):
        x = rng.standard_normal((1, 3, size, size)).astype(np.float32)
        y = M.model_forward(m, x)
        yf = M.model_forward(fm, x)
        sm = margin * cfg.scale
        diff = np.abs(_interior(y, sm) - _interior(yf, sm)).max()
        assert diff <= 1e-4


def test_dsmu_fused_interior_equivalence(rng):
    cfg = M.ModelConfig(scale=2, channels=16, num_blocks=1)
    m = M.init_model(cfg, seed=15)
    fm = M.fuse_model(m)
    r = M.stack_radius(cfg)
    x = rng.standard_normal((1, 16, 2 * r + 12, 2 * r + 12)).astype(np.float32)
    y = M.dsmu_forward(m, 0, x)
    yf = M.dsmu_forward(fm, 0, x)
    assert np.abs(_interior(y, r) - _interior(yf, r)).max() <= 1e-5


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
