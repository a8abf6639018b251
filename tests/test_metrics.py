import numpy as np
import pytest

from dcfmn import data, metrics, nn
from dcfmn import model as M
from dcfmn.nn import ShapeError


# ---------------------------------------------------------------------------
# luma
# ---------------------------------------------------------------------------


def test_rgb_to_y_black_white_gray():
    black = np.zeros((2, 2, 3), dtype=np.uint8)
    white = np.full((2, 2, 3), 255, dtype=np.uint8)
    gray = np.full((2, 2, 3), 128, dtype=np.uint8)
    assert metrics.rgb_to_y(black)[0, 0] == pytest.approx(16.0)
    assert metrics.rgb_to_y(white)[0, 0] == pytest.approx(235.0, abs=0.01)
    assert metrics.rgb_to_y(gray)[0, 0] == pytest.approx(16.0 + 219.0 * 128.0 / 255.0,
                                                         abs=1e-9)


# ---------------------------------------------------------------------------
# psnr
# ---------------------------------------------------------------------------


def test_psnr_identical_hits_cap(rng):
    img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    assert metrics.psnr(img, img.copy(), crop=2) == metrics.PSNR_CAP


def test_psnr_uniform_one_level_closed_form():
    a = np.full((32, 32), 100.0)
    b = a + 1.0
    want = 20.0 * np.log10(255.0)
    assert metrics.psnr(a, b, crop=2) == pytest.approx(want, abs=1e-6)
    assert want == pytest.approx(48.1308, abs=1e-4)


def test_psnr_crop_excludes_border():
    a = np.full((20, 20), 50.0)
    b = a.copy()
    b[0, :] = 200.0  # damage only the border
    assert metrics.psnr(a, b, crop=2) == metrics.PSNR_CAP
    assert metrics.psnr(a, b, crop=0) < 40.0


def test_psnr_monotone_in_mse(rng):
    base = rng.integers(0, 200, (16, 16)).astype(np.float64)
    p1 = metrics.psnr(base, base + 1.0, crop=0)
    p4 = metrics.psnr(base, base + 4.0, crop=0)
    assert p4 < p1


def test_psnr_errors(rng):
    a = rng.integers(0, 255, (8, 8, 3), dtype=np.uint8)
    with pytest.raises(ShapeError):
        metrics.psnr(a, a[:4], crop=0)
    with pytest.raises(ValueError):
        metrics.psnr(a, a, crop=10)


# ---------------------------------------------------------------------------
# ssim
# ---------------------------------------------------------------------------


def test_ssim_identical_is_one(rng):
    img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    assert metrics.ssim(img, img.copy(), crop=2) == pytest.approx(1.0, abs=1e-12)


def test_ssim_negated_structure_is_low(rng):
    base = rng.integers(0, 256, (48, 48)).astype(np.float64)
    flipped = 255.0 - base
    value = metrics.ssim(base, flipped, crop=0)
    assert value < 0.1


def test_ssim_symmetric(rng):
    a = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    b = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    assert metrics.ssim(a, b, crop=2) == pytest.approx(metrics.ssim(b, a, crop=2),
                                                       abs=1e-12)
    assert metrics.ssim(a, b, crop=2) <= 1.0


def test_ssim_matches_direct_windowed_oracle(rng):
    a = rng.integers(0, 256, (20, 18)).astype(np.float64)
    b = np.clip(a + rng.normal(0, 12, a.shape), 0, 255)
    got = metrics.ssim(a, b, crop=0)

    # direct oracle: loop over every valid 11x11 window
    g1 = np.exp(-((np.arange(11) - 5) ** 2) / (2 * 1.5 * 1.5))
    g1 /= g1.sum()
    win = np.outer(g1, g1)
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    vals = []
    for y in range(a.shape[0] - 10):
        for x in range(a.shape[1] - 10):
            pa = a[y : y + 11, x : x + 11]
            pb = b[y : y + 11, x : x + 11]
            mu1 = (win * pa).sum()
            mu2 = (win * pb).sum()
            v1 = (win * pa * pa).sum() - mu1**2
            v2 = (win * pb * pb).sum() - mu2**2
            cov = (win * pa * pb).sum() - mu1 * mu2
            vals.append(((2 * mu1 * mu2 + c1) * (2 * cov + c2))
                        / ((mu1**2 + mu2**2 + c1) * (v1 + v2 + c2)))
    assert got == pytest.approx(np.mean(vals), abs=1e-12)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


def test_lr_extents_convention():
    assert metrics.lr_extents(2) == (360, 640)
    assert metrics.lr_extents(4) == (180, 320)
    assert metrics.lr_extents(3) == (240, 427)  # ceil on the odd axis


def test_conv_mac_formula_example():
    # a single 3x3 conv 3->16 at 64x64 output costs 64*64*16*27 MACs
    cfg = M.ModelConfig(scale=2, channels=16, num_blocks=1)
    rows = metrics.layer_table(cfg, out_h=128, out_w=128)
    head = [r for r in rows if r.name == "head"][0]
    assert head.macs == 64 * 64 * 16 * 3 * 9 == 1_769_472 * 16 // 16
    assert head.macs == 64 * 64 * 16 * 27


def test_depthwise_mac_formula():
    cfg = M.ModelConfig(scale=2, channels=16, num_blocks=1, dsmu_plain3x3=True)
    rows = metrics.layer_table(cfg, out_h=64, out_w=64)
    stage = [r for r in rows if "dsmu.stack0" in r.name][0]
    # depthwise 3x3 over cg channels costs cg*h*w*9
    assert stage.macs == 4 * 32 * 32 * 9


def test_count_macs_matches_hand_sum_tiny():
    # scale 2, C=8, one block, evaluated at a 64x64 output (32x32 input)
    cfg = M.ModelConfig(scale=2, channels=8, num_blocks=1)
    hw = 32 * 32
    head = hw * 8 * 3 * 9
    ln1 = 4 * hw * 8
    # ten 3x3 depthwise stages, cg = 2, each run on its input's bordered
    # extents; a stage's border is the summed padding of itself and the
    # stages after it, and the first stage reads the second's border
    borders = [1, 1] + [2, 2] + [4, 4, 2] + [6, 6, 3]
    stacks = sum((32 + 2 * b) ** 2 for b in borders) * 2 * 1 * 9
    mix = hw * 8 * 8 * 1
    ln2 = 4 * hw * 8
    rep = hw * 16 * 8 * 9  # one C -> 2C 3x3 runs the expand folded into the branch sum
    se = hw * 16 + 16 * 4 + 4 * 16 + hw * 16
    reduce_ = hw * 8 * 16 * 1
    tail = hw * 12 * 8 * 9
    want = head + ln1 + stacks + mix + ln2 + rep + se + reduce_ + tail
    assert metrics.count_macs(cfg, out_h=64, out_w=64) == want


def _stack_border_macs(h, w):
    """MACs the C=8 stacks' stages spend on their input borders at h x w."""
    borders = [1, 1] + [2, 2] + [4, 4, 2] + [6, 6, 3]
    return sum((h + 2 * b) * (w + 2 * b) - h * w for b in borders) * 2 * 1 * 9


def test_count_macs_scales_linearly():
    # the fused form is exactly linear in pixel count without SE (whose two
    # fc products are resolution-independent constants), and within that
    # constant otherwise; the training form is too once its stages' border
    # work is taken off
    nose = M.ModelConfig(scale=2, channels=8, num_blocks=1, no_se=True)
    one = metrics.count_macs(nose, fused=True, out_h=64, out_w=64)
    four = metrics.count_macs(nose, fused=True, out_h=128, out_w=128)
    assert four == 4 * one
    one = metrics.count_macs(nose, out_h=64, out_w=64) - _stack_border_macs(32, 32)
    four = metrics.count_macs(nose, out_h=128, out_w=128) - _stack_border_macs(64, 64)
    assert four == 4 * one

    cfg = M.ModelConfig(scale=2, channels=8, num_blocks=1)
    se_fc = 16 * 4 + 4 * 16  # per-block fc products, pixel-independent
    one = metrics.count_macs(cfg, fused=True, out_h=64, out_w=64)
    four = metrics.count_macs(cfg, fused=True, out_h=128, out_w=128)
    assert 4 * one - four == 3 * se_fc
    one = metrics.count_macs(cfg, out_h=64, out_w=64) - _stack_border_macs(32, 32)
    four = metrics.count_macs(cfg, out_h=128, out_w=128) - _stack_border_macs(64, 64)
    assert 4 * one - four == 3 * se_fc


def test_count_params_analytic_matches_actual():
    for fused in (False, True):
        cfg = M.ModelConfig(scale=2, channels=16, num_blocks=2)
        m = M.init_model(cfg, seed=0)
        if fused:
            m = M.fuse_model(m)
        assert M.count_params(cfg, fused) == sum(v.size for v in m.params.values())


_VARIANTS = {
    "default": {},
    "no_se": dict(no_se=True),
    "dsmu_plain3x3": dict(dsmu_plain3x3=True),
    "branches1": dict(lfem_branches=1),
    "branches3": dict(lfem_branches=3),
    "no_self_residual": dict(no_self_residual=True),
}


@pytest.mark.parametrize("fused", [False, True], ids=["raw", "fused"])
@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_layer_list_matches_store_table_and_traced_macs(variant, fused, monkeypatch):
    cfg = M.ModelConfig(scale=2, channels=8, num_blocks=2, **_VARIANTS[variant])
    m = M.init_model(cfg, seed=0)
    if fused:
        m = M.fuse_model(m)
    described = M.layers(cfg, fused)
    want = {path: shape for layer in described for path, shape in layer.tensors}
    assert {path: v.shape for path, v in m.params.items()} == want

    rows = metrics.layer_table(cfg, fused, out_h=24, out_w=20)
    assert [r.name for r in rows] == [layer.path for layer in described]
    assert sum(r.params for r in rows) == M.count_params(cfg, fused)

    traced = []
    conv2d = nn.conv2d

    def counting_conv2d(x, weight, bias, spec):
        n, _, h, w = x.shape
        traced.append(n * h * w * spec.out_channels * (spec.in_channels // spec.groups)
                      * spec.kernel**2)
        return conv2d(x, weight, bias, spec)

    monkeypatch.setattr(nn, "conv2d", counting_conv2d)
    M.model_forward(m, np.zeros((1, 3, 12, 10), cfg.np_dtype))
    conv_rows = [r for r in rows if not r.name.endswith((".ln1", ".ln2", ".se"))]
    assert sum(traced) == sum(r.macs for r in conv_rows)


def test_fused_macs_differ_from_training():
    # both forms run each LFEM as the same C -> 2C 3x3, so their rows are
    # equal; the forms differ exactly by the stacks: dilated stages against
    # one dense depthwise kernel each
    cfg = M.ModelConfig(scale=2, channels=32, num_blocks=2)
    training = {r.name: r.macs for r in metrics.layer_table(cfg, fused=False)}
    fused = {r.name: r.macs for r in metrics.layer_table(cfg, fused=True)}
    for name in ("blocks.00.lfem.rep", "blocks.01.lfem.rep"):
        assert training[name] == fused[name] == 360 * 640 * 64 * 32 * 9
    h, w = metrics.lr_extents(2)
    cg = cfg.chunk_channels
    dense = sum(h * w * cg * k * k for k in cfg.chunk_targets)
    stages = sum(macs for name, macs in training.items() if ".stage" in name)
    assert sum(macs for name, macs in fused.items() if ".dsmu.stack" in name) == 2 * dense
    assert sum(fused.values()) - sum(training.values()) == 2 * dense - stages
    assert {n: m for n, m in training.items() if ".dsmu.stack" not in n} == {
        n: m for n, m in fused.items() if ".dsmu.stack" not in n}


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _toy_pairs(rng, n=3, size=32, scale=2):
    pairs = []
    for _ in range(n):
        base = data.bicubic_resize(rng.random((size, size)), size, size)
        hr = data.to_image8(np.stack([base] * 3, axis=2))
        pairs.append((hr, data.degrade(hr, scale)))
    return pairs


def test_evaluate_hr_as_sr_is_perfect(rng):
    pairs = [(hr, hr) for hr, _ in _toy_pairs(rng, scale=1)]
    # feed identity pairs through the metric path directly
    for hr, sr in pairs:
        assert metrics.psnr(sr, hr, crop=1) == metrics.PSNR_CAP
        assert metrics.ssim(sr, hr, crop=1) == pytest.approx(1.0)


def test_evaluate_bicubic_deterministic(rng):
    pairs = _toy_pairs(rng)
    r1 = metrics.evaluate("bicubic", pairs, 2, "toy")
    r2 = metrics.evaluate("bicubic", pairs, 2, "toy")
    assert r1.psnr_db == r2.psnr_db and r1.ssim == r2.ssim
    assert r1.method == "bicubic" and r1.params == 0
    assert len(r1.per_image) == 3
    assert 10.0 < r1.psnr_db < metrics.PSNR_CAP
    assert 0.0 < r1.ssim <= 1.0


def test_evaluate_model_runs_and_reports(rng):
    pairs = _toy_pairs(rng, n=2)
    cfg = M.ModelConfig(scale=2, channels=8, num_blocks=1)
    m = M.init_model(cfg, seed=1)
    rep = metrics.evaluate(m, pairs, 2, "toy")
    assert rep.method == "dcfmn"
    assert rep.params == M.count_params(m)
    assert rep.macs == metrics.count_macs(cfg)
    assert np.isfinite(rep.psnr_db) and np.isfinite(rep.ssim)


def test_evaluate_rejects_mismatched_scale(rng):
    pairs = _toy_pairs(rng)
    m = M.init_model(M.ModelConfig(scale=4, channels=8, num_blocks=1), seed=0)
    with pytest.raises(ValueError):
        metrics.evaluate(m, pairs, 2)
    with pytest.raises(ValueError):
        metrics.evaluate("bicubic", [], 2)
    with pytest.raises(ValueError):
        metrics.evaluate("nearest", pairs, 2)
    with pytest.raises(ValueError):
        # HR passed off as LR at "scale 1" is rejected outright
        metrics.evaluate("bicubic", [(hr, hr) for hr, _ in pairs], 1)


def test_evaluate_pairs_loaded_from_manifest(rng, tmp_path):
    from dcfmn import png
    scale = 2
    entries = []
    pairs = _toy_pairs(rng, n=2, scale=scale)
    for i, (hr, lr) in enumerate(pairs):
        png.write_png(tmp_path / f"h{i}.png", hr)
        png.write_png(tmp_path / f"l{i}.png", lr)
        entries.append((f"h{i}.png", f"l{i}.png", scale))
    man = tmp_path / "m.tsv"
    data.write_manifest(man, entries)
    loaded, manifest_scale = data.load_dataset(man)
    rep = metrics.evaluate("bicubic", loaded, manifest_scale, "disk")
    assert len(rep.per_image) == 2
    assert rep.psnr_db == metrics.evaluate("bicubic", pairs, scale, "toy").psnr_db
    with pytest.raises(ValueError):
        metrics.evaluate("bicubic", loaded, 4)  # wrong scale for the pairs


def test_report_formats(rng):
    rep = metrics.evaluate("bicubic", _toy_pairs(rng), 2, "toy")
    csv = metrics.report_csv(rep)
    assert csv.startswith("method,scale,params,macs,dataset,psnr_db,ssim\n")
    assert "bicubic,2,0,0,toy," in csv
    md = metrics.report_markdown(rep)
    assert md.count("|") >= 10 and "toy PSNR/SSIM" in md
