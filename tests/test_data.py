import io
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcfmn import data, metrics, png, train
from dcfmn import model as M
from dcfmn.nn import ShapeError


def rand_image(rng, h, w):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


# ---------------------------------------------------------------------------
# png codec
# ---------------------------------------------------------------------------


def test_png_roundtrip_bit_exact(rng, tmp_path):
    img = rand_image(rng, 13, 7)
    path = tmp_path / "x.png"
    png.write_png(path, img)
    np.testing.assert_array_equal(png.read_png(path), img)


def test_png_1x1_image(tmp_path):
    img = np.array([[[1, 2, 3]]], dtype=np.uint8)
    path = tmp_path / "one.png"
    png.write_png(path, img)
    np.testing.assert_array_equal(png.read_png(path), img)


def _chunk(kind, body):
    return (struct.pack(">I", len(body)) + kind + body
            + struct.pack(">I", zlib.crc32(kind + body) & 0xFFFFFFFF))


def _manual_png(w, h, depth, color, payload, interlace=0):
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, interlace)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(payload)) + _chunk(b"IEND", b""))


def test_png_rejects_16_bit():
    blob = _manual_png(1, 1, 16, 0, b"\x00\x12\x34")
    with pytest.raises(png.PngError, match="bit depth"):
        png.decode_png(blob)


def test_png_rejects_palette():
    blob = _manual_png(1, 1, 8, 3, b"\x00\x00")
    with pytest.raises(png.PngError, match="palette"):
        png.decode_png(blob)


def test_png_rejects_interlace():
    blob = _manual_png(1, 1, 8, 2, b"\x00\x00\x00\x00", interlace=1)
    with pytest.raises(png.PngError, match="interlaced"):
        png.decode_png(blob)


@pytest.mark.parametrize("extent", [2**31 - 1, 2**32 - 1], ids=["2^31-1", "2^32-1"])
def test_png_rejects_oversized_extents(extent):
    # a well-formed header whose declared size no decoder can allocate
    blob = _manual_png(extent, extent, 8, 2, b"\x00" * 4)
    with pytest.raises(png.PngError, match="exceed|too large"):
        png.decode_png(blob)


def test_png_rejects_bad_signature():
    with pytest.raises(png.PngError):
        png.decode_png(b"JFIF not a png")


def test_png_rejects_crc_corruption(rng):
    blob = bytearray(png.encode_png(rand_image(rng, 4, 4)))
    blob[40] ^= 0xFF  # flip a byte inside IDAT
    with pytest.raises(png.PngError):
        png.decode_png(bytes(blob))


def _rgb_1x1_png(idat: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


def test_png_inflation_is_bounded_by_the_header():
    """A 1x1 image whose IDAT inflates to 64 MB of zeros is rejected without
    inflating more than the header's extents."""
    packer = zlib.compressobj(9)
    blob = _rgb_1x1_png(
        b"".join(packer.compress(bytes(1 << 20)) for _ in range(64)) + packer.flush())
    tracemalloc.start()
    try:
        with pytest.raises(png.PngError, match="size mismatches"):
            png.decode_png(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(blob) + (1 << 20)


def test_png_rejects_unterminated_idat_stream():
    """An IDAT stream that inflates to exactly the header's extents (a filter
    byte and one RGB pixel) but never ends."""
    packer = zlib.compressobj()
    blob = _rgb_1x1_png(packer.compress(bytes(4)) + packer.flush(zlib.Z_SYNC_FLUSH))
    with pytest.raises(png.PngError, match="truncated"):
        png.decode_png(blob)


_PNG = png.encode_png(rand_image(np.random.default_rng(3), 10, 12))


def _decodes_or_png_error(blob):
    try:
        png.decode_png(blob)
    except png.PngError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_png_truncations_decode_or_raise_png_error(data):
    # a cut between the IDAT and IEND chunks still decodes; every other
    # cut must raise the codec's own error
    _decodes_or_png_error(_PNG[: data.draw(st.integers(0, len(_PNG) - 1))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_png_byte_edits_decode_or_raise_png_error(data):
    blob = bytearray(_PNG)
    for _ in range(data.draw(st.integers(1, 3))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    _decodes_or_png_error(bytes(blob))


def _reference_filter(image, ftypes):
    """Apply PNG scanline filters per the PNG standard (encoder side);
    row ``y`` takes filter ``ftypes[y % len(ftypes)]``."""
    h, w, c = image.shape
    img = image.astype(np.int32)
    out = bytearray()
    prev = np.zeros((w, c), dtype=np.int32)
    for y in range(h):
        ftype = ftypes[y % len(ftypes)]
        row = img[y]
        filtered = np.empty_like(row)
        for x in range(w):
            left = row[x - 1] if x else np.zeros(c, dtype=np.int32)
            up = prev[x]
            upleft = prev[x - 1] if x else np.zeros(c, dtype=np.int32)
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = left
            elif ftype == 2:
                pred = up
            elif ftype == 3:
                pred = (left + up) >> 1
            else:  # paeth
                p = left + up - upleft
                pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
                pred = np.where((pa <= pb) & (pa <= pc), left,
                                np.where(pb <= pc, up, upleft))
            filtered[x] = (row[x] - pred) & 0xFF
        out.append(ftype)
        out += filtered.astype(np.uint8).tobytes()
        prev = row
    return bytes(out)


@pytest.mark.parametrize("ftypes, h, w, channels", [
    *(pytest.param([f], 6, 5, 3, id=str(f)) for f in range(5)),
    *(pytest.param([f], 6, 5, 1, id=f"gray-{f}") for f in range(5)),
    *(pytest.param([f], 6, 1, 3, id=f"width1-{f}") for f in range(5)),
    pytest.param([0, 1, 2, 3, 4], 10, 5, 3, id="mixed"),
    pytest.param([4, 3, 2, 1, 0], 10, 4, 1, id="gray-mixed"),
])
def test_png_decodes_every_scanline_filter(rng, ftypes, h, w, channels):
    # a 2-D random walk mod 256: neighbours differ by a few levels, so that
    # Paeth's ties and the mod-256 wrap both occur
    steps = rng.integers(-2, 3, size=(h, w, channels))
    img = (steps.cumsum(axis=0).cumsum(axis=1) % 256).astype(np.uint8)
    blob = _manual_png(w, h, 8, 2 if channels == 3 else 0, _reference_filter(img, ftypes))
    np.testing.assert_array_equal(png.decode_png(blob), np.broadcast_to(img, (h, w, 3)))


def test_png_rejects_unknown_scanline_filter():
    blob = _manual_png(1, 1, 8, 2, b"\x05\x00\x00\x00")
    with pytest.raises(png.PngError, match="unknown scanline filter 5"):
        png.decode_png(blob)


def test_png_grayscale_promoted(rng):
    gray = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
    payload = bytearray()
    for row in gray:
        payload.append(0)
        payload += row.tobytes()
    blob = _manual_png(3, 4, 8, 0, bytes(payload))
    got = png.decode_png(blob)
    assert got.shape == (4, 3, 3)
    for c in range(3):
        np.testing.assert_array_equal(got[:, :, c], gray)


def _scanline_filters(blob, w):
    """Filter byte of each row of an 8-bit RGB PNG, read from its inflated IDAT."""
    pos, idat = 8, b""
    while pos < len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        if blob[pos + 4 : pos + 8] == b"IDAT":
            idat += blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
    return set(zlib.decompress(idat)[:: w * 3 + 1])


def test_png_pillow_cross_decode():
    Image = pytest.importorskip("PIL.Image")
    # a smooth photo-like image, on which Pillow's per-row choice picks Paeth
    h, w = 48, 64
    y, x = np.mgrid[0:h, 0:w] / np.array([h, w])[:, None, None]
    plane = 0.5 + 0.3 * np.sin(6 * x + 4 * y) * np.cos(5 * y - 3 * x) + 0.15 * (x - y)
    img = data.to_image8(np.stack([plane, 1.0 - plane, plane**2], axis=2))
    # ours -> Pillow
    theirs = np.asarray(Image.open(io.BytesIO(png.encode_png(img))).convert("RGB"))
    np.testing.assert_array_equal(theirs, img)
    # Pillow -> ours
    buf = io.BytesIO()
    Image.fromarray(img).save(buf, format="PNG")
    assert 4 in _scanline_filters(buf.getvalue(), w)
    np.testing.assert_array_equal(png.decode_png(buf.getvalue()), img)


# ---------------------------------------------------------------------------
# value conversion
# ---------------------------------------------------------------------------


def test_to_real_endpoints():
    img = np.zeros((1, 2, 3), dtype=np.uint8)
    img[0, 1] = 255
    real = data.to_real(img)
    assert real[0, 0, 0] == 0.0 and real[0, 1, 0] == 1.0


def test_to_image8_roundtrip_exact():
    levels = np.arange(256, dtype=np.uint8)
    img = np.stack([levels, levels, levels], axis=1).reshape(16, 16, 3)
    np.testing.assert_array_equal(data.to_image8(data.to_real(img)), img)


def test_to_image8_clamps():
    real = np.array([[[1.7, -0.3, 0.5]]])
    out = data.to_image8(real)
    assert out[0, 0, 0] == 255 and out[0, 0, 1] == 0 and out[0, 0, 2] == 128


def test_to_image8_rounds_half_away():
    # 0.5/255 is exactly between levels 0 and 1
    real = np.full((1, 1, 3), 0.5 / 255.0)
    assert data.to_image8(real)[0, 0, 0] == 1


# ---------------------------------------------------------------------------
# bicubic resampling
# ---------------------------------------------------------------------------


def test_cubic_kernel_midpoint_weights():
    got = data.cubic_kernel(np.array([-1.5, -0.5, 0.5, 1.5]))
    np.testing.assert_allclose(got, [-0.0625, 0.5625, 0.5625, -0.0625], atol=1e-14)
    assert data.cubic_kernel(np.array([0.0]))[0] == 1.0
    assert data.cubic_kernel(np.array([2.0]))[0] == 0.0


@pytest.mark.parametrize("out_shape", [(5, 5), (13, 7), (40, 24), (3, 17)])
def test_bicubic_preserves_constants(out_shape):
    plane = np.full((16, 12), 0.6180339)
    out = data.bicubic_resize(plane, *out_shape)
    np.testing.assert_allclose(out, 0.6180339, atol=1e-6)


def test_bicubic_identity_when_same_extents(rng):
    plane = rng.random((9, 14))
    np.testing.assert_allclose(data.bicubic_resize(plane, 9, 14), plane, atol=1e-12)


def test_bicubic_reproduces_linear_ramp_interior():
    h, w = 32, 32
    ramp = np.linspace(0.0, 1.0, w)[None, :] * np.ones((h, 1))
    up = data.bicubic_resize(ramp, h, w * 2)
    want = np.linspace(0.0, 1.0, w)  # cubic reproduces linear polynomials
    # interior columns follow the interpolated ramp exactly
    xs = (np.arange(w * 2) + 0.5) * 0.5 - 0.5
    expect = np.interp(xs, np.arange(w), want)
    np.testing.assert_allclose(up[0, 4:-4], expect[4:-4], atol=1e-9)


def _resample_matrix_loop(in_size, out_size):
    """Per-row reference of data._resample_matrix: each output row's taps,
    weights, sum and scatter on their own."""
    scale = in_size / out_size
    support_scale = max(1.0, scale)
    radius = 2.0 * support_scale
    mat = np.zeros((out_size, in_size))
    for i in range(out_size):
        center = (i + 0.5) * scale - 0.5
        taps = np.arange(int(np.ceil(center - radius)), int(np.floor(center + radius)) + 1)
        weights = data.cubic_kernel((center - taps) / support_scale)
        np.add.at(mat[i], np.clip(taps, 0, in_size - 1), weights / weights.sum())
    return mat


@pytest.mark.parametrize("in_size, out_size", [
    (64, 32), (720, 180), (1280, 320), (32, 64), (180, 720), (7, 3), (5, 15),
    (96, 32), (32, 96), (100, 33), (1, 3), (3, 1)])
def test_resample_matrix_matches_row_loop_bit_exact(in_size, out_size):
    np.testing.assert_array_equal(data._resample_matrix(in_size, out_size),
                                  _resample_matrix_loop(in_size, out_size))


def test_degrade_and_upscale_match_per_channel_loop_bit_exact(rng):
    for h, w, s in [(64, 64, 2), (63, 66, 3), (48, 40, 4)]:
        img = rand_image(rng, h, w)
        for out, (oh, ow) in [(data.degrade(img, s), (h // s, w // s)),
                              (data.upscale_bicubic(img, s), (h * s, w * s))]:
            real = data.to_real(img, dtype=np.float64)
            planes = [_resample_matrix_loop(h, oh) @ real[:, :, c] @ _resample_matrix_loop(w, ow).T
                      for c in range(3)]
            np.testing.assert_array_equal(out, data.to_image8(np.stack(planes, axis=2)))


def test_bicubic_rejects_bad_targets(rng):
    with pytest.raises(ValueError):
        data.bicubic_resize(rng.random((4, 4)), 0, 4)


def test_bicubic_downscale_matches_pillow_interior(rng):
    Image = pytest.importorskip("PIL.Image")
    plane = rng.random((64, 48)).astype(np.float32)
    # smooth it so single-pixel noise does not dominate the comparison
    plane = data.bicubic_resize(plane.astype(np.float64), 64, 48)
    for s in (2, 4):
        mine = data.bicubic_resize(plane, 64 // s, 48 // s)
        pil = Image.fromarray(plane.astype(np.float32), mode="F")
        theirs = np.asarray(pil.resize((48 // s, 64 // s), Image.BICUBIC))
        inner = (slice(2, -2), slice(2, -2))
        assert np.abs(mine[inner] - theirs[inner]).max() < 1e-5


def test_bicubic_upscale_matches_pillow_interior(rng):
    Image = pytest.importorskip("PIL.Image")
    plane = rng.random((16, 20)).astype(np.float64)
    mine = data.bicubic_resize(plane, 32, 40)
    pil = Image.fromarray(plane.astype(np.float32), mode="F")
    theirs = np.asarray(pil.resize((40, 32), Image.BICUBIC))
    inner = (slice(4, -4), slice(4, -4))
    assert np.abs(mine[inner] - theirs[inner]).max() < 1e-5


# ---------------------------------------------------------------------------
# modcrop / degrade
# ---------------------------------------------------------------------------


def test_modcrop_cases(rng):
    img = rand_image(rng, 101, 103)
    cropped = data.modcrop(img, 4)
    assert cropped.shape[:2] == (100, 100)
    np.testing.assert_array_equal(cropped, img[:100, :100])
    exact = rand_image(rng, 64, 32)
    np.testing.assert_array_equal(data.modcrop(exact, 4), exact)
    with pytest.raises(ValueError):
        data.modcrop(rand_image(rng, 3, 3), 4)


def test_degrade_constant_and_extents(rng):
    hr = np.full((32, 48, 3), 77, dtype=np.uint8)
    lr = data.degrade(hr, 4)
    assert lr.shape == (8, 12, 3)
    assert (lr == 77).all()
    with pytest.raises(ValueError):
        data.degrade(rand_image(rng, 30, 32), 4)  # not modcropped


def test_degrade_matches_reference_resampler_on_ramp():
    Image = pytest.importorskip("PIL.Image")
    h, w, s = 64, 64, 4
    ramp = (np.linspace(0, 255, w)[None, :] * np.ones((h, 1))).astype(np.uint8)
    hr = np.stack([ramp, ramp[::-1], (ramp // 2)], axis=2)
    lr = data.degrade(hr, s)
    pil = np.asarray(Image.fromarray(hr).resize((w // s, h // s), Image.BICUBIC))
    inner = (slice(1, -1), slice(1, -1), slice(None))
    diff = np.abs(lr[inner].astype(int) - pil[inner].astype(int))
    assert diff.max() <= 1


def test_upscale_bicubic_extents(rng):
    lr = rand_image(rng, 8, 10)
    assert data.upscale_bicubic(lr, 3).shape == (24, 30, 3)


# ---------------------------------------------------------------------------
# patch sampling
# ---------------------------------------------------------------------------


def _smooth_pair(rng, h=48, w=48, scale=2):
    base = rng.random((h, w))
    smooth = data.bicubic_resize(base, h, w)  # low-pass-ish
    hr = data.to_image8(np.stack([smooth] * 3, axis=2))
    return hr, data.degrade(hr, scale)


def test_patch_pair_extents_and_determinism(rng):
    hr, lr = _smooth_pair(rng)
    a = data.sample_patch_pair(hr, lr, 2, 8, np.random.default_rng(3))
    b = data.sample_patch_pair(hr, lr, 2, 8, np.random.default_rng(3))
    assert a[0].shape == (16, 16, 3) and a[1].shape == (8, 8, 3)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_patch_pair_full_image(rng):
    hr, lr = _smooth_pair(rng)
    hp, lp = data.sample_patch_pair(hr, lr, 2, lr.shape[0],
                                    np.random.default_rng(0), augment=False)
    np.testing.assert_array_equal(hp, hr)
    np.testing.assert_array_equal(lp, lr)


def test_patch_pair_alignment_against_degradation_oracle():
    rng = np.random.default_rng(11)
    hr, lr = _smooth_pair(rng, 64, 64, 2)
    for trial in range(5):
        hp, lp = data.sample_patch_pair(hr, lr, 2, 16,
                                        np.random.default_rng(trial), augment=False)
        redeg = data.degrade(hp, 2)
        inner = (slice(3, -3), slice(3, -3), slice(None))
        diff = np.abs(redeg[inner].astype(int) - lp[inner].astype(int))
        assert diff.max() <= 1


def test_patch_pair_augmentation_consistency():
    rng = np.random.default_rng(21)
    hr, lr = _smooth_pair(rng, 64, 64, 2)
    seen_aug = False
    for trial in range(8):
        r = np.random.default_rng(trial)
        hp, lp = data.sample_patch_pair(hr, lr, 2, 16, r)
        # whatever dihedral op was applied, the pair must stay aligned
        redeg = data.degrade(hp, 2)
        inner = (slice(3, -3), slice(3, -3), slice(None))
        assert np.abs(redeg[inner].astype(int) - lp[inner].astype(int)).max() <= 1
        if hp.shape == (32, 32, 3):
            seen_aug = True
    assert seen_aug


def test_patch_pair_errors(rng):
    hr, lr = _smooth_pair(rng)
    with pytest.raises(ValueError):
        data.sample_patch_pair(hr, lr, 2, 999, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        data.sample_patch_pair(hr[:-2], lr, 2, 8, np.random.default_rng(0))


def _load_from_manifest(tmp_path, hr, lr):
    png.write_png(tmp_path / "hr.png", hr)
    png.write_png(tmp_path / "lr.png", lr)
    data.write_manifest(tmp_path / "m.tsv", [("hr.png", "lr.png", 2)])
    data.load_dataset(tmp_path / "m.tsv")


def _train_one_step(tmp_path, hr, lr):
    net = M.init_model(M.ModelConfig(scale=2, channels=8, num_blocks=1), seed=0)
    train.train(net, [(hr, lr)], train.TrainConfig(total_iters=1, batch_size=1, patch_size=4))


_PAIR_ENTRY_POINTS = {
    "load_dataset": _load_from_manifest,
    "check_dataset": lambda tmp_path, hr, lr: data.check_dataset([(hr, lr)], 2),
    "train": _train_one_step,
    "evaluate": lambda tmp_path, hr, lr: metrics.evaluate("bicubic", [(hr, lr)], 2),
    "sample_patch_pair": lambda tmp_path, hr, lr: data.sample_patch_pair(
        hr, lr, 2, 4, np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry", list(_PAIR_ENTRY_POINTS))
def test_every_entry_point_rejects_a_pair_off_the_extent_law(rng, tmp_path, entry):
    # an 8x7 low-res image under a 16x16 high-res one is not an x2 pair
    hr, lr = rand_image(rng, 16, 16), rand_image(rng, 8, 7)
    with pytest.raises(ShapeError, match="violates the x2 extent law"):
        _PAIR_ENTRY_POINTS[entry](tmp_path, hr, lr)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    entries = [("a/hr0.png", "b/lr0.png", 4), ("a/hr1.png", "b/lr1.png", 4)]
    path = tmp_path / "m.tsv"
    data.write_manifest(path, entries)
    assert data.read_manifest(path) == entries


def test_manifest_scale_error_names_file_and_line(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("hr0.png\tlr0.png\t2\nhr1.png\tlr1.png\tx2\n")
    want = f"{path}:2: scale 'x2' is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        data.read_manifest(path)


def test_manifest_rejects_empty(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("")
    with pytest.raises(ValueError):
        data.read_manifest(path)


def test_load_dataset_roundtrip(rng, tmp_path):
    scale = 2
    names = []
    for i in range(3):
        hr = data.modcrop(rand_image(rng, 20 + 2 * i, 24), scale)
        lr = data.degrade(hr, scale)
        png.write_png(tmp_path / f"hr{i}.png", hr)
        png.write_png(tmp_path / f"lr{i}.png", lr)
        names.append((f"hr{i}.png", f"lr{i}.png", scale))
    man = tmp_path / "train.tsv"
    data.write_manifest(man, names)
    pairs, got_scale = data.load_dataset(man)
    assert got_scale == scale and len(pairs) == 3
    for hr, lr in pairs:
        assert hr.shape[0] == lr.shape[0] * scale
