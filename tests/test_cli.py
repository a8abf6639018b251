import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dcfmn import checkpoint as ckpt
from dcfmn import cli, data, metrics
from dcfmn import model as M


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def image_dir(tmp_path, rng):
    src = tmp_path / "imgs"
    src.mkdir()
    for i in range(3):
        smooth = data.bicubic_resize(rng.random((41 + i, 38)), 41 + i, 38)
        img = data.to_image8(np.stack([smooth] * 3, axis=2))
        data.write_png(src / f"im{i}.png", img)
    return src


@pytest.fixture
def degraded(tmp_path, image_dir, capsys):
    out = tmp_path / "ds"
    code, _, err = run_cli(capsys, "degrade", "--in", str(image_dir),
                           "--out", str(out), "--scale", "2")
    assert code == 0, err
    return out


def _train_args(degraded, out, extra=()):
    return ["train", "--manifest", str(degraded / "manifest.tsv"),
            "--out", str(out), "--model", "tiny", "--iters", "4",
            "--batch", "2", "--patch", "8", "--seed", "9",
            "--save-every", "2", *extra]


# ---------------------------------------------------------------------------
# degrade
# ---------------------------------------------------------------------------


def test_degrade_outputs_and_manifest(degraded):
    entries = data.read_manifest(degraded / "manifest.tsv")
    assert len(entries) == 3
    pairs, scale = data.load_dataset(degraded / "manifest.tsv")
    assert scale == 2
    for hr, lr in pairs:
        assert hr.shape[0] == 2 * lr.shape[0]
        assert hr.shape[0] % 2 == 0  # modcropped
    assert (degraded / "run-config-degrade.txt").exists()


def test_degrade_idempotent(tmp_path, image_dir, capsys):
    out = tmp_path / "d1"
    run_cli(capsys, "degrade", "--in", str(image_dir), "--out", str(out),
            "--scale", "2")
    first = {p.name: p.read_bytes() for p in (out / "lr").iterdir()}
    run_cli(capsys, "degrade", "--in", str(image_dir), "--out", str(out),
            "--scale", "2")
    second = {p.name: p.read_bytes() for p in (out / "lr").iterdir()}
    assert first == second


def test_degrade_continues_past_bad_file(tmp_path, image_dir, capsys):
    (image_dir / "broken.png").write_bytes(b"not a png")
    out = tmp_path / "d2"
    code, stdout, err = run_cli(capsys, "degrade", "--in", str(image_dir),
                                "--out", str(out), "--scale", "2")
    assert code == 0
    assert "broken.png" in err
    assert len(data.read_manifest(out / "manifest.tsv")) == 3


def test_degrade_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run_cli(capsys, "degrade", "--in", str(empty),
                           "--out", str(tmp_path / "x"), "--scale", "2")
    assert code == 1
    assert err.startswith("error: ")
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_artifacts(tmp_path, degraded, capsys):
    out = tmp_path / "run"
    code, stdout, err = run_cli(capsys, *_train_args(degraded, out))
    assert code == 0, err
    assert (out / "model_final.ckpt").exists()
    assert (out / "model_ema.ckpt").exists()
    assert (out / "model_iter000002.ckpt").exists()
    assert (out / "model_iter000002_ema.ckpt").exists()
    assert (out / "trace.csv").exists()
    assert (out / "run-config-train.txt").exists()
    assert "config seed=9" in stdout
    m = ckpt.load_model(out / "model_final.ckpt")
    assert m.config.channels == 16 and m.config.num_blocks == 2


def test_train_byte_identical_reruns(tmp_path, degraded, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, err = run_cli(capsys, *_train_args(degraded, out))
        assert code == 0, err
        outs.append(out)
    for fname in ("trace.csv", "model_final.ckpt", "model_ema.ckpt",
                  "model_iter000002.ckpt", "model_iter000002_ema.ckpt"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_train_diverging_run_fails_without_checkpoints(tmp_path, degraded, capsys):
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, *_train_args(degraded, out, ("--lr-init", "1e8")))
    assert code == 1
    assert err.startswith("error: non-finite ") and err.count("\n") == 1
    assert "at iteration 1" in err
    assert not list(out.glob("*.ckpt")) and not (out / "trace.csv").exists()


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_train_rejects_non_finite_learning_rate(tmp_path, degraded, capsys):
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, *_train_args(degraded, out, ("--lr-init", "nan")))
    assert code == 1
    assert err.startswith("error: lr_init must be finite") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value, reason", [
    ("--channels", "6", "channels must be a positive multiple of 4"),
    ("--patch", "100", "patch 100 exceeds low-res image 0"),
    ("--save-every", "-2", "save-every must be >= 0"),
], ids=["channels", "patch", "save-every"])
def test_train_rejected_option_writes_nothing(tmp_path, degraded, capsys,
                                              flag, value, reason):
    out = tmp_path / "run"
    code, stdout, err = run_cli(capsys, *_train_args(degraded, out, (flag, value)))
    assert code == 1
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1
    assert stdout == "" and not out.exists()


def test_train_preset_block_counts(tmp_path, degraded, capsys):
    out = tmp_path / "s_run"
    code, _, err = run_cli(capsys, "train", "--manifest",
                           str(degraded / "manifest.tsv"), "--out", str(out),
                           "--model", "S", "--iters", "1", "--batch", "1",
                           "--patch", "8", "--channels", "8")
    assert code == 0, err
    assert ckpt.load_model(out / "model_final.ckpt").config.num_blocks == 10
    out2 = tmp_path / "l_run"
    code, _, err = run_cli(capsys, "train", "--manifest",
                           str(degraded / "manifest.tsv"), "--out", str(out2),
                           "--model", "L", "--iters", "1", "--batch", "1",
                           "--patch", "8", "--channels", "8")
    assert code == 0, err
    assert ckpt.load_model(out2 / "model_final.ckpt").config.num_blocks == 16


def test_train_config_file_and_flag_precedence(tmp_path, degraded, capsys):
    cfgfile = tmp_path / "opts.cfg"
    cfgfile.write_text("iters=3\nseed=4\nbatch=1\npatch=8\nmodel=tiny\n")
    out = tmp_path / "cfg_run"
    code, stdout, err = run_cli(capsys, "train", "--manifest",
                                str(degraded / "manifest.tsv"), "--out", str(out),
                                "--config", str(cfgfile), "--seed", "11")
    assert code == 0, err
    assert "config iters=3" in stdout  # from file
    assert "config seed=11" in stdout  # flag wins over file
    log = (out / "run-config-train.txt").read_text()
    assert "seed=11" in log and "iters=3" in log


def test_train_rejects_unknown_config_key(tmp_path, degraded, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("bogus_key=1\n")
    code, _, err = run_cli(capsys, "train", "--manifest",
                           str(degraded / "manifest.tsv"),
                           "--out", str(tmp_path / "x"), "--config", str(cfgfile))
    assert code == 1
    assert "unknown config keys" in err


def test_train_config_value_error_names_file_line_and_key(tmp_path, degraded, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("iters=3\n# a comment\ntrace-every=abc\n")
    out = tmp_path / "x"
    code, _, err = run_cli(capsys, "train", "--manifest",
                           str(degraded / "manifest.tsv"),
                           "--out", str(out), "--config", str(cfgfile))
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {cfgfile}:3: trace-every: ")
    assert "'abc'" in err
    assert not out.exists()


def test_train_rejects_scale_mismatch(tmp_path, degraded, capsys):
    code, _, err = run_cli(capsys, "train", "--manifest",
                           str(degraded / "manifest.tsv"),
                           "--out", str(tmp_path / "x"), "--scale", "4",
                           "--model", "tiny", "--iters", "1")
    assert code == 1
    assert "error: " in err and "x2" in err


def test_train_variant_flag(tmp_path, degraded, capsys):
    out = tmp_path / "var_run"
    code, _, err = run_cli(capsys, *_train_args(degraded, out,
                                                ("--variant", "no_se")))
    assert code == 0, err
    assert ckpt.load_model(out / "model_final.ckpt").config.no_se is True


def test_train_takes_scale_from_manifest(tmp_path, image_dir, capsys):
    # an x4 manifest trains without any --scale flag
    ds = tmp_path / "ds4"
    code, _, err = run_cli(capsys, "degrade", "--in", str(image_dir),
                           "--out", str(ds), "--scale", "4")
    assert code == 0, err
    out = tmp_path / "run4"
    code, _, err = run_cli(capsys, "train", "--manifest",
                           str(ds / "manifest.tsv"), "--out", str(out),
                           "--model", "tiny", "--iters", "2", "--batch", "1",
                           "--patch", "8")
    assert code == 0, err
    assert ckpt.load_model(out / "model_final.ckpt").config.scale == 4


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


@pytest.fixture
def trained(tmp_path, degraded, capsys):
    out = tmp_path / "trained"
    code, _, err = run_cli(capsys, *_train_args(degraded, out))
    assert code == 0, err
    return out


def test_fuse_reports_and_writes(tmp_path, trained, capsys):
    fused_path = tmp_path / "fused.ckpt"
    code, stdout, err = run_cli(capsys, "fuse", "--in",
                                str(trained / "model_ema.ckpt"),
                                "--out", str(fused_path))
    assert code == 0, err
    assert "params:" in stdout and "macs@1280x720:" in stdout
    assert "parity spot-check" in stdout
    fused = ckpt.load_model(fused_path)
    assert fused.fused
    raw = ckpt.load_model(trained / "model_ema.ckpt")
    assert M.count_params(fused) <= M.count_params(raw)


def test_fuse_double_is_noop(tmp_path, trained, capsys):
    once = tmp_path / "f1.ckpt"
    twice = tmp_path / "f2.ckpt"
    run_cli(capsys, "fuse", "--in", str(trained / "model_ema.ckpt"),
            "--out", str(once))
    code, stdout, _ = run_cli(capsys, "fuse", "--in", str(once),
                              "--out", str(twice))
    assert code == 0
    assert "already fused" in stdout
    assert once.read_bytes() == twice.read_bytes()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ["bicubic", "other.ckpt"])
def test_eval_rejects_checkpoint_with_model(tmp_path, degraded, model, capsys):
    out = tmp_path / "ev"
    code, stdout, err = run_cli(capsys, "eval", "--manifest", str(degraded / "manifest.tsv"),
                                "--out", str(out), "--model", model,
                                "--checkpoint", str(tmp_path / "missing.ckpt"))
    assert code == 1
    assert err == "error: give either --checkpoint or --model, not both\n"
    assert not out.exists()


def test_eval_bicubic_report(tmp_path, degraded, capsys):
    out = tmp_path / "ev"
    code, stdout, err = run_cli(capsys, "eval", "--manifest",
                                str(degraded / "manifest.tsv"), "--out", str(out),
                                "--model", "bicubic", "--dataset-name", "toy")
    assert code == 0, err
    csv = (out / "report.csv").read_text()
    assert csv.splitlines()[0] == "method,scale,params,macs,dataset,psnr_db,ssim"
    assert "bicubic,2,0,0,toy," in csv
    assert (out / "report.md").read_text().count("|") >= 10
    assert "PSNR" in stdout


def test_eval_checkpoint_and_dumps(tmp_path, trained, degraded, capsys, monkeypatch):
    calls = []
    forward = metrics.model_forward

    def counting_forward(model, x):
        calls.append(x.shape)
        return forward(model, x)

    monkeypatch.setattr(metrics, "model_forward", counting_forward)
    out = tmp_path / "ev2"
    code, _, err = run_cli(capsys, "eval", "--manifest",
                           str(degraded / "manifest.tsv"), "--out", str(out),
                           "--checkpoint", str(trained / "model_ema.ckpt"),
                           "--dump-sr")
    assert code == 0, err
    dumps = sorted(os.listdir(out / "sr"))
    assert dumps == ["img000.png", "img001.png", "img002.png"]
    assert len(calls) == 3  # one forward per image, shared by scoring and dump
    first = data.read_png(out / "sr" / "img000.png")
    pairs, _ = data.load_dataset(degraded / "manifest.tsv")
    assert first.shape == pairs[0][0].shape


def test_eval_requires_subject(tmp_path, degraded, capsys):
    code, _, err = run_cli(capsys, "eval", "--manifest",
                           str(degraded / "manifest.tsv"),
                           "--out", str(tmp_path / "x"))
    assert code == 1 and "error: " in err
    assert not (tmp_path / "x").exists()


def test_eval_scale_mismatch(tmp_path, degraded, trained, capsys):
    # build an x4 checkpoint against the x2 manifest
    wrong = M.init_model(M.ModelConfig(scale=4, channels=8, num_blocks=1), 0)
    path = tmp_path / "wrong.ckpt"
    ckpt.save_model(wrong, path)
    code, _, err = run_cli(capsys, "eval", "--manifest",
                           str(degraded / "manifest.tsv"),
                           "--out", str(tmp_path / "y"), "--checkpoint", str(path))
    assert code == 1 and err == "error: model is x4, dataset is x2\n"
    assert not (tmp_path / "y").exists()


# ---------------------------------------------------------------------------
# sr
# ---------------------------------------------------------------------------


def test_sr_single_image(tmp_path, trained, degraded, capsys):
    pairs, _ = data.load_dataset(degraded / "manifest.tsv")
    lr_path = tmp_path / "lr.png"
    data.write_png(lr_path, pairs[0][1])
    out_path = tmp_path / "sr.png"
    code, stdout, err = run_cli(capsys, "sr", "--checkpoint",
                                str(trained / "model_ema.ckpt"),
                                "--in", str(lr_path), "--out", str(out_path))
    assert code == 0, err
    sr = data.read_png(out_path)
    assert sr.shape[0] == pairs[0][1].shape[0] * 2

    # determinism
    again = tmp_path / "sr2.png"
    run_cli(capsys, "sr", "--checkpoint", str(trained / "model_ema.ckpt"),
            "--in", str(lr_path), "--out", str(again))
    assert out_path.read_bytes() == again.read_bytes()


def test_sr_rejects_non_png_input_writes_nothing(tmp_path, capsys):
    net = tmp_path / "net.ckpt"
    ckpt.save_model(M.init_model(M.preset_config("tiny", 2), 0), net)
    bad = tmp_path / "not_a.png"
    bad.write_bytes(b"JFIF not a png")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, stdout, err = run_cli(capsys, "sr", "--checkpoint", str(net), "--in", str(bad),
                                "--out", str(out_dir / "sr.png"))
    assert code == 1
    assert err == "error: not a PNG stream (bad signature)\n"
    assert stdout == "" and os.listdir(out_dir) == []


@pytest.fixture
def overflowing(tmp_path):
    """A finite tiny x2 checkpoint whose forward overflows float32."""
    net = M.init_model(M.preset_config("tiny", 2), 0)
    for value in net.params.values():
        value *= 1e12
    path = tmp_path / "overflowing.ckpt"
    ckpt.save_model(net, path)
    return path


@pytest.mark.filterwarnings("error")
def test_sr_refuses_non_finite_output(tmp_path, degraded, overflowing, capsys):
    lr_path = degraded / "lr" / sorted(os.listdir(degraded / "lr"))[0]
    out_path = tmp_path / "sr.png"
    code, _, err = run_cli(capsys, "sr", "--checkpoint", str(overflowing),
                           "--in", str(lr_path), "--out", str(out_path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(lr_path) in err and "not finite" in err
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
def test_eval_refuses_non_finite_output(tmp_path, degraded, overflowing, capsys):
    out = tmp_path / "ev"
    code, _, err = run_cli(capsys, "eval", "--manifest", str(degraded / "manifest.tsv"),
                           "--out", str(out), "--checkpoint", str(overflowing),
                           "--dump-sr")
    assert code == 1
    assert err.startswith("error: img000: ") and err.count("\n") == 1
    assert "not finite" in err
    assert not (out / "report.csv").exists() and not (out / "report.md").exists()
    assert os.listdir(out / "sr") == []


def test_sr_fused_vs_raw_within_one_level(tmp_path, trained, degraded, capsys):
    # fusion is exact over the whole image, SE gate included, so the raw and
    # fused checkpoints quantize to within one level at every pixel
    fused_ckpt = tmp_path / "fz.ckpt"
    run_cli(capsys, "fuse", "--in", str(trained / "model_ema.ckpt"),
            "--out", str(fused_ckpt))
    for name in sorted(os.listdir(degraded / "lr")):
        lr_path = degraded / "lr" / name
        a_path, b_path = tmp_path / "a.png", tmp_path / "b.png"
        run_cli(capsys, "sr", "--checkpoint", str(trained / "model_ema.ckpt"),
                "--in", str(lr_path), "--out", str(a_path))
        run_cli(capsys, "sr", "--checkpoint", str(fused_ckpt),
                "--in", str(lr_path), "--out", str(b_path))
        a = data.read_png(a_path).astype(int)
        b = data.read_png(b_path).astype(int)
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1, name


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def test_summary_table_and_totals(trained, capsys):
    code, stdout, err = run_cli(capsys, "summary", "--checkpoint",
                                str(trained / "model_final.ckpt"))
    assert code == 0, err
    lines = stdout.strip().splitlines()
    assert lines[0].split()[:2] == ["layer", "params"]
    total_line = lines[-1].split()
    m = ckpt.load_model(trained / "model_final.ckpt")
    from dcfmn import metrics
    assert int(total_line[1]) == M.count_params(m)
    assert int(total_line[2]) == metrics.count_macs(m.config, fused=m.fused)


def test_summary_json_roundtrip(trained, capsys):
    code, stdout, _ = run_cli(capsys, "summary", "--checkpoint",
                              str(trained / "model_final.ckpt"), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["params"] > 0
    assert payload["macs"] == sum(l["macs"] for l in payload["layers"])
    assert json.loads(json.dumps(payload)) == payload


def test_summary_flops_doubles(trained, capsys):
    _, plain, _ = run_cli(capsys, "summary", "--checkpoint",
                          str(trained / "model_final.ckpt"), "--json")
    _, doubled, _ = run_cli(capsys, "summary", "--checkpoint",
                            str(trained / "model_final.ckpt"), "--json", "--flops")
    assert json.loads(doubled)["flops"] == 2 * json.loads(plain)["macs"]


def test_cli_import_leaves_scipy_special_and_fft_unloaded():
    """scipy.special (float64 GELU) and scipy.fft (large float32 depthwise
    kernels) load on first use, not on import: not by the CLI, nor by the
    modules a training or inference run imports before its first step."""
    code = ("import sys, dcfmn.cli, dcfmn.train, dcfmn.data, dcfmn.metrics; "
            "print(sorted(m for m in ('scipy.special', 'scipy.fft') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_nonexistent_checkpoint_one_line_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "summary", "--checkpoint",
                           str(tmp_path / "missing.ckpt"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
