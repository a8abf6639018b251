"""Batch command-line front end.

Subcommands wire the library into reproducible workflows:

    dcfmn degrade  --in DIR --out DIR --scale N
    dcfmn train    --manifest FILE --out DIR [--model S|L|tiny] [...]
    dcfmn fuse     --in CKPT --out CKPT
    dcfmn eval     --manifest FILE --out DIR (--checkpoint CKPT | --model bicubic)
    dcfmn sr       --checkpoint CKPT --in PNG --out PNG
    dcfmn summary  --checkpoint CKPT [--json] [--flops]

Every run resolves its options (defaults < config file < explicit
flags) and, once its inputs are loaded and valid, echoes them as
``config key=value`` lines and writes them to a ``run-config-<command>.txt``
log next to the primary output. Errors exit nonzero with a single
``error: <reason>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data, metrics, model as M, train as T
from .loss import LossWeights

_VARIANTS = ("dsmu_plain3x3", "no_se", "no_self_residual")


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Keeps each option's action by flag name in ``options``, and raises a
    usage error as a CliError, so that it prints as one ``error:`` line."""

    def __init__(self, *args, **kwargs):
        self.options = {}  # before super().__init__, which adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest.replace("_", "-")] = action
        return action

    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# option resolution: "" < defaults < key=value config file < explicit flags
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict:
    """key -> (line number, value text) of a flat key=value file."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = (lineno, value.strip())
    return values


def _resolve(args, defaults: dict | None = None) -> dict:
    """The command's options keyed by flag name: each flag's value when given,
    else the --config file's, else the default's, else ""."""
    defaults = defaults or {}
    flags = {key.replace("_", "-"): value for key, value in vars(args).items()
             if key not in ("command", "func", "config", "options")}
    resolved = {key: defaults.get(key, "") for key in flags}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        unknown = sorted(set(file_values) - set(defaults))
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(unknown)}")
        for key, (lineno, text) in file_values.items():
            action = args.options[key]
            try:
                if isinstance(action, argparse._AppendAction):  # action="append": a,b
                    resolved[key] = [_convert(action, t) for t in text.split(",") if t]
                else:
                    resolved[key] = _convert(action, text)
            except ValueError as exc:
                raise CliError(f"{args.config}:{lineno}: {key}: {exc}") from None
    for key, value in flags.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _convert(action: argparse.Action, text: str):
    """A config-file value through its flag's own ``type`` and ``choices``."""
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _emit_run_config(resolved: dict, log_dir: str, command: str) -> None:
    lines = [f"command={command}"]
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    for line in lines:
        print(f"config {line}")
    os.makedirs(log_dir, exist_ok=True)
    log = os.path.join(log_dir, f"run-config-{command}.txt")
    with open(log, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _model_config(resolved: dict) -> M.ModelConfig:
    sizes = {"channels": resolved["channels"], "num_blocks": resolved["blocks"]}
    return M.preset_config(resolved["model"], resolved["scale"],
                           **{name: name in resolved["variant"] for name in _VARIANTS},
                           **{key: n for key, n in sizes.items() if n is not None})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_degrade(args) -> int:
    opts = _resolve(args)
    in_dir, out, scale = opts["in"], opts["out"], opts["scale"]
    names = sorted(n for n in os.listdir(in_dir) if n.lower().endswith(".png"))
    if not names:
        raise CliError(f"no PNG files in {in_dir!r}")
    _emit_run_config(opts, out, "degrade")
    hr_dir = os.path.join(out, "hr")
    lr_dir = os.path.join(out, "lr")
    os.makedirs(hr_dir, exist_ok=True)
    os.makedirs(lr_dir, exist_ok=True)
    entries = []
    failures = 0
    for name in names:
        try:
            hr = data.modcrop(data.read_png(os.path.join(in_dir, name)), scale)
            lr = data.degrade(hr, scale)
        except (OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        data.write_png(os.path.join(hr_dir, name), hr)
        data.write_png(os.path.join(lr_dir, name), lr)
        entries.append((os.path.join("hr", name), os.path.join("lr", name), scale))
    if not entries:
        raise CliError("every input file failed to degrade")
    manifest = os.path.join(out, "manifest.tsv")
    data.write_manifest(manifest, entries)
    print(f"degraded {len(entries)} images ({failures} failures) -> {manifest}")
    return 0


# option key -> TrainConfig field; the loss weights keep their own names
_TRAIN_FIELDS = {
    "seed": "seed", "iters": "total_iters", "batch": "batch_size",
    "patch": "patch_size", "trace-every": "trace_every",
    "lr-init": "lr_init", "lr-min": "lr_min",
}
_LOSS_FIELDS = ("lambda1", "lambda2")
_TRAIN_DEFAULTS = {
    # scale None takes the manifest's; channels and blocks None take the preset's
    "model": "S", "scale": None, "channels": None, "blocks": None, "variant": [], "save-every": 0,
    **{key: getattr(T.TrainConfig, name) for key, name in _TRAIN_FIELDS.items()},
    **{key: getattr(LossWeights, key) for key in _LOSS_FIELDS},
}


def cmd_train(args) -> int:
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    out = resolved["out"]
    pairs, manifest_scale = data.load_dataset(resolved["manifest"])
    if resolved["scale"] not in (None, manifest_scale):
        raise CliError(f"manifest is x{manifest_scale} but scale {resolved['scale']} given")
    resolved["scale"] = manifest_scale
    config = _model_config(resolved)
    resolved["channels"], resolved["blocks"] = config.channels, config.num_blocks
    tcfg = T.TrainConfig(
        **{name: resolved[key] for key, name in _TRAIN_FIELDS.items()},
        loss_weights=LossWeights(**{key: resolved[key] for key in _LOSS_FIELDS}),
    )
    data.check_dataset(pairs, manifest_scale, tcfg.patch_size)
    if resolved["save-every"] < 0:
        raise CliError(f"save-every must be >= 0, got {resolved['save-every']}")
    save_every = resolved["save-every"] or max(1, resolved["iters"] // 2)
    _emit_run_config(resolved, out, "train")
    net = M.init_model(config, seed=resolved["seed"])

    def save_snapshot(iteration, snap, snap_ema):
        ckpt.save_model(snap, os.path.join(out, f"model_iter{iteration:06d}.ckpt"))
        ckpt.save_model(snap_ema, os.path.join(out, f"model_iter{iteration:06d}_ema.ckpt"))

    final, shadow, trace = T.train(net, pairs, tcfg,
                                   checkpoint_every=save_every,
                                   checkpoint_fn=save_snapshot)
    ckpt.save_model(final, os.path.join(out, "model_final.ckpt"))
    ckpt.save_model(shadow, os.path.join(out, "model_ema.ckpt"))
    with open(os.path.join(out, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write(T.trace_csv(trace))
    print(f"trained {resolved['iters']} iterations; final loss "
          f"{trace[-1].total:.6f}; checkpoints in {out}")
    return 0


def _bundled_test_image(size=48) -> np.ndarray:
    """Deterministic synthetic image for self-comparisons (no data files)."""
    rng = np.random.default_rng(20240601)
    ramp = np.linspace(0, 1, size)
    base = 0.5 + 0.4 * np.sin(8.0 * ramp[None, :] + 3.0 * ramp[:, None])
    noise = 0.1 * rng.random((size, size))
    plane = np.clip(base + noise, 0.0, 1.0)
    return data.to_image8(np.stack([plane, 1.0 - plane, plane**2], axis=2))


def cmd_fuse(args) -> int:
    opts = _resolve(args)
    model = ckpt.load_model(opts["in"])
    _emit_run_config(opts, os.path.dirname(os.path.abspath(opts["out"])), "fuse")
    if model.fused:
        print("notice: checkpoint is already fused; copying unchanged")
        ckpt.save_model(model, opts["out"])
        return 0
    fused = M.fuse_model(model)
    ckpt.save_model(fused, opts["out"])

    before_p = M.count_params(model)
    after_p = M.count_params(fused)
    before_m = metrics.count_macs(model.config, fused=False)
    after_m = metrics.count_macs(model.config, fused=True)
    print(f"params: {before_p} -> {after_p}")
    print(f"macs@1280x720: {before_m} -> {after_m}")

    lr = _bundled_test_image()
    sr_a = metrics.super_resolve_image(model, lr)
    sr_b = metrics.super_resolve_image(fused, lr)
    diff = int(np.abs(sr_a.astype(int) - sr_b.astype(int)).max())
    print(f"parity spot-check on bundled image: max abs diff {diff} (quantization levels)")
    return 0


def cmd_eval(args) -> int:
    opts = _resolve(args)
    out, name = opts["out"], opts["dataset-name"]
    if opts["model"] and opts["checkpoint"]:
        raise CliError("give either --checkpoint or --model, not both")
    ckpt_path = opts["checkpoint"] or opts["model"]  # --model also accepts a checkpoint path
    if not ckpt_path:
        raise CliError("provide --checkpoint PATH or --model bicubic")
    pairs, scale = data.load_dataset(opts["manifest"])
    subject = "bicubic" if opts["model"] == "bicubic" else ckpt.load_model(ckpt_path)
    metrics.check_evaluation(subject, pairs, scale)
    if isinstance(subject, M.Model) and not subject.fused and not opts["no-fuse"]:
        subject = M.fuse_model(subject)
    _emit_run_config(opts, out, "eval")
    on_image = None
    if opts["dump-sr"]:
        dump = os.path.join(out, "sr")
        os.makedirs(dump, exist_ok=True)

        def on_image(idx, sr):
            data.write_png(os.path.join(dump, f"img{idx:03d}.png"), sr)

    report = metrics.evaluate(subject, pairs, scale, dataset_name=name, on_image=on_image)
    if opts["flops"]:
        report.macs *= 2
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(metrics.report_csv(report))
    with open(os.path.join(out, "report.md"), "w", encoding="utf-8") as fh:
        fh.write(metrics.report_markdown(report))
    print(f"{report.method} x{scale} on {name}: "
          f"PSNR {report.psnr_db:.4f} dB, SSIM {report.ssim:.6f}")
    return 0


def cmd_sr(args) -> int:
    opts = _resolve(args)
    model = ckpt.load_model(opts["checkpoint"])
    lr = data.read_png(opts["in"])
    _emit_run_config(opts, os.path.dirname(os.path.abspath(opts["out"])), "sr")
    try:
        sr = metrics.super_resolve_image(model, lr)
    except FloatingPointError as exc:
        raise CliError(f"{opts['in']}: {exc}") from None
    data.write_png(opts["out"], sr)
    s = model.config.scale
    print(f"{lr.shape[1]}x{lr.shape[0]} -> {sr.shape[1]}x{sr.shape[0]} (x{s})")
    return 0


def cmd_summary(args) -> int:
    model = ckpt.load_model(args.checkpoint)
    cfg = model.config
    rows = metrics.layer_table(cfg, fused=model.fused)
    unit = 2 if args.flops else 1
    total_macs = metrics.count_macs(cfg, fused=model.fused) * unit
    total_params = M.count_params(model)
    label = "flops" if args.flops else "macs"
    if args.json:
        payload = {
            "fused": model.fused,
            "config": {k: v for k, v in dataclasses.asdict(cfg).items() if k != "dtype"},
            "layers": [
                {"name": r.name, "params": r.params, label: r.macs * unit}
                for r in rows
            ],
            "params": total_params,
            label: total_macs,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    width = max(len(r.name) for r in rows)
    print(f"{'layer':<{width}}  {'params':>10}  {label + '@1280x720':>16}")
    for r in rows:
        print(f"{r.name:<{width}}  {r.params:>10}  {r.macs * unit:>16}")
    print(f"{'total':<{width}}  {total_params:>10}  {total_macs:>16}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcfmn", description="lightweight super-resolution: degrade, "
                                               "train, fuse, evaluate, upscale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="modcrop + bicubic-downscale a PNG directory")
    p.add_argument("--in", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--scale", type=int, choices=M.SCALES, required=True)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("train", help="train a model from a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--config", help="flat key=value option file")
    p.add_argument("--model", choices=("S", "L", "tiny"),
                   help="preset: S=10 blocks, L=16 blocks, tiny=16ch/2 blocks (default S)")
    p.add_argument("--scale", type=int, choices=M.SCALES)
    p.add_argument("--variant", action="append", choices=_VARIANTS)
    for name in ("seed", "iters", "batch", "patch", "channels", "blocks",
                 "save-every", "trace-every"):
        p.add_argument(f"--{name}", type=int)
    for name in ("lambda1", "lambda2", "lr-init", "lr-min"):
        p.add_argument(f"--{name}", type=float)
    p.set_defaults(func=cmd_train, options=p.options)

    p = sub.add_parser("fuse", help="collapse a checkpoint to inference form")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="Y-channel PSNR/SSIM over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--checkpoint")
    p.add_argument("--model", help="'bicubic' for the baseline, or a checkpoint path")
    p.add_argument("--dataset-name", default="dataset")
    p.add_argument("--dump-sr", action="store_true")
    p.add_argument("--no-fuse", action="store_true",
                   help="evaluate the raw (training-form) weights")
    p.add_argument("--flops", action="store_true",
                   help="report FLOPs (2x MACs) in the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sr", help="super-resolve one PNG")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sr)

    p = sub.add_parser("summary", help="layer table, params, MACs of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--flops", action="store_true")
    p.set_defaults(func=cmd_summary)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # uniform one-line failure contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
