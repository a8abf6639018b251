"""One benchmark workload in one role, run as a child process of run.py.

    python3 perfbench/workload.py ROLE --workload NAME --seed N --seconds S \
        --trace {0,1} --t0 MONOTONIC --key SOURCE_HASH

ROLE is one of
  setup  build the workload's inputs, then exit (one set-up time sample);
  run    build them, run one warm-up operation and time operations for S
         seconds; with --trace 1, S/2 seconds untraced, then S/2 traced;
  check  compare what ``run`` saved against a float64 reference computed
         from the same seed, cached per seed under perfbench/.work.
Each role prints one JSON object as the last line of its standard output.

The process imports the library only through ``sys.path`` (run.py puts the
checkout's ``src`` on PYTHONPATH) and calls it through module attributes, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

import numpy as np
import scipy

from dcfmn import checkpoint, data, metrics, model, nn, png, train
from dcfmn.loss import LossWeights

import tracer as tr

WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

SR_SCALE = 4
SR_OUT = (720, 1280)
# A frame passes when every pixel is within this many 8-bit levels of the
# float64 forward of the same weights and input.
SR_LEVELS = 2
# Random-init S outputs span about +-80; scaling the tail conv keeps them
# inside [0, 1], so the 8-bit check compares real pixels, not clipped ones.
# The cost of a forward does not depend on weight values.
SR_TAIL_GAIN = 0.004
# The training loss after step TRAIN_CHECK_STEP (or the last step, in a run
# that made fewer) must match a float64 run of the same seed within this
# relative error. A fixed step keeps the float64 re-run short and cacheable per
# seed; checking the last step would re-run the whole timed window.
TRAIN_LOSS_RTOL = 1e-3
TRAIN_CHECK_STEP = 32


def mosaic(rng, h, w, rects, side):
    """Palette rectangles with even-aligned edges over a flat background."""
    palette = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    img = np.zeros((h, w, 3)) + rng.choice(palette, size=3)
    for _ in range(rects):
        y0 = 2 * int(rng.integers(0, (h - 8) // 2))
        x0 = 2 * int(rng.integers(0, (w - 8) // 2))
        hh = 2 * int(rng.integers(3, side))
        ww = 2 * int(rng.integers(3, side))
        img[y0:y0 + hh, x0:x0 + ww] = rng.choice(palette, size=3)
    return img


# -- train-x2-tiny -------------------------------------------------------------


@dataclasses.dataclass
class TrainInputs:
    net: model.Model
    pairs: list
    config: train.TrainConfig


def build_train(seed, dtype="float32"):
    """The acceptance-5 set-up with augmentation on: 16 channels x 2 blocks
    at x2, batch 8, LR patch 32, eight 64x64 mosaics."""
    rng = np.random.default_rng(seed)
    hrs = [data.to_image8(mosaic(rng, 64, 64, 12, 14)) for _ in range(8)]
    pairs = [(hr, data.degrade(hr, 2)) for hr in hrs]
    cfg = model.ModelConfig(scale=2, channels=16, num_blocks=2, dtype=dtype)
    net = model.init_model(cfg, seed)
    config = train.TrainConfig(total_iters=2000, batch_size=8, patch_size=32, seed=seed,
                               loss_weights=LossWeights(1.0, 0.05), augment=True)
    return TrainInputs(net, pairs, config)


class _Stop(Exception):
    """Ends train.train from the step hook once the run has measured enough."""


def train_steps(inputs, on_step):
    """Run train.train, calling ``on_step(loss, grads_finite)`` when each
    iteration ends; the loop stops when it returns False. The hooks replace
    the names train.train looks up and wrap whatever sits there (the tracer's
    wrappers, in a traced run)."""
    names = ("composite_loss_detailed", "adam_step", "ema_update")
    inner = {name: getattr(train, name) for name in names}
    step = {}

    def loss_hook(*args, **kwargs):
        out = inner["composite_loss_detailed"](*args, **kwargs)
        step["loss"] = out[0]
        return out

    def adam_hook(state, grads, *args, **kwargs):
        step["grads_finite"] = all(bool(np.isfinite(g).all()) for g in grads.values())
        return inner["adam_step"](state, grads, *args, **kwargs)

    def ema_hook(*args, **kwargs):
        out = inner["ema_update"](*args, **kwargs)
        if not on_step(step.pop("loss"), step.pop("grads_finite")):
            raise _Stop
        return out

    train.composite_loss_detailed, train.adam_step, train.ema_update = (
        loss_hook, adam_hook, ema_hook)
    try:
        train.train(inputs.net, inputs.pairs, inputs.config)
    except _Stop:
        pass
    finally:
        for name in names:
            setattr(train, name, inner[name])


# -- sr-raw-720p / sr-fused-720p -------------------------------------------------


@dataclasses.dataclass
class SrInputs:
    net: model.Model
    hr: np.ndarray
    lr_png: bytes
    warm_hr: np.ndarray
    warm_lr_png: bytes


def build_sr(seed, fused):
    """S preset at x4, one 320x180 LR PNG degraded from a 1280x720 mosaic, the
    weights round-tripped through a checkpoint and fused when asked. The warm-up
    frame is the top-left 80x45 of the same LR image."""
    rng = np.random.default_rng(seed)
    hr_real = mosaic(rng, *SR_OUT, 240, 60) + rng.normal(0.0, 0.02, SR_OUT + (3,))
    hr = data.to_image8(hr_real)
    lr = data.degrade(hr, SR_SCALE)
    net = model.init_model(model.preset_config("S", SR_SCALE), seed)
    net.params["tail.weight"] *= SR_TAIL_GAIN
    net.params["tail.bias"] += 0.5
    net = checkpoint.model_from_bytes(checkpoint.model_to_bytes(net))
    if fused:
        net = model.fuse_model(net)
    wh, ww = SR_OUT[0] // (4 * SR_SCALE), SR_OUT[1] // (4 * SR_SCALE)
    return SrInputs(net, hr, png.encode_png(lr), hr[:wh * SR_SCALE, :ww * SR_SCALE],
                    png.encode_png(np.ascontiguousarray(lr[:wh, :ww])))


def sr_frame(net, lr_png, hr):
    """decode -> super-resolve -> encode -> PSNR and SSIM against the HR frame."""
    sr = metrics.super_resolve_image(net, png.decode_png(lr_png))
    blob = png.encode_png(sr)
    quality = (metrics.psnr(sr, hr, SR_SCALE), metrics.ssim(sr, hr, SR_SCALE))
    return sr, blob, quality


def frame_ok(sr, blob, quality):
    psnr, ssim = quality
    return (sr.shape == SR_OUT + (3,) and sr.dtype == np.uint8
            and np.array_equal(png.decode_png(blob), sr)
            and math.isfinite(psnr) and psnr <= metrics.PSNR_CAP
            and math.isfinite(ssim) and -1.0 <= ssim <= 1.0)


def float64_twin(net):
    cfg = dataclasses.replace(net.config, dtype="float64")
    return model.Model(cfg, {k: v.astype(np.float64) for k, v in net.params.items()}, net.fused)


def reference_conv2d(x, weight, bias, spec):
    """Float64 zero-padded "same" cross-correlation written apart from
    dcfmn.nn, so that the SR check does not trust the kernels it checks:
    large depthwise kernels by FFT, everything else one kernel tap at a time."""
    import scipy.signal  # only the check role needs it; it adds ~1 s of import

    x = np.asarray(x, np.float64)
    weight = np.asarray(weight, np.float64)
    n, c, h, w = x.shape
    k, d, g = spec.kernel, spec.dilation, spec.groups
    cg, og = c // g, spec.out_channels // g
    if cg == og == 1 and k > 5:
        span = d * (k - 1) + 1
        dense = np.zeros((1, c, span, span))
        dense[0, :, ::d, ::d] = weight[:, 0]
        out = scipy.signal.fftconvolve(x, dense[:, :, ::-1, ::-1], mode="same", axes=(2, 3))
    else:
        p = spec.padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        wg = weight.reshape(g, og, cg, k, k)
        out = np.zeros((n, g, og, h * w))
        for i in range(k):
            for j in range(k):
                tap = xp[:, :, i * d:i * d + h, j * d:j * d + w].reshape(n, g, cg, h * w)
                if cg == og == 1:
                    out += wg[:, :, :, i, j] * tap
                else:
                    out += wg[:, :, :, i, j] @ tap
        out = out.reshape(n, spec.out_channels, h, w)
    return out if bias is None else out + bias


# -- workloads -------------------------------------------------------------------

TRAIN_TABLE = [
    ("dcfmn.train", "model_forward_cached", "model.forward", tr.count_cache),
    ("dcfmn.train", "model_backward_from_cache", "model.backward", None),
    ("dcfmn.train", "composite_loss_detailed", "loss.composite_loss_detailed", None),
    ("dcfmn.train", "adam_step", "train.adam_step", None),
    ("dcfmn.train", "ema_update", "train.ema_update", None),
    ("dcfmn.train", "sample_patch_pair", "data.sample_patch_pair", None),
    ("dcfmn.train", "to_real", "data.to_real", None),
    ("dcfmn.loss", "dft2d_batch", "fourier.dft2d_batch", tr.count_planes),
    ("dcfmn.loss", "idft2d_batch", "fourier.idft2d_batch", tr.count_planes),
    ("dcfmn.data", "degrade", "data.degrade", None),
]

SR_TABLE = [
    ("dcfmn.metrics", "model_forward", "model.forward", None),
    ("dcfmn.model", "model_forward_cached", None, tr.count_cache),
    ("dcfmn.metrics", "super_resolve_image", "metrics.super_resolve_image", None),
    ("dcfmn.metrics", "psnr", "metrics.psnr", None),
    ("dcfmn.metrics", "ssim", "metrics.ssim", None),
    ("dcfmn.data", "to_real", "data.to_real", None),
    ("dcfmn.data", "to_image8", "data.to_image8", None),
    ("dcfmn.data", "degrade", "data.degrade", None),
    ("dcfmn.png", "encode_png", "png.encode_png", tr.count_png_bytes),
    ("dcfmn.png", "decode_png", "png.decode_png", None),
    ("dcfmn.checkpoint", "model_from_bytes", "checkpoint.model_from_bytes",
     tr.count_checkpoint_bytes),
    ("dcfmn.model", "fuse_model", "model.fuse_model", None),
    ("dcfmn.model", "compose_stack_to_dense", "reparam.compose_stack_to_dense", None),
    ("dcfmn.model", "fuse_parallel_3x3", "reparam.fuse_parallel_3x3", None),
]

_NN_COMMON = ["nn.gelu", "nn.layer_norm", "nn.se_block", "nn.pixel_shuffle",
              "nn.conv2d.pw", "nn.conv2d.dense.k3"]
_SR_COMMON = _NN_COMMON + [
    "model.forward", "metrics.super_resolve_image", "metrics.psnr", "metrics.ssim",
    "data.to_real", "data.to_image8", "data.degrade", "png.encode_png", "png.decode_png",
    "checkpoint.model_from_bytes"]

# Spans each workload must record at least once (set-up or traced ops).
DECLARED_SPANS = {
    "train-x2-tiny": _NN_COMMON + [
        "nn.conv2d.dw.k3", "nn.conv2d_vjp.pw", "nn.conv2d_vjp.dense.k3",
        "nn.conv2d_vjp.dw.k3", "nn.gelu_vjp", "nn.layer_norm_vjp", "nn.se_block_vjp",
        "nn.pixel_shuffle_vjp", "model.forward", "model.backward",
        "fourier.dft2d_batch", "fourier.idft2d_batch", "loss.composite_loss_detailed",
        "train.adam_step", "train.ema_update", "data.sample_patch_pair", "data.to_real",
        "data.degrade"],
    "sr-raw-720p": _SR_COMMON + ["nn.conv2d.dw.k3"],
    "sr-fused-720p": _SR_COMMON + [
        "nn.conv2d.dw.k5", "nn.conv2d.dw.k7", "nn.conv2d.dw.k13", "nn.conv2d.dw.k17",
        "model.fuse_model", "reparam.compose_stack_to_dense", "reparam.fuse_parallel_3x3"],
}

WORKLOADS = tuple(DECLARED_SPANS)


def build(workload, seed):
    if workload == "train-x2-tiny":
        return build_train(seed)
    return build_sr(seed, fused=workload == "sr-fused-720p")


class Phases:
    """Op 0 is the warm-up; then untraced ops until ``seconds`` of them are
    timed. With a tracer, the window is split in two halves: untraced ops, then
    traced ones, so a traced run of the fused 720p frame (one frame per half)
    stays inside the per-run time limit."""

    def __init__(self, seconds, tracer=None):
        self.seconds = seconds if tracer is None else seconds / 2
        self.tracer = tracer
        self.ops = 0
        self.times = {False: [], True: []}
        self.traced_ops = []
        self.traced = False
        self._spent = 0.0
        if tracer is not None:
            tracer.enabled = False

    def done(self, dt) -> bool:
        """Record the op that just ended; return False when the run is over."""
        more = True
        if self.ops:
            self.times[self.traced].append(dt)
            if self.traced:
                self.traced_ops.append(self.ops)
            self._spent += dt
            if self._spent >= self.seconds:
                if self.traced or self.tracer is None:
                    more = False
                self.traced, self._spent = True, 0.0
        self.ops += 1
        if self.tracer is not None:
            self.tracer.enabled = self.traced and more
            self.tracer.op = self.ops
        return more


def out_path(args, ext):
    return os.path.join(WORK, f"out-{args.workload}-s{args.seed}-t{args.trace}.{ext}")


def run_ops(args, inputs, phases):
    """Time the workload's operations; returns (failed op indices, outputs)."""
    failed = []
    if args.workload == "train-x2-tiny":
        losses = []
        last = [perf_counter()]

        def on_step(loss, grads_finite):
            now = perf_counter()
            if not (math.isfinite(loss) and grads_finite):
                failed.append(len(losses))
            losses.append(float(loss))
            more = phases.done(now - last[0])
            last[0] = now
            return more

        try:
            train_steps(inputs, on_step)
        except Exception:
            traceback.print_exc()
            failed.append(len(losses))
        return failed, {"losses": losses}

    frames = []
    while True:
        warm = phases.ops == 0
        start = perf_counter()
        try:
            if warm:
                result = sr_frame(inputs.net, inputs.warm_lr_png, inputs.warm_hr)
            else:
                result = sr_frame(inputs.net, inputs.lr_png, inputs.hr)
        except Exception:
            traceback.print_exc()
            failed.append(phases.ops)
            break
        dt = perf_counter() - start
        if not warm:
            frames.append((phases.ops, result))
        if not phases.done(dt):
            break
    for op, result in frames:
        if not frame_ok(*result):
            failed.append(op)
    return failed, {"ops": [op for op, _ in frames],
                    "frames": np.stack([result[0] for _, result in frames])
                    if frames else None}


def traced_checks(args, inputs, tracer, table, traced_ops):
    """Span coverage, the MAC cross-check and exact counters; returns errors."""
    errors = []
    seen = {}
    for op_row in table.values():
        for key, value in op_row.items():
            if key.endswith(".calls"):
                seen[key[:-6]] = seen.get(key[:-6], 0) + value
    for span in DECLARED_SPANS[args.workload]:
        if not seen.get(span):
            errors.append(f"declared span {span} recorded no calls")
    if args.workload != "train-x2-tiny":
        expected = sum(row.macs for row in metrics.layer_table(inputs.net.config, inputs.net.fused)
                       if not row.name.endswith((".ln1", ".ln2", ".se")))
        for op in traced_ops:
            got = sum(v for k, v in table[op].items()
                      if k.startswith("nn.conv2d.") and k.endswith(".macs"))
            if got != expected:
                errors.append(f"op {op}: traced conv MACs {got} != layer_table {expected}")
    counters = {}
    for key in tr.EXACT_COUNTERS:
        values = {table[op].get(key, 0) for op in traced_ops}
        if len(values) != 1:
            errors.append(f"counter {key} differs between ops: {sorted(values)}")
        counters[key] = max(values)
    record = os.path.join(WORK, f"counters-{args.workload}-{args.key}.json")
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counters:
            errors.append(f"exact counters {counters} differ from an earlier run's {before}")
    else:
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(counters, fh)
    return errors


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo", encoding="utf-8") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "mem_total_mb": mem_kb / 1024.0}


def role_run(args):
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install(tr.nn_table() + (TRAIN_TABLE if args.workload == "train-x2-tiny"
                                        else SR_TABLE))
    inputs = build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    phases = Phases(args.seconds, tracer)
    failed, outputs = run_ops(args, inputs, phases)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = max([phases.ops] + [op + 1 for op in failed])
    result = {"setup_s": setup_s, "op_s": phases.times[False], "attempted": attempted,
              "failed": failed, "peak_rss_mb": peak_rss_mb, "env": environment(), "errors": []}
    if tracer is not None:
        tracer.uninstall()
        if phases.times[True]:
            table = tracer.per_op()
            overhead_s = (statistics.median(phases.times[True])
                          - statistics.median(phases.times[False]))
            result["per_layer"] = tr.per_layer_metrics(table, phases.traced_ops, overhead_s)
            result["errors"] = traced_checks(args, inputs, tracer, table, phases.traced_ops)
        else:
            result["errors"] = ["no traced operation completed"]
        with open(out_path(args, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans_json(), fh)
    if "frames" in outputs:
        if outputs["frames"] is not None:
            np.save(out_path(args, "npy"), outputs["frames"])
        outputs = {"ops": outputs["ops"]}
    with open(out_path(args, "json"), "w", encoding="utf-8") as fh:
        json.dump(outputs, fh)
    return result


def reference(args, steps=None):
    """Float64 outputs for this seed (the loss after each of ``steps``
    training steps, or the SR frame), computed once and cached."""
    tag = f"-n{steps}" if args.workload == "train-x2-tiny" else ""
    path = os.path.join(WORK, f"ref-{args.workload}-s{args.seed}{tag}-{args.key}.npy")
    if os.path.exists(path):
        return np.load(path)
    if args.workload == "train-x2-tiny":
        losses = []

        def on_step(loss, _):
            losses.append(loss)
            return len(losses) < steps

        train_steps(build_train(args.seed, "float64"), on_step)
        ref = np.array(losses)
    else:
        inputs = build(args.workload, args.seed)
        nn.conv2d = reference_conv2d  # this process only checks; never undone
        ref = metrics.super_resolve_image(float64_twin(inputs.net),
                                          png.decode_png(inputs.lr_png))
    np.save(path, ref)
    return ref


def role_check(args):
    with open(out_path(args, "json"), encoding="utf-8") as fh:
        outputs = json.load(fh)
    failed = []
    if args.workload == "train-x2-tiny":
        losses = outputs["losses"][:TRAIN_CHECK_STEP]
        if losses:
            ref = reference(args, len(losses))
            got, want = losses[-1], float(ref[-1])
            if not abs(got - want) <= TRAIN_LOSS_RTOL * abs(want):
                failed.append(len(losses) - 1)
            detail = f"loss {got:.9g} vs float64 {want:.9g} after {len(losses)} steps"
        else:
            detail = "no step completed"
    else:
        ops = outputs["ops"]
        detail = "no frame completed"
        if ops:
            ref = reference(args).astype(np.int16)
            frames = np.load(out_path(args, "npy"))
            worst = 0
            for op, frame in zip(ops, frames):
                diff = int(np.abs(frame.astype(np.int16) - ref).max())
                worst = max(worst, diff)
                if diff > SR_LEVELS:
                    failed.append(op)
            detail = (f"max {worst} levels from the float64 forward over {len(ops)} "
                      f"frame(s), limit {SR_LEVELS}")
    return {"failed": failed, "detail": detail}


def role_setup(args):
    build(args.workload, args.seed)
    return {"setup_s": time.monotonic() - args.t0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run", "check"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--key", required=True)
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    role = {"setup": role_setup, "run": role_run, "check": role_check}[args.role]
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
