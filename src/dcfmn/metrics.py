"""Evaluation protocol: Y-channel PSNR/SSIM, parameter and MAC accounting.

PSNR and SSIM follow the convention behind published super-resolution
baselines: BT.601 studio-swing luma computed from the 8-bit RGB images,
a border crop of ``scale`` pixels on every side, MSE against peak 255,
and mean local SSIM with an 11x11 Gaussian window (sigma 1.5,
K1 = 0.01, K2 = 0.03, dynamic range 255) on valid window positions.

MAC counting (one multiply-accumulate = one unit) is analytic over the
layer table at the 1280x720-output convention:

- convolution: out_h * out_w * out_c * (in_c / groups) * k^2 (bias free),
  each extent grown by twice the layer's input border (dilated stack stages);
  an LFEM counts, in both forms, the one C -> 2C 3x3 conv it runs
- layer norm:  4 * h * w * C   (mean, variance, normalize, affine)
- SE gate:     h*w*C pool + C*mid + mid*C matrix terms + h*w*C scale
- activations, residual adds and pixel shuffle: not counted

``--flops`` style doubling is left to callers (a MAC is two FLOPs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import data as D
from .model import SCALES, Model, ModelConfig, count_params, layers, model_forward
from .nn import ShapeError

PSNR_CAP = 99.0

_Y_COEF = np.array([65.481, 128.553, 24.966])


def rgb_to_y(image: np.ndarray) -> np.ndarray:
    """BT.601 studio-swing luma plane (floats in [16, 235]) from 8-bit RGB."""
    D.check_image8(image)
    rgb = image.astype(np.float64) / 255.0
    return 16.0 + rgb @ _Y_COEF


def _as_y_plane(x: np.ndarray) -> np.ndarray:
    if x.ndim == 3:
        return rgb_to_y(x)
    if x.ndim == 2:
        return np.asarray(x, dtype=np.float64)
    raise ShapeError("expected an (h, w, 3) uint8 image or an (h, w) Y plane")


def _cropped_pair(sr, hr, crop):
    a = _as_y_plane(sr)
    b = _as_y_plane(hr)
    if a.shape != b.shape:
        raise ShapeError(f"extent mismatch {a.shape} vs {b.shape}")
    if crop < 0 or 2 * crop >= min(a.shape):
        raise ValueError(f"crop {crop} exceeds the {a.shape} image")
    if crop:
        a = a[crop:-crop, crop:-crop]
        b = b[crop:-crop, crop:-crop]
    return a, b


def psnr(sr, hr, crop: int) -> float:
    """Peak signal-to-noise ratio in dB on the Y plane, 255 peak."""
    a, b = _cropped_pair(sr, hr, crop)
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(255.0 * 255.0 / mse))


def _gaussian_window(size=11, sigma=1.5):
    g = np.exp(-((np.arange(size) - size // 2) ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_valid(plane, g):
    out = sliding_window_view(plane, len(g), axis=0) @ g
    return sliding_window_view(out, len(g), axis=1) @ g


def ssim(sr, hr, crop: int) -> float:
    """Mean local SSIM over valid 11x11 Gaussian windows on the Y plane."""
    a, b = _cropped_pair(sr, hr, crop)
    if min(a.shape) < 11:
        raise ValueError("image too small for the 11x11 SSIM window")
    g = _gaussian_window()
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    mu1 = _filter_valid(a, g)
    mu2 = _filter_valid(b, g)
    s11 = _filter_valid(a * a, g) - mu1 * mu1
    s22 = _filter_valid(b * b, g) - mu2 * mu2
    s12 = _filter_valid(a * b, g) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return float((num / den).mean())


# ---------------------------------------------------------------------------
# analytic accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerRow:
    name: str
    params: int
    macs: int


def lr_extents(scale: int, out_h: int = 720, out_w: int = 1280) -> tuple[int, int]:
    """Input extents that super-resolve to the target output (ceil for x3)."""
    return math.ceil(out_h / scale), math.ceil(out_w / scale)


def layer_table(
    config: ModelConfig, fused: bool = False, out_h: int = 720, out_w: int = 1280
) -> list[LayerRow]:
    """Per-layer parameter and MAC rows at the given output convention."""
    h, w = lr_extents(config.scale, out_h, out_w)
    rows = []
    for layer in layers(config, fused):
        sizes = [math.prod(shape) for _, shape in layer.tensors]
        hw = (h + 2 * layer.border) * (w + 2 * layer.border)
        if layer.kind == "conv":  # one MAC per weight tap and output pixel
            macs = hw * math.prod(layer.spec.weight_shape)
        elif layer.kind == "norm":  # sizes[0] is the gain: one entry per channel
            macs = 4 * hw * sizes[0]
        else:  # SE: pool and scale over every gated plane, plus both fc products
            macs = 2 * hw * layer.spec.in_channels + sizes[0] + sizes[2]
        rows.append(LayerRow(layer.path, sum(sizes), macs))
    return rows


def count_macs(
    config: ModelConfig, fused: bool = False, out_h: int = 720, out_w: int = 1280
) -> int:
    """Total multiply-accumulates to produce one out_h x out_w output."""
    return sum(row.macs for row in layer_table(config, fused, out_h, out_w))


# ---------------------------------------------------------------------------
# dataset evaluation
# ---------------------------------------------------------------------------


@dataclass
class PerImage:
    name: str
    psnr_db: float
    ssim: float


@dataclass
class MetricsReport:
    method: str
    dataset: str
    scale: int
    psnr_db: float
    ssim: float
    params: int
    macs: int
    per_image: list = field(default_factory=list)


def super_resolve_image(model: Model, lr: np.ndarray) -> np.ndarray:
    """uint8 LR image -> clamped, quantized uint8 SR image.

    Raises FloatingPointError, without numpy's overflow warnings, when the
    model's output is not finite: quantizing it would turn NaN into black."""
    x = D.to_real(lr, dtype=model.config.np_dtype).transpose(2, 0, 1)[None]
    with np.errstate(all="ignore"):
        y = model_forward(model, x)[0].transpose(1, 2, 0)
    if not np.isfinite(y).all():
        raise FloatingPointError("model output is not finite")
    return D.to_image8(y)


def check_evaluation(model, dataset, scale: int) -> None:
    """Raise ValueError unless ``scale`` is supported, ``model`` is "bicubic"
    or a Model of that scale, and ``dataset`` holds pairs at that scale
    (:func:`dcfmn.data.check_dataset`): the contract of :func:`evaluate`."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale}")
    if isinstance(model, str):
        if model != "bicubic":
            raise ValueError(f"unknown pseudo-model {model!r}")
    elif model.config.scale != scale:
        raise ValueError(f"model is x{model.config.scale}, dataset is x{scale}")
    D.check_dataset(dataset, scale)


def evaluate(model, dataset, scale: int, dataset_name: str = "dataset",
             on_image=None) -> MetricsReport:
    """Per-image Y-channel PSNR/SSIM with crop = scale, plus accounting.

    ``model`` is a Model (any form; evaluated as given) or the string
    "bicubic" for the baseline upscaler. ``dataset`` is a list of (hr, lr)
    uint8 pairs (``data.load_dataset`` reads one from a manifest);
    aggregation follows list order. ``on_image(index, sr)``, when given,
    receives each uint8 SR image. A non-finite model output raises
    FloatingPointError naming the image as the report does (``img000``).
    """
    pairs = list(dataset)
    check_evaluation(model, pairs, scale)
    bicubic = isinstance(model, str)
    params = 0 if bicubic else count_params(model)
    macs = 0 if bicubic else count_macs(model.config, fused=model.fused)

    per_image = []
    for idx, (hr, lr) in enumerate(pairs):
        if bicubic:
            sr = D.upscale_bicubic(lr, scale)
        else:
            try:
                sr = super_resolve_image(model, lr)
            except FloatingPointError as exc:
                raise FloatingPointError(f"img{idx:03d}: {exc}") from None
        if on_image is not None:
            on_image(idx, sr)
        per_image.append(
            PerImage(f"img{idx:03d}", psnr(sr, hr, crop=scale), ssim(sr, hr, crop=scale))
        )
    mean_psnr = float(np.mean([p.psnr_db for p in per_image]))
    mean_ssim = float(np.mean([p.ssim for p in per_image]))
    method = "bicubic" if bicubic else "dcfmn"
    return MetricsReport(method, dataset_name, scale, mean_psnr, mean_ssim,
                         params, macs, per_image)


def report_csv(report: MetricsReport) -> str:
    lines = ["method,scale,params,macs,dataset,psnr_db,ssim"]
    lines.append(
        f"{report.method},{report.scale},{report.params},{report.macs},"
        f"{report.dataset},{report.psnr_db:.4f},{report.ssim:.6f}"
    )
    lines.append("image,psnr_db,ssim")
    for p in report.per_image:
        lines.append(f"{p.name},{p.psnr_db:.4f},{p.ssim:.6f}")
    return "\n".join(lines) + "\n"


def report_markdown(report: MetricsReport) -> str:
    head = (
        "| Method | Scale | #Params[K] | #MACs[G] | "
        f"{report.dataset} PSNR/SSIM |\n"
        "|---|---|---|---|---|\n"
    )
    row = (
        f"| {report.method} | x{report.scale} | {report.params / 1e3:.1f} | "
        f"{report.macs / 1e9:.2f} | {report.psnr_db:.2f}/{report.ssim:.4f} |\n"
    )
    return head + row
