"""Image pipeline: value conversion, bicubic resampling, degradation, patches.

Images travel as (h, w, 3) uint8 arrays ("Image8") and enter the network
as [0, 1] reals. Resampling is separable cubic convolution with the Keys
a = -0.5 kernel on half-pixel-center coordinates, replicate-clamped at
the edges; when an axis shrinks, the kernel support is stretched by the
scale factor and the tap weights renormalized (the convention behind
published bicubic baselines). Degradation is bicubic downscale plus
re-quantization.

The pair contract at scale s: an (hr, lr) pair is two Image8 arrays whose
hr extents are s times the lr extents (:func:`check_pair`, which raises
ShapeError). Training, evaluation and the CLI check a whole dataset with
:func:`check_dataset` before they run.
"""

from __future__ import annotations

import os

import numpy as np

from .nn import ShapeError
from .png import read_png, write_png  # re-exported as part of the pipeline API

__all__ = [
    "read_png", "write_png", "to_real", "to_image8", "cubic_kernel",
    "bicubic_resize", "modcrop", "degrade", "upscale_bicubic",
    "sample_patch_pair", "write_manifest", "read_manifest", "load_dataset",
    "check_pair", "check_dataset",
]


def check_image8(img: np.ndarray, name: str = "image") -> None:
    if not isinstance(img, np.ndarray) or img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"{name} must be an (h, w, 3) array")
    if img.dtype != np.uint8:
        raise ShapeError(f"{name} must be uint8, got {img.dtype}")


def check_pair(hr: np.ndarray, lr: np.ndarray, scale: int, name: str = "pair") -> None:
    """Raise ShapeError unless (hr, lr) is an Image8 pair at x``scale``."""
    check_image8(hr, f"{name} hr")
    check_image8(lr, f"{name} lr")
    if hr.shape[:2] != (lr.shape[0] * scale, lr.shape[1] * scale):
        raise ShapeError(f"{name} violates the x{scale} extent law "
                         f"(hr {hr.shape[0]}x{hr.shape[1]}, lr {lr.shape[0]}x{lr.shape[1]})")


def check_dataset(dataset, scale: int, patch_size: int = 1) -> None:
    """Raise ValueError unless ``dataset`` is a non-empty list of pairs at
    x``scale`` (:func:`check_pair`) whose low-res images hold a
    ``patch_size`` square."""
    if not dataset:
        raise ValueError("empty dataset")
    for i, (hr, lr) in enumerate(dataset):
        check_pair(hr, lr, scale, f"pair {i}")
        if min(lr.shape[:2]) < patch_size:
            raise ValueError(
                f"patch {patch_size} exceeds low-res image {i} "
                f"({lr.shape[0]}x{lr.shape[1]})"
            )


def to_real(img: np.ndarray, dtype=np.float32) -> np.ndarray:
    """uint8 [0, 255] -> real [0, 1]."""
    check_image8(img)
    return img.astype(dtype) / 255.0


def to_image8(real: np.ndarray) -> np.ndarray:
    """Real [0, 1] -> uint8: clamp, scale, round half away from zero."""
    clipped = np.clip(real, 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def cubic_kernel(t: np.ndarray) -> np.ndarray:
    """Keys cubic convolution kernel with a = -0.5."""
    at = np.abs(np.asarray(t, dtype=np.float64))
    at2 = at * at
    at3 = at2 * at
    near = 1.5 * at3 - 2.5 * at2 + 1.0
    far = -0.5 * at3 + 2.5 * at2 - 4.0 * at + 2.0
    return np.where(at <= 1.0, near, np.where(at < 2.0, far, 0.0))


def _resample_matrix(in_size: int, out_size: int) -> np.ndarray:
    """Dense (out_size, in_size) row-stochastic resampling operator; on a
    downscale the kernel support stretches by the scale factor."""
    scale = in_size / out_size
    support_scale = max(1.0, scale)
    radius = 2.0 * support_scale
    centers = (np.arange(out_size) + 0.5) * scale - 0.5
    lo = np.ceil(centers - radius).astype(np.intp)
    counts = np.floor(centers + radius).astype(np.intp) - lo + 1
    mat = np.zeros((out_size, in_size), dtype=np.float64)
    # rows grouped by their tap count, so that each row's weight sum runs over
    # exactly its own taps, as numpy's pairwise sum of that row alone would
    for count in set(counts.tolist()):  # np.unique would import numpy.ma (~20 ms)
        rows = np.flatnonzero(counts == count)
        taps = lo[rows, None] + np.arange(count)
        weights = cubic_kernel((centers[rows, None] - taps) / support_scale)
        s = weights.sum(axis=1, keepdims=True)
        if not s.all():
            raise ValueError("degenerate resampling window")
        np.add.at(mat, (rows[:, None], np.clip(taps, 0, in_size - 1)), weights / s)
    return mat


def _resample_operators(h: int, w: int, out_h: int, out_w: int):
    """The row and column operators of an (h, w) -> (out_h, out_w) resize;
    None for an axis that keeps its extent."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target extents must be positive, got {out_h}x{out_w}")
    rows = _resample_matrix(h, out_h) if out_h != h else None
    cols = _resample_matrix(w, out_w).T if out_w != w else None
    return rows, cols


def _resample(plane: np.ndarray, rows, cols) -> np.ndarray:
    work = plane.astype(np.float64, copy=False)
    if rows is not None:
        work = rows @ work
    if cols is not None:
        work = work @ cols
    return work.astype(plane.dtype, copy=False)


def bicubic_resize(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bicubic resize of a 2-D real plane to (out_h, out_w)."""
    if plane.ndim != 2:
        raise ShapeError("bicubic_resize expects a 2-D plane")
    return _resample(plane, *_resample_operators(*plane.shape, out_h, out_w))


def _resize_image8(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bicubic resize of an Image8, each axis's operator built once for all
    three channels."""
    operators = _resample_operators(*img.shape[:2], out_h, out_w)
    real = to_real(img, dtype=np.float64)
    return to_image8(np.stack([_resample(real[:, :, c], *operators) for c in range(3)], axis=2))


def modcrop(img: np.ndarray, scale: int) -> np.ndarray:
    """Crop bottom/right so both extents divide by the scale."""
    check_image8(img)
    h, w = img.shape[:2]
    h2 = h - h % scale
    w2 = w - w % scale
    if h2 < scale or w2 < scale:
        raise ValueError(f"{h}x{w} image degenerates under modcrop at x{scale}")
    return img[:h2, :w2]


def degrade(hr: np.ndarray, scale: int) -> np.ndarray:
    """Bicubic-downscale a modcropped HR image to its LR counterpart."""
    check_image8(hr, "hr")
    h, w = hr.shape[:2]
    if h % scale or w % scale:
        raise ValueError("degrade expects a modcropped image")
    return _resize_image8(hr, h // scale, w // scale)


def upscale_bicubic(lr: np.ndarray, scale: int) -> np.ndarray:
    """Bicubic-upscale an LR image by the integer factor (baseline operator)."""
    check_image8(lr, "lr")
    h, w = lr.shape[:2]
    return _resize_image8(lr, h * scale, w * scale)


def sample_patch_pair(hr, lr, scale, patch, rng, augment=True):
    """Aligned (hr_patch, lr_patch) at a random LR-grid position.

    The LR patch is patch x patch; the HR patch is the corresponding
    patch*scale square. Augmentation (shared horizontal flip and 90-degree
    rotation count) is applied identically to both. RNG consumption order
    is fixed: y, x, flip, rotations.
    """
    check_pair(hr, lr, scale)
    lh, lw = lr.shape[:2]
    if patch > lh or patch > lw:
        raise ValueError(f"patch {patch} exceeds the {lh}x{lw} low-res image")
    y = int(rng.integers(0, lh - patch + 1))
    x = int(rng.integers(0, lw - patch + 1))
    lr_patch = lr[y : y + patch, x : x + patch]
    hr_patch = hr[y * scale : (y + patch) * scale, x * scale : (x + patch) * scale]
    if augment:
        if int(rng.integers(0, 2)):
            lr_patch = lr_patch[:, ::-1]
            hr_patch = hr_patch[:, ::-1]
        k = int(rng.integers(0, 4))
        if k:
            lr_patch = np.rot90(lr_patch, k)
            hr_patch = np.rot90(hr_patch, k)
    return np.ascontiguousarray(hr_patch), np.ascontiguousarray(lr_patch)


# ---------------------------------------------------------------------------
# dataset manifest: one "hr_path<TAB>lr_path<TAB>scale" line per pair
# ---------------------------------------------------------------------------


def write_manifest(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for hr_path, lr_path, scale in entries:
            fh.write(f"{hr_path}\t{lr_path}\t{scale}\n")


def read_manifest(path):
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            entries.append((parts[0], parts[1], int(parts[2])))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries


def load_dataset(manifest_path):
    """Load every (hr, lr) pair of a manifest; returns (pairs, scale)."""
    entries = read_manifest(manifest_path)
    scales = {scale for _, _, scale in entries}
    if len(scales) != 1:
        raise ValueError(f"manifest mixes scales {sorted(scales)}")
    scale = scales.pop()
    base = os.path.dirname(os.path.abspath(manifest_path))
    pairs = []
    for hr_path, lr_path, _ in entries:
        hr = read_png(hr_path if os.path.isabs(hr_path) else os.path.join(base, hr_path))
        lr = read_png(lr_path if os.path.isabs(lr_path) else os.path.join(base, lr_path))
        check_pair(hr, lr, scale, f"pair {hr_path!r}/{lr_path!r}")
        pairs.append((hr, lr))
    return pairs, scale
