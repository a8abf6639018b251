"""Composite training objective: pixel L1 plus frequency-domain L2.

Both terms use mean (not sum) reductions so the magnitude is
resolution-independent and the weights stay scale-free. The frequency
term compares complex spectra directly,

    freq = sqrt(mean_over_bins |F(hr) - F(sr)|^2),

with the per-plane 2-D DFT of :mod:`dcfmn.fourier` (numpy's FFT in
complex128); its gradient goes through the transform analytically (the
DFT is linear, with adjoint h * w times the inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import dft2d_batch, idft2d_batch
from .nn import ShapeError


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 1.0
    lambda2: float = 0.05

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.lambda1 == 0 and self.lambda2 == 0:
            raise ValueError("at least one loss weight must be positive")


def _check_pair(sr, hr):
    if sr.shape != hr.shape:
        raise ShapeError(f"sr extents {sr.shape} != hr extents {hr.shape}")
    if sr.ndim != 4:
        raise ShapeError("losses expect (n, c, h, w) batches")


def l1_loss(sr: np.ndarray, hr: np.ndarray) -> float:
    """Mean absolute difference over all elements."""
    _check_pair(sr, hr)
    return float(np.abs(sr - hr).mean())


def l1_grad(sr: np.ndarray, hr: np.ndarray) -> tuple[float, np.ndarray]:
    _check_pair(sr, hr)
    diff = sr - hr
    value = float(np.abs(diff).mean())
    return value, np.sign(diff) / diff.size


def freq_loss(sr: np.ndarray, hr: np.ndarray) -> float:
    """Root mean squared complex spectrum difference over all bins/planes."""
    value, _ = _freq_loss_impl(sr, hr, want_grad=False)
    return value


def freq_grad(sr: np.ndarray, hr: np.ndarray) -> tuple[float, np.ndarray]:
    return _freq_loss_impl(sr, hr, want_grad=True)


def _freq_loss_impl(sr, hr, want_grad):
    _check_pair(sr, hr)
    n, c, h, w = sr.shape
    # one transform of the difference, which the DFT's linearity allows
    d = dft2d_batch(np.subtract(sr, hr, dtype=np.float64).reshape(n * c, h, w))
    m = sr.size
    value = float(np.sqrt((d.real * d.real + d.imag * d.imag).sum() / m))
    if not want_grad:
        return value, None
    grad = np.zeros_like(sr, dtype=np.float64)
    if value > 0.0:
        coef = (h * w) / (m * value)
        grad = coef * idft2d_batch(d).real.reshape(sr.shape)
    return value, grad.astype(sr.dtype)


def composite_loss_detailed(
    sr: np.ndarray, hr: np.ndarray, weights: LossWeights
) -> tuple[float, float, float, np.ndarray]:
    """(total, l1, freq, gradient w.r.t. sr) in one pass."""
    _check_pair(sr, hr)
    l1v, l1g = l1_grad(sr, hr)
    fv, fg = freq_grad(sr, hr)
    total = weights.lambda1 * l1v + weights.lambda2 * fv
    grad = weights.lambda1 * l1g + weights.lambda2 * fg
    return total, l1v, fv, grad.astype(sr.dtype)


def composite_loss(
    sr: np.ndarray, hr: np.ndarray, weights: LossWeights
) -> tuple[float, np.ndarray]:
    """Weighted sum of the two terms and its gradient with respect to sr."""
    total, _, _, grad = composite_loss_detailed(sr, hr, weights)
    return total, grad
