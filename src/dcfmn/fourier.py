"""2-D discrete Fourier transform with a radix-2 fast path.

``dft2d`` computes the unnormalized transform

    F[u, v] = sum_{a, b} x[a, b] * exp(-2*pi*i*(u*a/h + v*b/w))

using vectorized iterative Cooley-Tukey butterflies when both extents
are powers of two and a quadratic DFT-matrix product otherwise. The two
paths agree to well below 1e-6 and ``idft2d`` inverts either exactly up
to float round-off.
"""

from __future__ import annotations

import numpy as np


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


_BITREV_CACHE: dict[int, np.ndarray] = {}
_TWIDDLE_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _bit_reversal(n: int) -> np.ndarray:
    cached = _BITREV_CACHE.get(n)
    if cached is None:
        bits = n.bit_length() - 1
        idx = np.arange(n)
        rev = np.zeros(n, dtype=np.intp)
        for _ in range(bits):
            rev = (rev << 1) | (idx & 1)
            idx >>= 1
        cached = _BITREV_CACHE[n] = rev
    return cached


def _twiddles(half: int, sign: float) -> np.ndarray:
    key = (half, sign)
    cached = _TWIDDLE_CACHE.get(key)
    if cached is None:
        cached = np.exp(sign * 1j * np.pi * np.arange(half) / half)
        _TWIDDLE_CACHE[key] = cached
    return cached


def _fft_pow2_last_axis(x: np.ndarray, sign: float) -> np.ndarray:
    """Iterative decimation-in-time FFT along the last axis (length 2^k)."""
    n = x.shape[-1]
    shape = x.shape
    y = np.ascontiguousarray(x, dtype=np.complex128)[..., _bit_reversal(n)]
    y = y.reshape(-1, n)
    half = 1
    while half < n:
        tw = _twiddles(half, sign)
        v = y.reshape(-1, n // (2 * half), 2, half)
        even = v[:, :, 0, :].copy()
        odd = v[:, :, 1, :] * tw
        v[:, :, 0, :] = even + odd
        v[:, :, 1, :] = even - odd
        half *= 2
    return y.reshape(shape)


def _dft_matrix(n: int, sign: float) -> np.ndarray:
    grid = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(grid, grid) / n)


def dft2d(plane: np.ndarray) -> np.ndarray:
    """Exact 2-D DFT of a real or complex h x w plane -> complex (h, w)."""
    if plane.ndim != 2:
        raise ValueError("dft2d expects a 2-D plane")
    return _transform_batch(plane, -1.0)


def idft2d(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft2d` (includes the 1/(h*w) normalization)."""
    if grid.ndim != 2:
        raise ValueError("idft2d expects a 2-D grid")
    return _transform_batch(grid, +1.0) / grid.size


def _transform_batch(planes: np.ndarray, sign: float) -> np.ndarray:
    h, w = planes.shape[-2:]
    if _is_pow2(h) and _is_pow2(w):
        rows = _fft_pow2_last_axis(planes, sign)
        return _fft_pow2_last_axis(rows.swapaxes(-1, -2), sign).swapaxes(-1, -2)
    out = _dft_matrix(h, sign) @ np.asarray(planes, dtype=np.complex128)
    return out @ _dft_matrix(w, sign).T


def dft2d_batch(planes: np.ndarray) -> np.ndarray:
    """dft2d over the last two axes of a (..., h, w) stack."""
    return _transform_batch(planes, -1.0)


def idft2d_batch(grids: np.ndarray) -> np.ndarray:
    h, w = grids.shape[-2:]
    return _transform_batch(grids, +1.0) / (h * w)
