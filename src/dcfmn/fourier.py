"""2-D discrete Fourier transform on numpy's FFT.

``dft2d`` computes the unnormalized transform

    F[u, v] = sum_{a, b} x[a, b] * exp(-2*pi*i*(u*a/h + v*b/w))

and ``idft2d`` inverts it, 1/(h*w) normalization included, for any
extents. Every transform runs ``numpy.fft`` in complex128: numpy 2
transforms float32 input in single precision, so the input is cast
first.
"""

from __future__ import annotations

import numpy as np


def _complex_stack(x: np.ndarray, name: str) -> np.ndarray:
    if np.ndim(x) < 2:
        raise ValueError(
            f"{name} expects a (..., h, w) stack, got shape {np.shape(x)}")
    return np.asarray(x, dtype=np.complex128)


def dft2d(plane: np.ndarray) -> np.ndarray:
    """Exact 2-D DFT of a real or complex h x w plane -> complex (h, w)."""
    if plane.ndim != 2:
        raise ValueError("dft2d expects a 2-D plane")
    return dft2d_batch(plane)


def idft2d(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft2d` (includes the 1/(h*w) normalization)."""
    if grid.ndim != 2:
        raise ValueError("idft2d expects a 2-D grid")
    return idft2d_batch(grid)


def dft2d_batch(planes: np.ndarray) -> np.ndarray:
    """dft2d over the last two axes of a (..., h, w) stack."""
    return np.fft.fft2(_complex_stack(planes, "dft2d_batch"))


def idft2d_batch(grids: np.ndarray) -> np.ndarray:
    """idft2d over the last two axes of a (..., h, w) stack."""
    return np.fft.ifft2(_complex_stack(grids, "idft2d_batch"))
