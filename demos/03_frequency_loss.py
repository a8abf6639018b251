"""The composite objective: pixel L1 plus spectral L2.

Demonstrates the FFT agreeing with a DFT-matrix product, the Parseval identity behind
the frequency term, and a finite-difference probe of the combined
gradient.
"""

import numpy as np

from dcfmn import fourier, loss

rng = np.random.default_rng(1)

print("== FFT vs DFT-matrix product ==")
x = rng.standard_normal((16, 16))
fast = fourier.dft2d(x)
grid = np.arange(16)
F = np.exp(-2j * np.pi * np.outer(grid, grid) / 16)
naive = F @ x.astype(complex) @ F.T
print(f"16x16 max diff: {np.abs(fast - naive).max():.2e}")
back = fourier.idft2d(fast)
print(f"round trip    : {np.abs(back.real - x).max():.2e}")

print("\n== Parseval: spectral loss equals sqrt(h*w) * spatial rms ==")
sr = rng.standard_normal((2, 3, 8, 8))
hr = rng.standard_normal(sr.shape)
fv = loss.freq_loss(sr, hr)
rms = np.sqrt(((sr - hr) ** 2).mean())
print(f"freq_loss = {fv:.6f}")
print(f"sqrt(64) * rms = {8 * rms:.6f}")

print("\n== composite loss and gradient ==")
w = loss.LossWeights(lambda1=1.0, lambda2=0.05)
total, grad = loss.composite_loss(sr, hr, w)
l1 = loss.l1_loss(sr, hr)
print(f"l1 = {l1:.6f}, freq = {fv:.6f}, total = {total:.6f}")

step = 1e-6
idx = (0, 1, 2, 3)
sr2 = sr.copy()
sr2[idx] += step
fp, _ = loss.composite_loss(sr2, hr, w)
sr2[idx] -= 2 * step
fm, _ = loss.composite_loss(sr2, hr, w)
fd = (fp - fm) / (2 * step)
print(f"gradient at {idx}: analytic {grad[idx]:+.6e}, finite-diff {fd:+.6e}")
