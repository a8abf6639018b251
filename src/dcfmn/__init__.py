"""Lightweight super-resolution network with inference-time kernel fusion.

Library layout:

- ``dcfmn.nn``         rank-4 tensor primitives with hand-written gradients
- ``dcfmn.reparam``    dilated-stack and multi-branch kernel fusion algebra
- ``dcfmn.model``      network assembly, forward/backward, initialization
- ``dcfmn.checkpoint`` versioned binary parameter container
- ``dcfmn.fourier``    2-D DFT and its inverse on numpy's FFT
- ``dcfmn.loss``       composite pixel L1 + frequency L2 objective
- ``dcfmn.train``      Adam, cosine schedule, EMA shadow, training loop
- ``dcfmn.png``        8-bit RGB/grayscale PNG reader and RGB writer
- ``dcfmn.data``       PNG I/O, bicubic resampling, degradation, patches
- ``dcfmn.metrics``    Y-channel PSNR/SSIM, parameter and MAC accounting
- ``dcfmn.cli``        batch command-line front end
"""

__version__ = "0.1.0"
