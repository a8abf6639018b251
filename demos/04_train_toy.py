"""A short end-to-end training run on a synthetic toy set.

Eight palette-mosaic images are degraded x2 and a tiny model is trained
for a few hundred iterations: enough to watch the loss fall and the
schedule anneal, not enough to pass the bicubic baseline. The full
2000-iteration overfit (tests/test_acceptance.py, criterion 5) takes
about three minutes and lands >2 dB above bicubic on this content.
"""

import numpy as np

from dcfmn import data, metrics, train
from dcfmn import model as M
from dcfmn.loss import LossWeights

ITERS = 300

rng = np.random.default_rng(42)
palette = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
images = []
for _ in range(8):
    img = np.zeros((64, 64, 3)) + rng.choice(palette, size=3)
    for _ in range(12):
        y0, x0 = 2 * int(rng.integers(0, 28)), 2 * int(rng.integers(0, 28))
        hh, ww = 2 * int(rng.integers(3, 14)), 2 * int(rng.integers(3, 14))
        img[y0:y0 + hh, x0:x0 + ww] = rng.choice(palette, size=3)
    images.append(data.to_image8(img))
pairs = [(hr, data.degrade(hr, 2)) for hr in images]

bic = metrics.evaluate("bicubic", pairs, 2, "toy")
print(f"bicubic baseline : PSNR {bic.psnr_db:.2f} dB, SSIM {bic.ssim:.4f}")

cfg = M.ModelConfig(scale=2, channels=16, num_blocks=2)
net = M.init_model(cfg, seed=0)
tcfg = train.TrainConfig(total_iters=ITERS, batch_size=8, patch_size=32,
                         seed=0, loss_weights=LossWeights(1.0, 0.05),
                         augment=False, trace_every=25)
print(f"training tiny model ({M.count_params(net)} params) for {ITERS} iters...")
final, shadow, trace = train.train(net, pairs, tcfg)
for r in trace:
    print(f"  iter {r.iteration:4d}  lr {r.lr:.2e}  l1 {r.l1:.4f}  "
          f"freq {r.freq:.3f}  total {r.total:.4f}")

for name, m in (("final", final), ("EMA", shadow)):
    rep = metrics.evaluate(m, pairs, 2, "toy")
    print(f"{name:5s} model      : PSNR {rep.psnr_db:.2f} dB, SSIM {rep.ssim:.4f} "
          f"({rep.psnr_db - bic.psnr_db:+.2f} dB vs bicubic)")
print(f"\n(a {ITERS}-iteration schedule is a warm-up; the 2000-iteration run in "
      "tests/test_acceptance.py finishes past the baseline, and the EMA shadow "
      "needs ~3x its 1000-iteration time constant before it is representative)")
