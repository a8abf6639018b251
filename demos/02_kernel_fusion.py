"""Kernel fusion: dilated stacks into dense kernels, branches into one.

Shows the effective-kernel-size law, the interior-equivalence of a
composed stack, the exact multi-branch collapse, and a whole-model
fusion with its accounting.
"""

import numpy as np

from dcfmn import metrics, nn, reparam
from dcfmn import model as M

rng = np.random.default_rng(7)

print("== effective kernel size of dilated stacks ==")
for stages in [((3, 1), (3, 1)), ((3, 1), (3, 2)), ((3, 2), (3, 2), (3, 2)),
               ((3, 2), (3, 3), (3, 3))]:
    print(f"stages {stages} -> K = {reparam.effective_kernel_size(stages)}")

print("\n== stack composition vs sequential forward ==")
stages = ((3, 2), (3, 3), (3, 3))
weights = [rng.standard_normal((4, 1, k, k)) * 0.3 for k, _ in stages]
biases = [rng.standard_normal((1, 4, 1, 1)) * 0.05 for _ in stages]
dense, dense_bias = reparam.compose_stack_to_dense(weights, biases, [d for _, d in stages])
K = reparam.effective_kernel_size(stages)
print(f"dense kernel shape {dense.shape} (K = {K})")

x = rng.standard_normal((1, 4, 40, 40)).astype(np.float32)
seq = x
for (k, d), w, b in zip(stages, weights, biases):
    seq = nn.conv2d(seq, w, b, nn.ConvSpec(4, 4, k, dilation=d, groups=4))
fused = nn.conv2d(x, dense, dense_bias, nn.ConvSpec(4, 4, K, groups=4))
m = (K - 1) // 2
inner = np.abs(seq[:, :, m:-m, m:-m] - fused[:, :, m:-m, m:-m]).max()
print(f"interior max diff (margin {m}): {inner:.2e}")
print(f"border   max diff            : {np.abs(seq - fused).max():.2e} "
      "(per-stage zero padding differs there; document, crop, or pad)")

print("\n== parallel 3x3 branches + identity collapse exactly ==")
c = 8
ws = [rng.standard_normal((c, c, 3, 3)) * 0.2 for _ in range(2)]
bs = [rng.standard_normal((1, c, 1, 1)) * 0.05 for _ in range(2)]
fw, fb = reparam.fuse_parallel_3x3(ws, bs, include_identity=True)
x = rng.standard_normal((1, c, 12, 12))
spec3 = nn.ConvSpec(c, c, 3)
want = sum(nn.conv2d(x, w, b, spec3) for w, b in zip(ws, bs)) + x
got = nn.conv2d(x, fw, fb, spec3)
print(f"max diff over the whole image: {np.abs(got - want).max():.2e}")

print("\n== whole-model fusion ==")
cfg = M.ModelConfig(scale=2, channels=16, num_blocks=2, no_se=True)
net = M.init_model(cfg, seed=3)
fused_net = M.fuse_model(net)
margin = M.fusion_margin(cfg)
size = 2 * margin + 8
x = rng.random((1, 3, size, size), dtype=np.float32)
y = M.model_forward(net, x)
yf = M.model_forward(fused_net, x)
sm = margin * cfg.scale
print(f"params        : {M.count_params(net)} -> {M.count_params(fused_net)}")
print(f"macs @720p    : {metrics.count_macs(cfg):,} -> "
      f"{metrics.count_macs(cfg, fused=True):,}")
print(f"interior diff : "
      f"{np.abs(y[:, :, sm:-sm, sm:-sm] - yf[:, :, sm:-sm, sm:-sm]).max():.2e} "
      f"(margin {margin} LR px)")
print("(SE-gated models leak boundary differences everywhere through the "
      "global pool; see README)")
