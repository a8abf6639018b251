"""Kernel fusion: dilated stacks into dense kernels, branches into one,
and the 1x1 expand folded into that one.

Shows the effective-kernel-size law, a composed stack that equals its
stages over the whole image once the input is padded once, the exact
multi-branch collapse, the LFEM's expand 1x1 folded into that 3x3 with
the border term of its bias, and a whole-model fusion with its accounting.
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

def run_stack(x):
    for (k, d), w, b in zip(stages, weights, biases):
        x = nn.conv2d(x, w, b, nn.ConvSpec(4, 4, k, dilation=d, groups=4))
    return x


x = rng.standard_normal((1, 4, 9, 11))
fused = nn.conv2d(x, dense, dense_bias, nn.ConvSpec(4, 4, K, groups=4))
m = (K - 1) // 2
once = run_stack(np.pad(x, ((0, 0), (0, 0), (m, m), (m, m))))[:, :, m:-m, m:-m]
print(f"padded once by the radius {m}, whole 9x11 image: max diff "
      f"{np.abs(once - fused).max():.2e}")
print(f"each stage padding on its own                  : max diff "
      f"{np.abs(run_stack(x) - fused).max():.2e} "
      f"(agrees only past {m} px from the border)")

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

print("\n== LFEM: expand 1x1 folded into the fused 3x3, plus a border term ==")
cfg = M.ModelConfig(scale=2, channels=8, num_blocks=1, no_se=True, dtype="float64")
net = M.init_model(cfg, seed=4)
for path, v in net.params.items():
    if path.endswith(".bias"):
        v[...] = 0.1 * rng.standard_normal(v.shape)
fused_net = M.fuse_model(net)
x = rng.standard_normal((1, 8, 6, 7))
want = M.lfem_forward(net, 0, x)
diff = np.abs(M.lfem_forward(fused_net, 0, x) - want)
print(f"with rep.edge          : max diff {diff.max():.2e} over the whole 6x7 map")
# the branches zero-pad the expand output, bias included: its bias reaches
# each pixel only through the taps that read inside the image, so as a
# plain conv bias it is right inside and wrong on the one-pixel ring
plain = fused_net.copy()
edge = plain.params["blocks.00.lfem.rep.edge"]
plain.params["blocks.00.lfem.rep.bias"] += edge.sum(axis=(2, 3)).reshape(1, -1, 1, 1)
edge[...] = 0.0
diff = np.abs(M.lfem_forward(plain, 0, x) - want)
print(f"edge as a constant bias: max diff {diff[..., 1:-1, 1:-1].max():.2e} inside, "
      f"{diff.max():.2e} on the ring")

print("\n== whole-model fusion, SE gate on, whole image ==")
cfg = M.ModelConfig(scale=2, channels=16, num_blocks=2)
net = M.init_model(cfg, seed=3)
fused_net = M.fuse_model(net)
print(f"params        : {M.count_params(net)} -> {M.count_params(fused_net)}")
print(f"lfem.rep      : weight {fused_net.params['blocks.00.lfem.rep.weight'].shape}, "
      f"edge {fused_net.params['blocks.00.lfem.rep.edge'].shape}, no lfem.expand: "
      f"{not any('.lfem.expand.' in k for k in fused_net.params)}")
print(f"macs @720p    : {metrics.count_macs(cfg):,} -> "
      f"{metrics.count_macs(cfg, fused=True):,}")
for h, w in [(5, 7), (23, 17)]:
    x = rng.random((1, 3, h, w), dtype=np.float32)
    diff = np.abs(M.model_forward(net, x) - M.model_forward(fused_net, x)).max()
    print(f"{f'{h}x{w} input':14s}: max diff {diff:.2e} over the whole output")
