"""Network assembly: shallow extractor, deep blocks, upsampling tail.

The deep feature path is a chain of identical blocks. Each block is
pre-norm residual twice over:

    x' = dsmu(ln1(x)) + x
    y  = lfem(ln2(x')) + x'

where the multi-scale unit (DSMU) chunks channels four ways, runs one
depthwise dilated stack per chunk (effective kernel sizes 5/7/13/17 by
default), aggregates with a 1x1 convolution, applies GELU and adds its
own input; and the local enhancement module (LFEM) expands channels 2x
with a 1x1, sums parallel 3x3 branches plus an identity self-residual,
applies GELU, a squeeze-excitation gate, and a 1x1 reduction back to C.

The network is described once (:func:`layers`), in training form or in
the fused form that fusion rewrites it to; init, counting, forward,
backward, fusion, MAC accounting and checkpoint checks all walk it.

Parameters live in a flat path -> array store; every routine that must
be deterministic iterates it in lexicographic path order. Gradients are
hand-composed from the per-op vjps in ``dcfmn.nn``; there is no tape.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .nn import ConfigError, ConvSpec, ShapeError
from .reparam import compose_stack_to_dense, effective_kernel_size, fuse_parallel_3x3

ParamStore = dict  # str path -> np.ndarray; iterate with sorted() for determinism

SE_REDUCTION = 4

# Self-consistent dilated stacks realizing each target support K:
# K = 1 + sum(d_i * (k_i - 1)) over the stages.
STACK_PLANS: dict[int, tuple[tuple[int, int], ...]] = {
    3: ((3, 1),),
    5: ((3, 1), (3, 1)),
    7: ((3, 1), (3, 2)),
    13: ((3, 2), (3, 2), (3, 2)),
    17: ((3, 2), (3, 3), (3, 3)),
}


@dataclass(frozen=True)
class ModelConfig:
    scale: int = 2
    channels: int = 32
    num_blocks: int = 10
    chunk_targets: tuple[int, int, int, int] = (5, 7, 13, 17)
    lfem_branches: int = 2
    dsmu_plain3x3: bool = False
    no_se: bool = False
    no_self_residual: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        if self.scale not in (2, 3, 4):
            raise ConfigError(f"scale must be 2, 3 or 4, got {self.scale}")
        if self.channels < 4 or self.channels % 4:
            raise ConfigError(f"channels must be a positive multiple of 4, got {self.channels}")
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be >= 1")
        object.__setattr__(self, "chunk_targets", tuple(self.chunk_targets))  # hashable
        if len(self.chunk_targets) != 4:
            raise ConfigError("chunk_targets must list four kernel sizes")
        for t in self.chunk_targets:
            if t not in STACK_PLANS:
                raise ConfigError(
                    f"no dilated-stack plan for target kernel {t}; "
                    f"supported: {sorted(STACK_PLANS)}"
                )
        if self.lfem_branches < 1:
            raise ConfigError("lfem_branches must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    @property
    def chunk_channels(self) -> int:
        return self.channels // 4

    @property
    def se_mid(self) -> int:
        return max(1, 2 * self.channels // SE_REDUCTION)

    def stack_plan(self, chunk_index: int) -> tuple[tuple[int, int], ...]:
        if self.dsmu_plain3x3:
            return STACK_PLANS[3]
        return STACK_PLANS[self.chunk_targets[chunk_index]]


PRESETS = {
    "S": dict(channels=32, num_blocks=10),
    "L": dict(channels=32, num_blocks=16),
    "tiny": dict(channels=16, num_blocks=2),
}


def preset_config(name: str, scale: int, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return ModelConfig(scale=scale, **kwargs)


@dataclass
class Model:
    config: ModelConfig
    params: ParamStore
    fused: bool = False

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.params.items()}, self.fused)


# ---------------------------------------------------------------------------
# the network description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """A parametric piece: a "conv" of geometry ``spec``, a channel layer
    "norm", or an "se" gate whose squeeze 1x1 is ``spec``. ``tensors`` holds
    its (parameter path, shape) pairs in init order, the operand order of
    its ``dcfmn.nn`` op."""

    path: str
    kind: str
    spec: ConvSpec | None
    tensors: tuple


def _conv_layer(path: str, spec: ConvSpec) -> Layer:
    return Layer(path, "conv", spec, ((f"{path}.weight", spec.weight_shape),
                                      (f"{path}.bias", (1, spec.out_channels, 1, 1))))


class Block(NamedTuple):
    """One deep block: ``x' = dsmu(ln1(x)) + x`` then ``y = lfem(ln2(x')) + x'``."""

    ln1: Layer
    stacks: tuple  # per channel chunk, its depthwise conv stages in order
    mix: Layer
    ln2: Layer
    expand: Layer
    branches: tuple  # parallel 3x3 convs whose outputs are summed
    identity: bool  # the expand output joins that sum (self-residual)
    se: Layer | None
    reduce: Layer


class Network(NamedTuple):
    head: Layer
    blocks: tuple
    tail: Layer


def _flatten(node) -> list[Layer]:
    if isinstance(node, Layer):
        return [node]
    if isinstance(node, tuple):
        return [layer for item in node for layer in _flatten(item)]
    return []  # the identity flag or an absent SE gate


def _describe(config: ModelConfig, plans, branches, identity: bool) -> Network:
    """The network whose chunk stacks run the ``(path suffix, kernel,
    dilation)`` stages of ``plans`` and whose branch group holds the 3x3
    convs named ``branches``, plus the self-residual when ``identity``."""
    c, cg, c2, mid = config.channels, config.chunk_channels, 2 * config.channels, config.se_mid

    def conv(path, *geometry):
        return _conv_layer(path, ConvSpec(*geometry))

    def norm(path):
        return Layer(path, "norm", None, tuple((f"{path}.{name}", (1, c, 1, 1))
                                               for name in ("gain", "bias")))

    blocks = []
    for i in range(config.num_blocks):
        p = f"blocks.{i:02d}"
        blocks.append(Block(
            ln1=norm(f"{p}.ln1"),
            stacks=tuple(tuple(conv(f"{p}.dsmu.stack{j}{suffix}", cg, cg, k, d, cg)
                               for suffix, k, d in plan)
                         for j, plan in enumerate(plans)),
            mix=conv(f"{p}.dsmu.mix", c, c, 1),
            ln2=norm(f"{p}.ln2"),
            expand=conv(f"{p}.lfem.expand", c, c2, 1),
            branches=tuple(conv(f"{p}.lfem.{name}", c2, c2, 3) for name in branches),
            identity=identity,
            se=None if config.no_se else Layer(
                f"{p}.lfem.se", "se", ConvSpec(c2, mid, 1),
                conv(f"{p}.lfem.se.fc1", c2, mid, 1).tensors
                + conv(f"{p}.lfem.se.fc2", mid, c2, 1).tensors),
            reduce=conv(f"{p}.lfem.reduce", c2, c, 1),
        ))
    return Network(conv("head", 3, c, 3), tuple(blocks), conv("tail", c, 3 * config.scale**2, 3))


@functools.lru_cache(maxsize=64)
def _forms(config: ModelConfig) -> tuple[Network, Network]:
    """(training form, fused form): indexing by the fused flag picks one.

    Fusion rewrites the description: each dilated stack becomes one dense
    depthwise conv at ``stack{j}``, and each branch group the single 3x3
    ``rep`` with the self-residual folded in.
    """
    plans = [config.stack_plan(j) for j in range(4)]
    training = _describe(config, [[(f".stage{si}", k, d) for si, (k, d) in enumerate(plan)]
                                  for plan in plans],
                         [f"branch{br}" for br in range(config.lfem_branches)],
                         identity=not config.no_self_residual)
    dense = [[("", effective_kernel_size(plan), 1)] for plan in plans]
    return training, _describe(config, dense, ["rep"], identity=False)


def _network(model: Model) -> Network:
    return _forms(model.config)[bool(model.fused)]


def layers(config: ModelConfig, fused: bool = False) -> list[Layer]:
    """The network as an ordered list of parametric layers, in training or
    fused form (the rows of :func:`dcfmn.metrics.layer_table`)."""
    return _flatten(_forms(config)[bool(fused)])


def init_model(config: ModelConfig, seed: int) -> Model:
    """He-normal weights, zero biases, identity layer norms; seed-determined."""
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    params: ParamStore = {}
    for layer in layers(config):
        for path, shape in layer.tensors:
            if path.endswith(".weight"):
                fan_in = math.prod(shape[1:])
                params[path] = (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dt)
            elif path.endswith(".gain"):
                params[path] = np.ones(shape, dt)
            else:
                params[path] = np.zeros(shape, dt)
    return Model(config, params, fused=False)


def count_params(model: Model | ModelConfig, fused: bool = False) -> int:
    """Total scalar parameters (weights, biases, norm affines, SE) of a
    model, or of a config in the given form."""
    if isinstance(model, Model):
        model, fused = model.config, model.fused
    return sum(math.prod(shape) for layer in layers(model, fused) for _, shape in layer.tensors)


# ---------------------------------------------------------------------------
# forward pieces (each returns (out, cache) so the backward can reuse work)
# ---------------------------------------------------------------------------


def _gather(params, group, name):
    return [params[f"{layer.path}.{name}"] for layer in group]


def _apply(params, layer: Layer, x):
    args = [params[path] for path, _ in layer.tensors]
    if layer.kind == "conv":
        return nn.conv2d(x, *args, layer.spec)
    if layer.kind == "norm":
        return nn.layer_norm(x, *args)
    return nn.se_block(x, *args)


def _apply_vjp(params, layer: Layer, x, dy, grads, **kwargs):
    """Stores the layer's parameter gradients in ``grads``; returns the input's."""
    args = [params[path] for path, _ in layer.tensors]
    if layer.kind == "conv":
        dx, *dparams = nn.conv2d_vjp(x, *args, layer.spec, dy, **kwargs)
    elif layer.kind == "norm":
        dx, *dparams = nn.layer_norm_vjp(x, *args, dy)
    else:
        dx, *dparams = nn.se_block_vjp(x, *args, dy)
    grads.update(zip([path for path, _ in layer.tensors], dparams))
    return dx


def _dsmu_fwd(params, blk: Block, x):
    outs = []
    stage_inputs = []
    for stages, part in zip(blk.stacks, np.split(x, len(blk.stacks), axis=1)):
        ins = []
        for stage in stages:
            ins.append(part)
            part = _apply(params, stage, part)
        stage_inputs.append(ins)
        outs.append(part)
    cat = np.concatenate(outs, axis=1)
    mixed = _apply(params, blk.mix, cat)
    y = nn.gelu(mixed) + x
    return y, (x, stage_inputs, cat, mixed)


def _dsmu_bwd(params, blk: Block, cache, dy, grads):
    x, stage_inputs, cat, mixed = cache
    dcat = _apply_vjp(params, blk.mix, cat, nn.gelu_vjp(mixed, dy), grads)
    dparts = np.split(dcat, len(blk.stacks), axis=1)
    dx_parts = []
    for stages, ins, dpart in zip(blk.stacks, stage_inputs, dparts):
        for stage, inp in zip(reversed(stages), reversed(ins)):
            dpart = _apply_vjp(params, stage, inp, dpart, grads)
        dx_parts.append(dpart)
    return np.concatenate(dx_parts, axis=1) + dy


def _lfem_fwd(params, blk: Block, x):
    e = _apply(params, blk.expand, x)
    # one windowed pass for all branches (their outputs are then summed)
    spec = blk.branches[0].spec
    c2 = spec.out_channels
    stacked = nn.conv2d(e, np.concatenate(_gather(params, blk.branches, "weight"), axis=0),
                        np.concatenate(_gather(params, blk.branches, "bias"), axis=1),
                        dataclasses.replace(spec, out_channels=len(blk.branches) * c2))
    # a sum of several terms starts from a C-ordered copy, which fixes the
    # summation order of the reductions downstream; a lone term is used as is
    pre = stacked[:, :c2]
    if len(blk.branches) + blk.identity > 1:
        pre = pre.copy()
        for br in range(1, len(blk.branches)):
            pre += stacked[:, br * c2 : (br + 1) * c2]
    if blk.identity:
        pre = pre + e
    act = nn.gelu(pre)
    gated = act if blk.se is None else _apply(params, blk.se, act)
    y = _apply(params, blk.reduce, gated)
    return y, (x, e, pre, act, gated)


def _lfem_bwd(params, blk: Block, cache, dy, grads):
    x, e, pre, act, gated = cache
    dgated = _apply_vjp(params, blk.reduce, gated, dy, grads)
    dact = dgated if blk.se is None else _apply_vjp(params, blk.se, act, dgated, grads)
    dpre = nn.gelu_vjp(pre, dact)
    # every branch sees the same upstream, so the weight/bias gradients
    # coincide across branches, and the summed input gradient is the
    # conv with the summed kernels (linearity)
    first, *rest = blk.branches
    wsum = params[f"{first.path}.weight"].copy()
    for w in _gather(params, rest, "weight"):
        wsum += w
    de, dw, db = nn.conv2d_vjp(e, wsum, params[f"{first.path}.bias"], first.spec, dpre)
    for branch in blk.branches:
        grads[f"{branch.path}.weight"] = dw
        grads[f"{branch.path}.bias"] = db
    if blk.identity:
        de = de + dpre
    return _apply_vjp(params, blk.expand, x, de, grads)


def _block_fwd(params, blk: Block, x):
    u, dsmu_cache = _dsmu_fwd(params, blk, _apply(params, blk.ln1, x))
    xp = u + x
    v, lfem_cache = _lfem_fwd(params, blk, _apply(params, blk.ln2, xp))
    return v + xp, (x, dsmu_cache, xp, lfem_cache)


def _block_bwd(params, blk: Block, cache, dy, grads):
    x, dsmu_cache, xp, lfem_cache = cache
    dt2 = _lfem_bwd(params, blk, lfem_cache, dy, grads)
    dxp = dy + _apply_vjp(params, blk.ln2, xp, dt2, grads)
    dt1 = _dsmu_bwd(params, blk, dsmu_cache, dxp, grads)
    return dxp + _apply_vjp(params, blk.ln1, x, dt1, grads)


# ---------------------------------------------------------------------------
# public single-piece forwards (thin wrappers over the cached versions)
# ---------------------------------------------------------------------------


def shallow_extract(model: Model, x: np.ndarray) -> np.ndarray:
    """3 -> C feature lift with the head 3x3 convolution."""
    nn.check_tensor4(x, "input")
    if x.shape[1] != 3:
        raise ShapeError(f"expected 3 input channels, got {x.shape[1]}")
    return _apply(model.params, _network(model).head, x)


def dsmu_forward(model: Model, block_index: int, x: np.ndarray) -> np.ndarray:
    """Chunk -> per-chunk dilated stacks -> 1x1 mix -> GELU -> + input."""
    return _dsmu_fwd(model.params, _network(model).blocks[block_index], x)[0]


def lfem_forward(model: Model, block_index: int, x: np.ndarray) -> np.ndarray:
    """Expand 1x1 -> parallel 3x3 sum (or fused 3x3) -> GELU -> SE -> reduce 1x1."""
    return _lfem_fwd(model.params, _network(model).blocks[block_index], x)[0]


def dsmb_forward(model: Model, block_index: int, x: np.ndarray) -> np.ndarray:
    """One deep block: pre-norm DSMU residual then pre-norm LFEM residual."""
    return _block_fwd(model.params, _network(model).blocks[block_index], x)[0]


def upsample_reconstruct(model: Model, f_k: np.ndarray, f_0: np.ndarray) -> np.ndarray:
    """Tail 3x3 on (f_k + f_0) to 3*scale^2 channels, then pixel shuffle."""
    if f_k.shape != f_0.shape:
        raise ShapeError("deep and shallow features disagree in extents")
    t = _apply(model.params, _network(model).tail, f_k + f_0)
    return nn.pixel_shuffle(t, model.config.scale)


def model_forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Super-resolve a (n, 3, h, w) batch to (n, 3, h*scale, w*scale).

    Keeps no backward cache: a block's intermediates are freed when it returns."""
    f = f0 = shallow_extract(model, x)
    for i in range(model.config.num_blocks):
        f = dsmb_forward(model, i, f)
    return upsample_reconstruct(model, f, f0)


def model_forward_cached(model: Model, x: np.ndarray):
    """(model_forward output, cache for :func:`model_backward_from_cache`)."""
    net = _network(model)
    f0 = shallow_extract(model, x)
    f = f0
    block_caches = []
    for blk in net.blocks:
        f, cache = _block_fwd(model.params, blk, f)
        block_caches.append(cache)
    skip = f + f0
    y = nn.pixel_shuffle(_apply(model.params, net.tail, skip), model.config.scale)
    return y, (x, block_caches, skip)


def model_backward_from_cache(model: Model, cache, upstream: np.ndarray) -> ParamStore:
    net = _network(model)
    x, block_caches, skip = cache
    grads: ParamStore = {}
    dskip = _apply_vjp(model.params, net.tail, skip,
                       nn.pixel_shuffle_vjp(upstream, model.config.scale), grads)
    df = dskip
    for blk, block_cache in zip(reversed(net.blocks), reversed(block_caches)):
        df = _block_bwd(model.params, blk, block_cache, df, grads)
    _apply_vjp(model.params, net.head, x, dskip + df, grads, need_dx=False)
    return grads


def model_backward(model: Model, x: np.ndarray, upstream: np.ndarray) -> ParamStore:
    """Gradient store (aligned with the parameter paths) of
    sum(upstream * model_forward(model, x))."""
    y, cache = model_forward_cached(model, x)
    if upstream.shape != y.shape:
        raise ShapeError(f"upstream shape {upstream.shape} != output shape {y.shape}")
    return model_backward_from_cache(model, cache, upstream)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def fuse_model(model: Model) -> Model:
    """Inference-form copy: dilated stacks and branch groups collapsed.

    Exact for the LFEM branches (shared padding); exact on interior
    pixels for the DSMU stacks, with a boundary margin of (K - 1) // 2.
    Fusing an already fused model is the identity.
    """
    if model.fused:
        return model.copy()
    cfg = model.config
    old = model.params
    training, fused = _forms(cfg)
    new: ParamStore = {}

    def put(layer, weight, bias):
        new[f"{layer.path}.weight"] = weight.astype(cfg.np_dtype)
        new[f"{layer.path}.bias"] = bias.astype(cfg.np_dtype)

    for blk, fused_blk in zip(training.blocks, fused.blocks):
        for stages, (dense,) in zip(blk.stacks, fused_blk.stacks):
            put(dense, *compose_stack_to_dense(_gather(old, stages, "weight"),
                                               _gather(old, stages, "bias"),
                                               [stage.spec.dilation for stage in stages]))
        put(fused_blk.branches[0],
            *fuse_parallel_3x3(_gather(old, blk.branches, "weight"),
                               _gather(old, blk.branches, "bias"),
                               include_identity=blk.identity))
    for layer in _flatten(fused):
        for path, _ in layer.tensors:
            if path not in new:
                new[path] = old[path].copy()
    return Model(cfg, new, fused=True)


def stack_radius(config: ModelConfig) -> int:
    """Largest half-support of the per-chunk dense kernels, (max K - 1) // 2."""
    fused = _forms(config)[True]
    return (max(dense.spec.kernel for (dense,) in fused.blocks[0].stacks) - 1) // 2


def fusion_margin(config: ModelConfig) -> int:
    """Low-resolution border width inside which fused and training-form
    full-model outputs may differ.

    Each block contributes a fresh boundary band of ``stack_radius`` (the
    per-stage zero padding of a stack is not equivalent to the single
    padding of its dense kernel) and every 3x3 convolution downstream of
    a contaminated band spreads it inward by one pixel, so the band
    accumulates across depth: blocks * (stack_radius + 1) plus one for
    the tail convolution. Multiply by ``scale`` for the margin in output
    pixels. Models with the squeeze-excitation gate enabled additionally
    leak a small boundary-dependent difference into every pixel through
    the global average pool, so a strict interior-equivalence bound only
    holds for ``no_se`` configurations; see the fusion notes in README.
    """
    return config.num_blocks * (stack_radius(config) + 1) + 1
