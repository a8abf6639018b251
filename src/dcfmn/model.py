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
backward, fusion, MAC accounting and checkpoint checks all walk it, and
:func:`_apply` / :func:`_apply_vjp` run every layer. Both forms run each
LFEM's expand and branches as one C -> 2C 3x3 conv, folded once per step
in training form (:func:`_operands`); fusion stores that fold and
collapses each stack into one dense depthwise conv.

Parameters live in a flat path -> array store; every routine that must
be deterministic iterates it in lexicographic path order. Gradients are
hand-composed from the per-op vjps in ``dcfmn.nn``; there is no tape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .nn import ConfigError, ConvSpec, ShapeError
from .reparam import compose_stack_to_dense, effective_kernel_size, fuse_parallel_3x3

ParamStore = dict  # str path -> np.ndarray; iterate with sorted() for determinism

SCALES = (2, 3, 4)  # the supported upscaling factors

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
        if self.scale not in SCALES:
            raise ConfigError(f"scale must be one of {SCALES}, got {self.scale}")
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
    its (parameter path, shape) pairs in init order; :func:`_operands` maps
    them to its op's operands. Unless ``fold`` is None they are a 1x1
    expand and parallel 3x3 branches, folded into one conv with (True) or
    without the identity in the branch sum.
    ``border`` is how far its input extends past the block's extents on
    each side (see :func:`_describe`)."""

    path: str
    kind: str
    spec: ConvSpec | None
    tensors: tuple
    border: int = 0
    fold: bool | None = None


def _conv_layer(path: str, spec: ConvSpec, border: int = 0, edge: bool = False) -> Layer:
    k = spec.kernel
    return Layer(path, "conv", spec, ((f"{path}.weight", spec.weight_shape),
                                      (f"{path}.bias", (1, spec.out_channels, 1, 1)))
                 + (((f"{path}.edge", (spec.out_channels, 1, k, k)),) if edge else ()), border)


class Block(NamedTuple):
    """One deep block: ``x' = dsmu(ln1(x)) + x`` then ``y = lfem(ln2(x')) + x'``."""

    ln1: Layer
    stacks: tuple  # per channel chunk, its depthwise conv stages in order
    mix: Layer
    ln2: Layer
    rep: Layer  # the LFEM's expand and 3x3 as one C -> 2C conv
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
    return []  # an absent SE gate


def _describe(config: ModelConfig, plans, folded: bool) -> Network:
    """The network whose chunk stacks run the ``(path suffix, kernel,
    dilation)`` stages of ``plans``. Each LFEM's ``rep`` holds its expand
    and 2C -> 2C 3x3 branches, or, when ``folded``, their fold."""
    c, cg, c2, mid = config.channels, config.chunk_channels, 2 * config.channels, config.se_mid

    def conv(path, *geometry):
        return _conv_layer(path, ConvSpec(*geometry))

    def stack(prefix, plan):
        # the chunk is zero-padded once by the padding of every stage after
        # the first, and each later stage crops its own padding off its
        # output, so the stack is its composed dense kernel at every pixel
        pads = [d * (k - 1) // 2 for _, k, d in plan]
        return tuple(_conv_layer(f"{prefix}{suffix}", ConvSpec(cg, cg, k, d, cg),
                                 border=sum(pads[max(si, 1):]))
                     for si, (suffix, k, d) in enumerate(plan))

    def norm(path):
        return Layer(path, "norm", None, tuple((f"{path}.{name}", (1, c, 1, 1))
                                               for name in ("gain", "bias")))

    blocks = []
    for i in range(config.num_blocks):
        p = f"blocks.{i:02d}"
        blocks.append(Block(
            ln1=norm(f"{p}.ln1"),
            stacks=tuple(stack(f"{p}.dsmu.stack{j}", plan) for j, plan in enumerate(plans)),
            mix=conv(f"{p}.dsmu.mix", c, c, 1),
            ln2=norm(f"{p}.ln2"),
            rep=_conv_layer(f"{p}.lfem.rep", ConvSpec(c, c2, 3), edge=True) if folded
            else Layer(f"{p}.lfem.rep", "conv", ConvSpec(c, c2, 3),
                       conv(f"{p}.lfem.expand", c, c2, 1).tensors + tuple(
                           pair for b in range(config.lfem_branches)
                           for pair in conv(f"{p}.lfem.branch{b}", c2, c2, 3).tensors),
                       fold=not config.no_self_residual),
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
    depthwise conv at ``stack{j}``, and each LFEM's ``rep`` stores the
    (weight, bias, edge) its expand, branches and self-residual fold into.
    """
    plans = [config.stack_plan(j) for j in range(4)]
    training = _describe(config, [[(f".stage{si}", k, d) for si, (k, d) in enumerate(plan)]
                                  for plan in plans], folded=False)
    dense = [[("", effective_kernel_size(plan), 1)] for plan in plans]
    return training, _describe(config, dense, folded=True)


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


def _inside(n: int, spec: ConvSpec, dtype) -> np.ndarray:
    """(n, k) 0/1 matrix: tap i of output row (or column) y of an n-pixel
    axis reads inside the image."""
    pos = np.arange(n)[:, None] + spec.dilation * np.arange(spec.kernel) - spec.padding
    return ((pos >= 0) & (pos < n)).astype(dtype)


def _edge_conv2d(x, weight, bias, edge, spec: ConvSpec):
    """``nn.conv2d`` plus, at each output pixel, the sum of ``edge[:, 0, i, j]``
    over the taps (i, j) that read inside the image: what a 1x1 conv's bias
    contributes through a conv that zero-pads its output. The sum is constant
    inside the ring of width ``spec.padding``, so it rides on the conv bias
    and only the ring is corrected; no full-size map is built."""
    e = edge[:, 0]
    full = e.sum(axis=(1, 2))
    out = nn.conv2d(x, weight, bias + full.reshape(bias.shape), spec)
    h, w = out.shape[2:]
    p = spec.padding
    rows, cols = _inside(h, spec, e.dtype), _inside(w, spec, e.dtype)
    ring = np.r_[: min(p, h), max(p, h - p) : h]  # the top and bottom rows
    out[:, :, ring] += rows[ring] @ e @ cols.T - full[:, None, None]
    ring = np.r_[: min(p, w), max(p, w - p) : w]  # the left and right columns in between
    out[:, :, p : h - p, ring] += (e.sum(axis=1) @ cols[ring].T - full[:, None])[:, None]
    return out


def _edge_conv2d_vjp(x, weight, bias, edge, spec: ConvSpec, dy):
    """(dx, dweight, dbias, dedge) of :func:`_edge_conv2d`: the edge gradient
    sums the upstream over the pixels where each tap reads inside the image."""
    h, w = dy.shape[2:]
    dedge = _inside(h, spec, dy.dtype).T @ dy.sum(axis=0) @ _inside(w, spec, dy.dtype)
    return (*nn.conv2d_vjp(x, weight, bias, spec, dy), dedge[:, None])


def _operands(params, layer: Layer):
    """(the operands of ``layer``'s op, the adjoint mapping their gradients
    to its tensors): without a fold, the tensors and the identity. A fold
    sums the branches (and the identity) into one 2C -> 2C kernel ``w`` and
    folds the expand 1x1 into it in float64; as the branches zero-pad its
    output, its bias reaches tap (i, j) only inside the image: the conv's
    ``edge[:, 0, i, j] = w[:, :, i, j] @ expand bias``."""
    args = [params[path] for path, _ in layer.tensors]
    if layer.fold is None:
        return args, lambda *grads: grads
    ew, eb, *branches = args
    w, b = fuse_parallel_3x3(branches[0::2], branches[1::2], include_identity=layer.fold)
    taps = w.astype(np.float64).transpose(0, 2, 3, 1)  # (o, i, j, expand channel)
    weight = (taps @ ew.astype(np.float64)[:, :, 0, 0]).transpose(0, 3, 1, 2)
    edge = (taps @ eb.astype(np.float64).reshape(-1))[:, None]

    def adjoint(dweight, dbias, dedge):
        dedge, einsum = dedge[:, 0], functools.partial(np.einsum, optimize=True)
        dw = einsum("ocij,ec->oeij", dweight, ew[:, :, 0, 0]) + einsum(
            "oij,e->oeij", dedge, eb.reshape(-1))
        dew = einsum("oeij,ocij->ec", w, dweight).reshape(ew.shape)
        deb = einsum("oeij,oij->e", w, dedge).reshape(eb.shape)
        return (dew, deb, *(dw, dbias) * (len(branches) // 2))

    return (weight.astype(w.dtype, order="C"), b, edge.astype(w.dtype)), adjoint


def _apply(params, layer: Layer, x, operands=None):
    """``layer`` on ``x``; a conv with three operands runs :func:`_edge_conv2d`.
    A caller that passes ``operands`` (from :func:`_operands`) spares a fold."""
    args = (operands or _operands(params, layer))[0]
    if layer.kind == "conv":
        return (_edge_conv2d if len(args) == 3 else nn.conv2d)(x, *args, layer.spec)
    if layer.kind == "norm":
        return nn.layer_norm(x, *args)
    return nn.se_block(x, *args)


def _apply_vjp(params, layer: Layer, x, dy, grads, operands=None, **kwargs):
    """Stores the layer's parameter gradients in ``grads``; returns the input's."""
    args, adjoint = operands or _operands(params, layer)
    if layer.kind == "conv":
        vjp = _edge_conv2d_vjp if len(args) == 3 else nn.conv2d_vjp
        dx, *dparams = vjp(x, *args, layer.spec, dy, **kwargs)
    elif layer.kind == "norm":
        dx, *dparams = nn.layer_norm_vjp(x, *args, dy)
    else:
        dx, *dparams = nn.se_block_vjp(x, *args, dy)
    grads.update(zip([path for path, _ in layer.tensors], adjoint(*dparams)))
    return dx


def _reborder(x, delta: int):
    """Zero-pad (delta > 0) or crop (delta < 0) |delta| pixels per side: mutual adjoints."""
    if delta > 0:
        return np.pad(x, ((0, 0), (0, 0), (delta, delta), (delta, delta)))
    return x[..., -delta:delta, -delta:delta] if delta else x


def _dsmu_fwd(params, blk: Block, x):
    cat = None  # the mix input: each stack writes its chunk's channel slice
    stage_inputs = []
    for j, (stages, part) in enumerate(zip(blk.stacks, np.split(x, len(blk.stacks), axis=1))):
        ins, border = [], 0  # (border change, stage input before it): no padded copy is kept
        for stage in stages:
            delta, border = stage.border - border, stage.border
            ins.append((delta, part))
            part = _apply(params, stage, _reborder(part, delta))
        stage_inputs.append(ins)
        if cat is None:
            cat = np.empty(x.shape, part.dtype)
        cc = part.shape[1]
        cat[:, j * cc : (j + 1) * cc] = _reborder(part, -border)
    mixed = _apply(params, blk.mix, cat)
    y = nn.gelu(mixed)
    y += x
    return y, (stage_inputs, cat, mixed)


def _dsmu_bwd(params, blk: Block, cache, dy, grads):
    stage_inputs, cat, mixed = cache
    dcat = _apply_vjp(params, blk.mix, cat, nn.gelu_vjp(mixed, dy), grads)
    dparts = np.split(dcat, len(blk.stacks), axis=1)
    dx_parts = []
    for stages, ins, dpart in zip(blk.stacks, stage_inputs, dparts):
        dpart = _reborder(dpart, stages[-1].border)
        for stage, (delta, inp) in zip(reversed(stages), reversed(ins)):
            dx = _apply_vjp(params, stage, _reborder(inp, delta), dpart, grads)
            dpart = _reborder(dx, -delta)
        dx_parts.append(dpart)
    return np.concatenate(dx_parts, axis=1) + dy


def _lfem_fwd(params, blk: Block, x, keep: bool = True):
    """The LFEM and its backward cache, which keeps the rep's operands so a
    step folds it once. Without ``keep`` there is no cache, and the input
    and each intermediate are freed once the next is made."""
    operands = _operands(params, blk.rep)
    pre = _apply(params, blk.rep, x, operands)
    cache = (x, operands, pre) if keep else ()
    del x
    act = nn.gelu(pre)
    cache += (act,) if keep else ()
    del pre
    gated = act if blk.se is None else _apply(params, blk.se, act)
    cache += (gated,) if keep else ()
    del act
    return _apply(params, blk.reduce, gated), cache or None


def _lfem_bwd(params, blk: Block, cache, dy, grads):
    x, operands, pre, act, gated = cache
    dgated = _apply_vjp(params, blk.reduce, gated, dy, grads)
    dact = dgated if blk.se is None else _apply_vjp(params, blk.se, act, dgated, grads)
    return _apply_vjp(params, blk.rep, x, nn.gelu_vjp(pre, dact), grads, operands)


def _block_fwd(params, blk: Block, x, keep: bool = True):
    """One deep block and its backward cache. Inference passes keep=False: the
    block then returns no cache, frees the DSMU's intermediates before the
    LFEM runs and lets the LFEM free its own as it goes."""
    xp, dsmu_cache = _dsmu_fwd(params, blk, _apply(params, blk.ln1, x))
    if not keep:
        dsmu_cache = None
    xp += x
    y, lfem_cache = _lfem_fwd(params, blk, _apply(params, blk.ln2, xp), keep)
    y += xp
    return y, (x, dsmu_cache, xp, lfem_cache) if keep else None


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
    """Expand 1x1 and parallel 3x3 sum, as one C -> 2C 3x3 -> GELU -> SE -> reduce 1x1."""
    return _lfem_fwd(model.params, _network(model).blocks[block_index], x)[0]


def dsmb_forward(model: Model, block_index: int, x: np.ndarray) -> np.ndarray:
    """One deep block: pre-norm DSMU residual then pre-norm LFEM residual."""
    return _block_fwd(model.params, _network(model).blocks[block_index], x, keep=False)[0]


def upsample_reconstruct(model: Model, f_k: np.ndarray, f_0: np.ndarray) -> np.ndarray:
    """Tail 3x3 on (f_k + f_0) to 3*scale^2 channels, then pixel shuffle."""
    if f_k.shape != f_0.shape:
        raise ShapeError("deep and shallow features disagree in extents")
    t = _apply(model.params, _network(model).tail, f_k + f_0)
    return nn.pixel_shuffle(t, model.config.scale)


def _walk(model: Model, x: np.ndarray, keep: bool):
    """Head, blocks and tail on ``x``: (output, backward cache). Without
    ``keep`` there is no cache, and each block frees its intermediates."""
    net = _network(model)
    f = f0 = shallow_extract(model, x)
    block_caches = []
    for blk in net.blocks:
        f, cache = _block_fwd(model.params, blk, f, keep)
        block_caches.append(cache)
    # the cache's copy of the tail input is made apart, so that inference
    # frees the sum before the shuffle allocates the output
    return upsample_reconstruct(model, f, f0), (x, block_caches, f + f0) if keep else None


def model_forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Super-resolve a (n, 3, h, w) batch to (n, 3, h*scale, w*scale).

    Keeps no backward cache: a block's intermediates are freed when it returns."""
    return _walk(model, x, keep=False)[0]


def model_forward_cached(model: Model, x: np.ndarray):
    """(model_forward output, cache for :func:`model_backward_from_cache`).

    The cache serves one backward, which frees it block by block."""
    return _walk(model, x, keep=True)


def model_backward_from_cache(model: Model, cache, upstream: np.ndarray) -> ParamStore:
    """Gradient store of sum(upstream * output) from a
    :func:`model_forward_cached` cache. The backward consumes the cache: it
    pops each block's activations as it reaches them, so they are freed once
    that block's backward returns, and a used cache raises ``ValueError``."""
    net = _network(model)
    x, block_caches, skip = cache
    if len(block_caches) != len(net.blocks):
        raise ValueError("the cache was already used by a backward")
    grads: ParamStore = {}
    dskip = _apply_vjp(model.params, net.tail, skip,
                       nn.pixel_shuffle_vjp(upstream, model.config.scale), grads)
    df = dskip
    for blk in reversed(net.blocks):
        df = _block_bwd(model.params, blk, block_caches.pop(), df, grads)
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
    """Inference-form copy: each dilated stack collapsed to one dense kernel,
    exact at every pixel as each stack is padded once, as its dense kernel
    is; and each LFEM's fold (:func:`_operands`) stored. Fusing an
    already fused model is the identity."""
    if model.fused:
        return model.copy()
    cfg = model.config
    old = model.params
    training, fused = _forms(cfg)
    new: ParamStore = {}

    def put(layer, *tensors):
        for (path, _), tensor in zip(layer.tensors, tensors, strict=True):
            new[path] = tensor.astype(cfg.np_dtype, order="C")

    for blk, fused_blk in zip(training.blocks, fused.blocks):
        for stages, (dense,) in zip(blk.stacks, fused_blk.stacks):
            weights, biases = zip(*(_operands(old, stage)[0] for stage in stages))
            put(dense, *compose_stack_to_dense(weights, biases,
                                               [stage.spec.dilation for stage in stages]))
        put(fused_blk.rep, *_operands(old, blk.rep)[0])
    for layer in _flatten(fused):
        for path, _ in layer.tensors:
            if path not in new:
                new[path] = old[path].copy()
    return Model(cfg, new, fused=True)
