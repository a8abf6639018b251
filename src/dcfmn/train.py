"""Deterministic training loop: Adam, cosine annealing, EMA shadow weights.

All randomness (batch choice, patch positions, augmentation) flows
through one seeded generator held in the training state, so a fixed
(seed, config, dataset) triple reproduces the loss trace and the final
parameter stores bit for bit on the same build. Parameter iteration is
in lexicographic path order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_dataset, sample_patch_pair, to_real
from .loss import LossWeights, composite_loss_detailed
from .model import Model, model_backward_from_cache, model_forward_cached
from .nn import ConfigError


@dataclass(frozen=True)
class TrainConfig:
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    lr_init: float = 1e-3
    lr_min: float = 1e-6
    total_iters: int = 2000
    ema_decay: float = 0.999
    batch_size: int = 8
    patch_size: int = 32
    seed: int = 0
    loss_weights: LossWeights = field(default_factory=LossWeights)
    augment: bool = True
    trace_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("Adam betas must lie in (0, 1)")
        for name in ("eps", "lr_init", "lr_min"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eps <= 0:
            raise ConfigError("Adam eps must be positive")
        if self.lr_min > self.lr_init:
            raise ConfigError("lr_min must not exceed lr_init")
        if self.total_iters < 1:
            raise ConfigError("total_iters must be >= 1")
        if not (0.0 < self.ema_decay < 1.0):
            raise ConfigError("ema_decay must lie in (0, 1)")
        if self.batch_size < 1 or self.patch_size < 1:
            raise ConfigError("batch_size and patch_size must be positive")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be >= 1")


@dataclass
class TrainState:
    iteration: int
    params: dict
    m: dict
    v: dict
    ema: dict
    rng: np.random.Generator


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    lr: float
    l1: float
    freq: float
    total: float


def init_train_state(model: Model, config: TrainConfig) -> TrainState:
    params = {k: v.copy() for k, v in model.params.items()}
    return TrainState(
        iteration=0,
        params=params,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
        ema={k: v.copy() for k, v in params.items()},
        rng=np.random.default_rng(config.seed),
    )


def cosine_lr(t: int, config: TrainConfig) -> float:
    """lr_min + 0.5 * (lr_init - lr_min) * (1 + cos(pi * t / total_iters))."""
    if not 0 <= t <= config.total_iters:
        raise ValueError(f"iteration {t} outside [0, {config.total_iters}]")
    span = config.lr_init - config.lr_min
    # a Python float: a numpy float64 would promote the float32 Adam update
    return float(config.lr_min + 0.5 * span * (1.0 + np.cos(np.pi * t / config.total_iters)))


def adam_step(state: TrainState, grads: dict, lr: float, config: TrainConfig) -> TrainState:
    """Bias-corrected Adam update, in place; increments the iteration."""
    if sorted(grads) != sorted(state.params):
        raise KeyError("gradient store paths do not match the parameter store")
    t = state.iteration + 1
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for path in sorted(state.params):
        g = grads[path]
        m = state.m[path]
        v = state.v[path]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        state.params[path] -= (lr / c1) * m / (np.sqrt(v / c2) + config.eps)
    state.iteration = t
    return state


def ema_update(state: TrainState, config: TrainConfig) -> TrainState:
    """shadow <- decay * shadow + (1 - decay) * theta, per element."""
    d = config.ema_decay
    for path in sorted(state.ema):
        shadow = state.ema[path]
        shadow *= d
        shadow += (1.0 - d) * state.params[path]
    return state


def _batch_tensors(dataset, scale, config, rng, dtype):
    idx = rng.integers(0, len(dataset), size=config.batch_size)
    hrs = []
    lrs = []
    for i in idx:
        hr, lr = dataset[int(i)]
        hp, lp = sample_patch_pair(hr, lr, scale, config.patch_size, rng,
                                   augment=config.augment)
        hrs.append(to_real(hp, dtype).transpose(2, 0, 1))
        lrs.append(to_real(lp, dtype).transpose(2, 0, 1))
    return np.stack(hrs), np.stack(lrs)


def _check_finite(iteration: int, total: float, grads: dict) -> None:
    """Stop before a non-finite loss or gradient reaches the parameters."""
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite loss {total} at iteration {iteration}")
    for path in sorted(grads):
        if not np.isfinite(grads[path]).all():
            raise FloatingPointError(
                f"non-finite gradient for {path} at iteration {iteration}")


def train(model: Model, dataset, config: TrainConfig,
          checkpoint_every: int = 0, checkpoint_fn=None):
    """Run the loop; returns (final model, EMA model, list of TraceRecord).

    ``dataset`` is a list of (hr, lr) uint8 pairs at the model's scale.
    The input model is left untouched. The EMA shadow starts at the
    initial parameters; evaluation conventionally prefers it once the
    run is long relative to its 1/(1 - decay) time constant. When
    ``checkpoint_every`` is positive, ``checkpoint_fn(iteration, model,
    ema_model)`` receives parameter snapshots mid-run. A non-finite loss
    or gradient raises ``FloatingPointError`` naming the iteration (as
    counted in the trace) before the update that would spread it.
    """
    scale = model.config.scale
    check_dataset(dataset, scale, config.patch_size)
    state = init_train_state(model, config)
    work = Model(model.config, state.params, model.fused)
    dtype = model.config.np_dtype
    trace: list[TraceRecord] = []
    for it in range(config.total_iters):
        lr_now = cosine_lr(it, config)
        hr_t, lr_t = _batch_tensors(dataset, scale, config, state.rng, dtype)
        # _check_finite reports a step that overflows, in place of numpy's warnings
        with np.errstate(all="ignore"):
            sr, cache = model_forward_cached(work, lr_t)
            total, l1v, fv, dsr = composite_loss_detailed(sr, hr_t, config.loss_weights)
            grads = model_backward_from_cache(work, cache, dsr)
        _check_finite(it, total, grads)
        adam_step(state, grads, lr_now, config)
        ema_update(state, config)
        if it % config.trace_every == 0 or it == config.total_iters - 1:
            trace.append(TraceRecord(it, lr_now, l1v, fv, total))
        done = it + 1
        if (checkpoint_fn is not None and checkpoint_every > 0
                and done % checkpoint_every == 0 and done < config.total_iters):
            snap = Model(model.config, {k: v.copy() for k, v in state.params.items()},
                         model.fused)
            snap_ema = Model(model.config, {k: v.copy() for k, v in state.ema.items()},
                             model.fused)
            checkpoint_fn(done, snap, snap_ema)
    final = Model(model.config, state.params, model.fused)
    shadow = Model(model.config, state.ema, model.fused)
    return final, shadow, trace


TRACE_HEADER = "iteration,lr,l1,freq,total"


def trace_csv(trace) -> str:
    """Fixed-format CSV (stable across runs for identical traces)."""
    lines = [TRACE_HEADER]
    for r in trace:
        lines.append(
            f"{r.iteration},{r.lr:.10e},{r.l1:.10e},{r.freq:.10e},{r.total:.10e}"
        )
    return "\n".join(lines) + "\n"
