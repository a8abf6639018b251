import tracemalloc

import numpy as np
import pytest

from dcfmn import data, train
from dcfmn import model as M
from dcfmn.loss import LossWeights
from dcfmn.nn import ConfigError


def tiny_model(seed=0, **kw):
    base = dict(scale=2, channels=8, num_blocks=1)
    base.update(kw)
    return M.init_model(M.ModelConfig(**base), seed=seed)


def toy_dataset(rng, n=4, size=24, scale=2):
    pairs = []
    for _ in range(n):
        smooth = data.bicubic_resize(rng.random((size, size)), size, size)
        hr = data.to_image8(np.stack([smooth] * 3, axis=2))
        pairs.append((hr, data.degrade(hr, scale)))
    return pairs


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        train.TrainConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        train.TrainConfig(lr_min=1e-2, lr_init=1e-3)
    for lr_init, lr_min in [(1e-3, -1e-3), (-1e-3, -2e-3)]:  # ascent late in the schedule
        with pytest.raises(ConfigError, match="lr_min must be >= 0"):
            train.TrainConfig(lr_init=lr_init, lr_min=lr_min)
    with pytest.raises(ConfigError):
        train.TrainConfig(total_iters=0)
    with pytest.raises(ConfigError):
        train.TrainConfig(ema_decay=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["eps", "lr_init", "lr_min"])
def test_train_config_rejects_non_finite(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        train.TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# cosine schedule
# ---------------------------------------------------------------------------


def test_cosine_lr_endpoints_and_midpoint():
    cfg = train.TrainConfig(total_iters=1000)
    assert train.cosine_lr(0, cfg) == pytest.approx(1e-3, rel=1e-12)
    assert train.cosine_lr(1000, cfg) == pytest.approx(1e-6, rel=1e-9)
    assert train.cosine_lr(500, cfg) == pytest.approx(5.005e-4, rel=1e-9)


def test_cosine_lr_keeps_float32_updates_float32():
    # a numpy float64 learning rate would promote every float32 Adam update
    cfg = train.TrainConfig(total_iters=10)
    for t in (0, 5, 10):
        assert np.result_type(train.cosine_lr(t, cfg), np.float32) == np.float32


def test_cosine_lr_monotone_decreasing():
    cfg = train.TrainConfig(total_iters=100)
    values = [train.cosine_lr(t, cfg) for t in range(101)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_lr_range_check():
    cfg = train.TrainConfig(total_iters=10)
    with pytest.raises(ValueError):
        train.cosine_lr(11, cfg)
    with pytest.raises(ValueError):
        train.cosine_lr(-1, cfg)


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def _scalar_state(theta, cfg):
    params = {"w": np.array([theta], dtype=np.float64)}
    model = M.Model(M.ModelConfig(scale=2, channels=8, num_blocks=1, dtype="float64"),
                    params)
    # hand-build a state around a single scalar parameter
    return train.TrainState(
        iteration=0,
        params={k: v.copy() for k, v in params.items()},
        m={"w": np.zeros(1)},
        v={"w": np.zeros(1)},
        ema={k: v.copy() for k, v in params.items()},
        rng=np.random.default_rng(cfg.seed),
    )


def test_adam_zero_gradient_keeps_params():
    cfg = train.TrainConfig()
    state = _scalar_state(0.7, cfg)
    train.adam_step(state, {"w": np.zeros(1)}, 1e-3, cfg)
    assert state.params["w"][0] == 0.7
    assert state.iteration == 1


def test_adam_first_step_magnitude_hand_derived():
    # theta=0, g=1: m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
    cfg = train.TrainConfig()
    state = _scalar_state(0.0, cfg)
    lr = 1e-3
    train.adam_step(state, {"w": np.ones(1)}, lr, cfg)
    assert state.params["w"][0] == pytest.approx(-lr, abs=1e-9)


def test_adam_moment_decay_toward_zero():
    cfg = train.TrainConfig()
    state = _scalar_state(0.0, cfg)
    train.adam_step(state, {"w": np.ones(1)}, 1e-3, cfg)
    m1 = state.m["w"][0]
    for _ in range(5):
        train.adam_step(state, {"w": np.zeros(1)}, 1e-3, cfg)
    assert abs(state.m["w"][0]) < abs(m1)


def test_adam_bit_identical_runs():
    cfg = train.TrainConfig()
    runs = []
    for _ in range(2):
        state = _scalar_state(0.3, cfg)
        g = np.array([0.5])
        for _ in range(10):
            train.adam_step(state, {"w": g}, 1e-3, cfg)
        runs.append(state.params["w"][0])
    assert runs[0] == runs[1]


def test_adam_step_bound():
    # |delta| stays within 10 * lr elementwise on random gradients
    rng = np.random.default_rng(0)
    cfg = train.TrainConfig()
    state = _scalar_state(0.0, cfg)
    lr = 1e-3
    prev = state.params["w"][0]
    for _ in range(50):
        g = rng.standard_normal(1) * 10.0 ** float(rng.integers(-3, 3))
        train.adam_step(state, {"w": g}, lr, cfg)
        step = abs(state.params["w"][0] - prev)
        assert step <= 10 * lr
        prev = state.params["w"][0]


def test_adam_rejects_path_mismatch():
    cfg = train.TrainConfig()
    state = _scalar_state(0.0, cfg)
    with pytest.raises(KeyError):
        train.adam_step(state, {"wrong": np.ones(1)}, 1e-3, cfg)


# ---------------------------------------------------------------------------
# ema
# ---------------------------------------------------------------------------


def test_ema_single_update_formula():
    cfg = train.TrainConfig(ema_decay=0.999)
    state = _scalar_state(0.0, cfg)
    state.ema["w"][0] = 1.0  # shadow a
    state.params["w"][0] = 2.0  # theta b
    train.ema_update(state, cfg)
    assert state.ema["w"][0] == pytest.approx(0.999 * 1.0 + 0.001 * 2.0, rel=1e-12)


def test_ema_geometric_convergence_closed_form():
    cfg = train.TrainConfig(ema_decay=0.999)
    state = _scalar_state(0.0, cfg)
    a, b, n = 3.0, -1.0, 200
    state.ema["w"][0] = a
    state.params["w"][0] = b
    for _ in range(n):
        train.ema_update(state, cfg)
    want = b + (a - b) * 0.999**n
    assert state.ema["w"][0] == pytest.approx(want, rel=1e-9)


def test_ema_convex_combination_bounds():
    cfg = train.TrainConfig(ema_decay=0.9)
    state = _scalar_state(0.0, cfg)
    state.ema["w"][0] = 0.0
    history = []
    for k in range(20):
        state.params["w"][0] = float(k)  # monotone parameter history
        train.ema_update(state, cfg)
        history.append(float(k))
        assert min(history + [0.0]) <= state.ema["w"][0] <= max(history)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_rejects_empty_and_oversized_patch(rng):
    m = tiny_model()
    with pytest.raises(ValueError):
        train.train(m, [], train.TrainConfig(total_iters=1))
    ds = toy_dataset(rng, n=1, size=16)
    with pytest.raises(ValueError):
        train.train(m, ds, train.TrainConfig(total_iters=1, patch_size=64))


def test_train_seed_reproducibility(rng):
    ds = toy_dataset(rng)
    cfg = train.TrainConfig(total_iters=6, batch_size=2, patch_size=8, seed=5,
                            loss_weights=LossWeights(1.0, 0.05))
    runs = []
    for _ in range(2):
        final, shadow, trace = train.train(tiny_model(seed=3), ds, cfg)
        runs.append((final, shadow, trace))
    t1, t2 = runs[0][2], runs[1][2]
    assert train.trace_csv(t1) == train.trace_csv(t2)
    for k in runs[0][0].params:
        np.testing.assert_array_equal(runs[0][0].params[k], runs[1][0].params[k])
        np.testing.assert_array_equal(runs[0][1].params[k], runs[1][1].params[k])


def test_train_lr_trace_matches_schedule(rng):
    ds = toy_dataset(rng)
    cfg = train.TrainConfig(total_iters=5, batch_size=2, patch_size=8, seed=1)
    _, _, trace = train.train(tiny_model(), ds, cfg)
    for rec in trace:
        assert rec.lr == pytest.approx(train.cosine_lr(rec.iteration, cfg), rel=1e-12)


def test_train_loss_decreases_on_toy_set(rng):
    ds = toy_dataset(rng, n=4, size=24)
    cfg = train.TrainConfig(total_iters=200, batch_size=4, patch_size=8, seed=2,
                            loss_weights=LossWeights(1.0, 0.05))
    _, _, trace = train.train(tiny_model(seed=1), ds, cfg)
    early = np.mean([r.total for r in trace[5:20]])
    late = np.mean([r.total for r in trace[-15:]])
    assert late <= 0.5 * early


def test_train_does_not_mutate_input_model(rng):
    m = tiny_model(seed=4)
    before = {k: v.copy() for k, v in m.params.items()}
    ds = toy_dataset(rng)
    train.train(m, ds, train.TrainConfig(total_iters=2, batch_size=1, patch_size=8))
    for k in before:
        np.testing.assert_array_equal(m.params[k], before[k])


@pytest.mark.filterwarnings("error")
def test_train_stops_on_non_finite_loss(rng, monkeypatch):
    updates = []
    adam = train.adam_step
    monkeypatch.setattr(train, "adam_step", lambda *a: updates.append(1) or adam(*a))
    cfg = train.TrainConfig(total_iters=6, batch_size=2, patch_size=8, seed=1,
                            lr_init=1e8)
    with pytest.raises(FloatingPointError, match="non-finite loss .* at iteration 1$"):
        train.train(tiny_model(), toy_dataset(rng), cfg)
    assert len(updates) == 1  # the diverged iteration made no update


def test_train_stops_on_non_finite_gradient(rng, monkeypatch):
    backward = train.model_backward_from_cache

    def poisoned(*args):
        grads = backward(*args)
        grads["tail.bias"][0, 1] = np.inf
        return grads

    monkeypatch.setattr(train, "model_backward_from_cache", poisoned)
    monkeypatch.setattr(train, "adam_step", lambda *a: pytest.fail("update ran"))
    cfg = train.TrainConfig(total_iters=2, batch_size=2, patch_size=8)
    with pytest.raises(FloatingPointError,
                       match="non-finite gradient for tail.bias at iteration 0$"):
        train.train(tiny_model(), toy_dataset(rng), cfg)


def test_train_holds_one_forward_cache(rng):
    # the backward frees each step's block caches, so a longer run peaks
    # no higher than one step; holding step t's cache through step t+1's
    # forward would add about one cache
    m = tiny_model(seed=5, num_blocks=6)
    ds = toy_dataset(rng, n=2, size=32)

    def traced(run):
        tracemalloc.start()
        try:
            kept = run()  # noqa: F841 (held while the memory is read)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def peak(iters):
        cfg = train.TrainConfig(total_iters=iters, batch_size=4, patch_size=12, seed=6)
        return traced(lambda: train.train(m, ds, cfg))[1]

    peak(1)  # what is built once (the layer description, numpy's FFT plans) is built here
    x = np.zeros((4, 3, 12, 12), np.float32)
    cache_bytes = traced(lambda: M.model_forward_cached(m, x)[1])[0]
    assert peak(3) - peak(1) < 0.25 * cache_bytes


def test_ema_model_differs_from_final_and_tracks(rng):
    ds = toy_dataset(rng)
    cfg = train.TrainConfig(total_iters=10, batch_size=2, patch_size=8, seed=3)
    final, shadow, _ = train.train(tiny_model(seed=2), ds, cfg)
    diffs = [np.abs(final.params[k] - shadow.params[k]).max() for k in final.params]
    assert max(diffs) > 0.0  # shadow lags after a short run


def test_trace_csv_format(rng):
    ds = toy_dataset(rng)
    cfg = train.TrainConfig(total_iters=3, batch_size=1, patch_size=8)
    _, _, trace = train.train(tiny_model(), ds, cfg)
    text = train.trace_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,lr,l1,freq,total"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        int(fields[0])
        [float(f) for f in fields[1:]]
