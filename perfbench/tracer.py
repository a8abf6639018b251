"""In-memory span tracer that wraps dcfmn functions from outside the library.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (None at top level) and ``op`` labels the operation it belongs
to ("setup", or the index of a training step or frame). Each wrapper sits at
the name its caller looks up: a module attribute where the caller writes
``nn.conv2d`` or ``D.to_image8``, and the caller's own ``from ... import``
binding otherwise. The library itself is never edited; ``uninstall`` puts
every original back.

Counters (MACs, bytes, float64 results, ...) are computed from tensor shapes
and dtypes, never measured, and are keyed by ``(op, name)`` like the spans.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

MB = float(1 << 20)

CONV_CLASSES = ("pw", "dense.k3", "dw.k3", "dw.k5", "dw.k7", "dw.k13", "dw.k17")
VJP_CLASSES = ("pw", "dense.k3", "dw.k3")
NN_SELF = ("gelu", "gelu_vjp", "layer_norm", "layer_norm_vjp", "se_block",
           "se_block_vjp", "pixel_shuffle", "pixel_shuffle_vjp")
# Counters that must read the same for every operation of a run and for
# every run of the same code.
EXACT_COUNTERS = ("nn.calls", "nn.f64_calls", "model.forward.cache_bytes")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def conv_class(spec) -> str:
    """Shape class of a ConvSpec: pw, dense.kK, dw.kK or grouped.kK."""
    if spec.groups == 1:
        return "pw" if spec.kernel == 1 else f"dense.k{spec.kernel}"
    if spec.groups == spec.in_channels == spec.out_channels:
        return f"dw.k{spec.kernel}"
    return f"grouped.k{spec.kernel}"


def conv_macs(x_shape, spec) -> int:
    """out_h * out_w * out_c * (in_c / groups) * k^2 per image, times the batch."""
    n, _, h, w = x_shape
    return n * h * w * spec.out_channels * (spec.in_channels // spec.groups) * spec.kernel ** 2


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def owned_bytes(value) -> int:
    """Bytes of the distinct buffers behind every array in a nested structure."""
    seen = {}
    for arr in _arrays(value):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        seen[id(arr)] = arr.nbytes
    return sum(seen.values())


# -- counters recorded after a wrapped call returns ---------------------------


def count_nn(tracer, name, args, kwargs, out):
    # every benchmark model is float32, so a float64 result is a promotion
    tracer.add("nn.calls", 1)
    if any(a.dtype == np.float64 for a in _arrays(out)):
        tracer.add("nn.f64_calls", 1)


def count_conv(tracer, name, args, kwargs, out):
    count_nn(tracer, name, args, kwargs, out)
    x, weight = args[0], args[1]
    spec = _arg(args, kwargs, 3, "spec")
    tracer.add(name + ".macs", conv_macs(x.shape, spec))
    tracer.add(name + ".bytes", x.nbytes + weight.nbytes + out.nbytes)


def count_conv_vjp(tracer, name, args, kwargs, out):
    """MACs done in the VJP's own body: the weight gradient, plus the input
    gradient of a 1x1 conv, which the VJP computes inline (larger kernels get
    it from a child conv2d span, counted there)."""
    count_nn(tracer, name, args, kwargs, out)
    x = args[0]
    spec = _arg(args, kwargs, 3, "spec")
    macs = conv_macs(x.shape, spec)
    if out[0] is not None and spec.kernel == 1 and spec.groups == 1:
        macs *= 2
    tracer.add(name + ".macs", macs)


def count_cache(tracer, name, args, kwargs, out):
    tracer.add("model.forward.cache_bytes", owned_bytes(out[1]))


def count_planes(tracer, name, args, kwargs, out):
    tracer.add("fourier.planes", int(np.prod(args[0].shape[:-2])))


def count_png_bytes(tracer, name, args, kwargs, out):
    tracer.add("png.encode_png.bytes", len(out))


def count_checkpoint_bytes(tracer, name, args, kwargs, out):
    tracer.add("checkpoint.model_from_bytes.bytes", len(args[0]))


def nn_table():
    """Every public tensor function of dcfmn.nn, keyed by its own name."""
    nn = importlib.import_module("dcfmn.nn")
    table = []
    for attr, fn in inspect.getmembers(nn, inspect.isfunction):
        if fn.__module__ != nn.__name__ or attr.startswith("_") or attr == "check_tensor4":
            continue
        if attr == "conv2d":
            span = lambda a, k: "nn.conv2d." + conv_class(_arg(a, k, 3, "spec"))  # noqa: E731
            table.append(("dcfmn.nn", attr, span, count_conv))
        elif attr == "conv2d_vjp":
            span = lambda a, k: "nn.conv2d_vjp." + conv_class(_arg(a, k, 3, "spec"))  # noqa: E731
            table.append(("dcfmn.nn", attr, span, count_conv_vjp))
        else:
            table.append(("dcfmn.nn", attr, "nn." + attr, count_nn))
    return table


class Tracer:
    """Records spans and counters while ``enabled``; wrappers pass through otherwise."""

    def __init__(self):
        self.enabled = True
        self.op = "setup"
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._installed: list = []

    def add(self, key, amount):
        self.counts[(self.op, key)] += amount

    def install(self, table):
        """table: rows of (module, attribute, span name or fn(args, kwargs) or
        None for a counter-only hook, counter fn or None)."""
        for module_name, attr, span, counter in table:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if span is None:
                out = fn(*args, **kwargs)
                counter(tracer, None, args, kwargs, out)
                return out
            name = span(args, kwargs) if callable(span) else span
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, 0.0, 0.0, parent, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, name, args, kwargs, out)
            return out

        return wrapper

    def per_op(self) -> dict:
        """{op: {key: value}}: per span name ``.s`` (inclusive seconds),
        ``.self_s`` (minus child spans) and ``.calls``, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        table: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = table[op]
            row[name + ".s"] += end - start
            row[name + ".self_s"] += end - start - child[i]
            row[name + ".calls"] += 1
        for (op, key), value in self.counts.items():
            table[op][key] += value
        return table

    def spans_json(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def _per_layer_rows():
    """(metric, unit, better, where, key, scale); where is "op" (median over
    traced operations), "setup" (the traced set-up) or "rate" (gmac / self_s)."""
    rows = []
    for c in CONV_CLASSES:
        p = f"nn.conv2d.{c}"
        rows += [(f"{p}.self_s", "s", "lower", "op", f"{p}.self_s", 1.0),
                 (f"{p}.calls", "count", "lower", "op", f"{p}.calls", 1.0),
                 (f"{p}.gmac", "GMAC", "lower", "op", f"{p}.macs", 1e-9),
                 (f"{p}.mb", "MB", "lower", "op", f"{p}.bytes", 1.0 / MB),
                 (f"{p}.gmac_per_s", "GMAC/s", "higher", "rate", p, 1e-9)]
    for c in VJP_CLASSES:
        p = f"nn.conv2d_vjp.{c}"
        rows += [(f"{p}.self_s", "s", "lower", "op", f"{p}.self_s", 1.0),
                 (f"{p}.calls", "count", "lower", "op", f"{p}.calls", 1.0),
                 (f"{p}.gmac", "GMAC", "lower", "op", f"{p}.macs", 1e-9)]
    rows += [(f"nn.{f}.self_s", "s", "lower", "op", f"nn.{f}.self_s", 1.0) for f in NN_SELF]
    rows += [
        ("nn.calls", "count", "lower", "op", "nn.calls", 1.0),
        ("nn.f64_calls", "count", "lower", "op", "nn.f64_calls", 1.0),
        ("model.forward.self_s", "s", "lower", "op", "model.forward.self_s", 1.0),
        ("model.backward.self_s", "s", "lower", "op", "model.backward.self_s", 1.0),
        ("model.forward.cache_mb", "MB", "lower", "op", "model.forward.cache_bytes", 1.0 / MB),
        ("model.fuse_model.s", "s", "lower", "setup", "model.fuse_model.s", 1.0),
        ("reparam.compose_stack_to_dense.s", "s", "lower", "setup",
         "reparam.compose_stack_to_dense.s", 1.0),
        ("reparam.compose_stack_to_dense.calls", "count", "lower", "setup",
         "reparam.compose_stack_to_dense.calls", 1.0),
        ("reparam.fuse_parallel_3x3.s", "s", "lower", "setup", "reparam.fuse_parallel_3x3.s", 1.0),
        ("checkpoint.model_from_bytes.s", "s", "lower", "setup",
         "checkpoint.model_from_bytes.s", 1.0),
        ("checkpoint.model_from_bytes.mb", "MB", "lower", "setup",
         "checkpoint.model_from_bytes.bytes", 1.0 / MB),
        ("fourier.dft2d_batch.self_s", "s", "lower", "op", "fourier.dft2d_batch.self_s", 1.0),
        ("fourier.idft2d_batch.self_s", "s", "lower", "op", "fourier.idft2d_batch.self_s", 1.0),
        ("fourier.planes", "count", "lower", "op", "fourier.planes", 1.0),
        ("loss.composite_loss_detailed.self_s", "s", "lower", "op",
         "loss.composite_loss_detailed.self_s", 1.0),
        ("train.adam_step.self_s", "s", "lower", "op", "train.adam_step.self_s", 1.0),
        ("train.ema_update.self_s", "s", "lower", "op", "train.ema_update.self_s", 1.0),
        ("data.sample_patch_pair.self_s", "s", "lower", "op", "data.sample_patch_pair.self_s", 1.0),
        ("data.to_real.self_s", "s", "lower", "op", "data.to_real.self_s", 1.0),
        ("data.to_image8.self_s", "s", "lower", "op", "data.to_image8.self_s", 1.0),
        ("data.degrade.s", "s", "lower", "setup", "data.degrade.s", 1.0),
        ("png.encode_png.s", "s", "lower", "op", "png.encode_png.s", 1.0),
        ("png.encode_png.bytes", "bytes", "lower", "op", "png.encode_png.bytes", 1.0),
        ("png.decode_png.s", "s", "lower", "op", "png.decode_png.s", 1.0),
        ("metrics.psnr.s", "s", "lower", "op", "metrics.psnr.s", 1.0),
        ("metrics.ssim.s", "s", "lower", "op", "metrics.ssim.s", 1.0),
        ("metrics.super_resolve_image.self_s", "s", "lower", "op",
         "metrics.super_resolve_image.self_s", 1.0),
    ]
    return rows


PER_LAYER = _per_layer_rows()


def per_layer_metrics(table: dict, traced_ops: list, overhead_s: float) -> dict:
    """Every PER_LAYER metric, from the per-op table (a layer the workload
    never reaches reads 0), and ``trace.overhead_s``: the traced minus the
    untraced median operation time of the run."""
    def median_over_ops(key):
        return statistics.median(table[op].get(key, 0.0) for op in traced_ops)

    setup = table.get("setup", {})
    out = {}
    for metric, unit, _, where, key, scale in PER_LAYER:
        if where == "setup":
            value = setup.get(key, 0.0) * scale
        elif where == "op":
            value = median_over_ops(key) * scale
        else:
            busy = median_over_ops(key + ".self_s")
            value = median_over_ops(key + ".macs") * scale / busy if busy > 0 else 0.0
        out[metric] = {"value": value, "unit": unit}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
