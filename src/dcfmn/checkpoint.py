"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic  b"DCFMNCKP"
    bytes 8..11   format version (uint32), currently 1
    bytes 12..19  header length L (uint64)
    bytes 20..    UTF-8 JSON header of exactly L bytes
    then          raw tensor payloads, back to back

The JSON header holds the full model config, the fused flag and a
``tensors`` list of ``{path, shape, dtype}`` records in lexicographic
path order; payloads follow in the same order as little-endian raw
scalars (``<f4`` or ``<f8``). The header is serialized with sorted keys
and no whitespace, so identical models produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .model import Model, ModelConfig, layers

MAGIC = b"DCFMNCKP"
VERSION = 1

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def model_to_bytes(model: Model) -> bytes:
    tensors = []
    payload = bytearray()
    for path in sorted(model.params):
        arr = model.params[path]
        dtype_name = str(arr.dtype)
        if dtype_name not in _DTYPE_CODES:
            raise CheckpointError(f"unsupported parameter dtype {dtype_name}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite values in parameter {path!r}")
        tensors.append({"path": path, "shape": list(arr.shape), "dtype": dtype_name})
        payload += np.ascontiguousarray(arr).astype(_DTYPE_CODES[dtype_name]).tobytes()
    header = {
        "config": dataclasses.asdict(model.config),
        "fused": bool(model.fused),
        "tensors": tensors,
        "version": VERSION,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<IQ", VERSION, len(blob)) + blob + bytes(payload)


def model_from_bytes(data: bytes) -> Model:
    if data[:8] != MAGIC:
        raise CheckpointError("not a model checkpoint (bad magic)")
    if len(data) < 20:
        raise CheckpointError("truncated checkpoint preamble")
    version, header_len = struct.unpack_from("<IQ", data, 8)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    start = 8 + 12
    try:
        header = json.loads(data[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    config = ModelConfig(**header["config"])
    fused = bool(header["fused"])
    _check_layout(header["tensors"], config, fused)
    params = {}
    offset = start + header_len
    for rec in header["tensors"]:
        dtype = np.dtype(_DTYPE_CODES[rec["dtype"]])
        count = int(np.prod(rec["shape"]))
        nbytes = count * dtype.itemsize
        chunk = data[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated payload for {rec['path']!r}")
        arr = np.frombuffer(chunk, dtype=dtype).reshape(rec["shape"])
        params[rec["path"]] = np.ascontiguousarray(arr).astype(rec["dtype"])
        offset += nbytes
    if offset != len(data):
        raise CheckpointError("trailing bytes after the last tensor payload")
    return Model(config, params, fused=fused)


def _check_layout(records, config: ModelConfig, fused: bool) -> None:
    """The tensor records must list exactly the paths, shapes and dtype
    that the network description gives for this config and form."""
    want = {path: (shape, config.dtype)
            for layer in layers(config, fused) for path, shape in layer.tensors}
    got = {rec["path"]: (tuple(rec["shape"]), rec["dtype"]) for rec in records}
    if len(records) == len(got) and got == want:
        return
    form = "fused" if fused else "training"
    problems = [f"missing {p!r}" for p in sorted(want.keys() - got.keys())]
    problems += [f"unexpected {p!r}" for p in sorted(got.keys() - want.keys())]
    problems += [f"{p!r} is {got[p]}, expected {want[p]}"
                 for p in sorted(want.keys() & got.keys()) if got[p] != want[p]]
    problems = problems or ["duplicate tensor paths"]
    raise CheckpointError(f"tensors do not match the {form}-form layout of the "
                          f"checkpoint's config: {'; '.join(problems[:3])}")


def save_model(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
