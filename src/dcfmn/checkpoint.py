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
import math
import struct

import numpy as np

from .model import Model, ModelConfig, layers
from .nn import ConfigError

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
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    config, fused, records = _read_header(header)
    _check_layout(records, config, fused)
    params = {}
    offset = start + header_len
    for rec in records:
        shape = tuple(rec["shape"])
        dtype = np.dtype(_DTYPE_CODES[rec["dtype"]])
        nbytes = math.prod(shape) * dtype.itemsize
        chunk = data[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated payload for {rec['path']!r}")
        arr = np.frombuffer(chunk, dtype=dtype).reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite values in parameter {rec['path']!r}")
        params[rec["path"]] = np.ascontiguousarray(arr).astype(rec["dtype"])
        offset += nbytes
    if offset != len(data):
        raise CheckpointError("trailing bytes after the last tensor payload")
    return Model(config, params, fused=fused)


def _read_header(header) -> tuple[ModelConfig, bool, list]:
    """(config, fused flag, tensor records) of a decoded JSON header, each
    checked for the types the writer produces."""
    if not isinstance(header, dict) or not {"config", "fused", "tensors"} <= header.keys():
        raise CheckpointError("checkpoint header lacks its config, fused or tensors entry")
    fields, fused, records = header["config"], header["fused"], header["tensors"]
    defaults = dataclasses.asdict(ModelConfig())
    if not isinstance(fields, dict) or not fields.keys() <= defaults.keys():
        raise CheckpointError("checkpoint config is not a map of ModelConfig fields")
    for key, value in fields.items():
        if isinstance(defaults[key], tuple):  # chunk_targets: a JSON list of ints
            ok = isinstance(value, list) and all(type(v) is int for v in value)
        else:
            ok = type(value) is type(defaults[key])
        if not ok:
            raise CheckpointError(f"checkpoint config field {key!r} has the wrong type")
    try:
        config = ModelConfig(**fields)
    except ConfigError as exc:
        raise CheckpointError(f"invalid checkpoint config: {exc}") from None
    if type(fused) is not bool:
        raise CheckpointError("checkpoint fused flag is not a boolean")
    if not isinstance(records, list) or not all(
            isinstance(rec, dict) and isinstance(rec.get("path"), str)
            and isinstance(rec.get("dtype"), str) and isinstance(rec.get("shape"), list)
            and all(type(n) is int for n in rec["shape"]) for rec in records):
        raise CheckpointError("malformed tensor records in the checkpoint header")
    if config.num_blocks > len(records):  # corrupt, and its description could be huge
        raise CheckpointError(f"{config.num_blocks} blocks cannot fit {len(records)} tensors")
    return config, fused, records


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
    if fused and any(".lfem.expand." in p for p in got):  # written before the expand fold
        problems.insert(0, "this fused checkpoint predates the LFEM expand fold; "
                           "re-run `dcfmn fuse` on the training checkpoint")
    raise CheckpointError(f"tensors do not match the {form}-form layout of the "
                          f"checkpoint's config: {'; '.join(problems[:3])}")


def save_model(model: Model, path) -> None:
    blob = model_to_bytes(model)  # before the open: a refused model leaves no file
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
