"""Minimal PNG codec for 8-bit RGB (grayscale promoted on read).

Covers exactly what the data pipeline needs: non-interlaced 8-bit
truecolor or grayscale images. Palette, alpha, 16-bit and Adam7 inputs
raise ``PngError``. The encoder writes filter-0 scanlines; the decoder
reconstructs all five standard scanline filters and verifies chunk CRCs.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class PngError(ValueError):
    """Unsupported or malformed PNG stream."""


def encode_png(image: np.ndarray) -> bytes:
    """Serialize an (h, w, 3) uint8 array as a truecolor PNG."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise PngError("encoder expects an (h, w, 3) uint8 image")
    h, w = image.shape[:2]
    if h < 1 or w < 1:
        raise PngError("image extents must be positive")
    raw = bytearray()
    for row in image:
        raw.append(0)  # filter type none
        raw += row.tobytes()
    out = bytearray(_SIGNATURE)
    _write_chunk(out, b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
    _write_chunk(out, b"IDAT", zlib.compress(bytes(raw), 9))
    _write_chunk(out, b"IEND", b"")
    return bytes(out)


def _write_chunk(out: bytearray, kind: bytes, data: bytes) -> None:
    out += struct.pack(">I", len(data))
    out += kind
    out += data
    out += struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF)


def decode_png(data: bytes) -> np.ndarray:
    """Parse a PNG stream into an (h, w, 3) uint8 array."""
    if data[:8] != _SIGNATURE:
        raise PngError("not a PNG stream (bad signature)")
    pos = 8
    header = None
    idat = bytearray()
    while pos < len(data):
        if pos + 8 > len(data):
            raise PngError("truncated chunk header")
        (length,) = struct.unpack_from(">I", data, pos)
        kind = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if pos + 12 + length > len(data):  # body plus the 4-byte CRC
            raise PngError(f"truncated {kind!r} chunk")
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if crc != (zlib.crc32(kind + body) & 0xFFFFFFFF):
            raise PngError(f"CRC mismatch in {kind!r} chunk")
        pos += 12 + length
        if kind == b"IHDR":
            header = _parse_ihdr(body)
        elif kind == b"IDAT":
            idat += body
        elif kind == b"IEND":
            break
    if header is None:
        raise PngError("missing IHDR chunk")
    if not idat:
        raise PngError("missing IDAT data")
    w, h, channels = header
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise PngError(f"corrupt IDAT stream: {exc}") from None
    stride = w * channels
    if len(raw) != h * (stride + 1):
        raise PngError("decompressed size mismatches the header extents")
    img = _unfilter(np.frombuffer(raw, dtype=np.uint8), h, w, channels)
    if channels == 1:
        img = np.repeat(img, 3, axis=2)
    return img


def _parse_ihdr(body: bytes):
    if len(body) != 13:
        raise PngError("malformed IHDR")
    w, h, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", body)
    if depth != 8:
        raise PngError(f"unsupported bit depth {depth} (only 8-bit)")
    if color == 2:
        channels = 3
    elif color == 0:
        channels = 1
    elif color == 3:
        raise PngError("palette PNGs are unsupported")
    else:
        raise PngError(f"unsupported color type {color} (alpha not handled)")
    if comp != 0 or filt != 0:
        raise PngError("nonstandard compression or filter method")
    if interlace != 0:
        raise PngError("interlaced (Adam7) PNGs are unsupported")
    if w < 1 or h < 1:
        raise PngError("image extents must be positive")
    return w, h, channels


def _unfilter(raw: np.ndarray, h: int, w: int, channels: int) -> np.ndarray:
    stride = w * channels
    rows = raw.reshape(h, stride + 1)
    out = np.zeros((h, stride), dtype=np.int32)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        ftype = int(rows[y, 0])
        line = rows[y, 1:].astype(np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 1:  # sub: prefix sum with lag = bytes per pixel
            cur = np.cumsum(line.reshape(w, channels), axis=0).reshape(stride) & 0xFF
        elif ftype == 2:  # up
            cur = (line + prev) & 0xFF
        elif ftype == 3:  # average
            cur = _unfilter_average(line, prev, w, channels)
        elif ftype == 4:  # paeth
            cur = _unfilter_paeth(line, prev, w, channels)
        else:
            raise PngError(f"unknown scanline filter {ftype}")
        out[y] = cur
        prev = cur
    return out.astype(np.uint8).reshape(h, w, channels)


def _unfilter_average(line, prev, w, channels):
    cur = np.empty_like(line).reshape(w, channels)
    lp = line.reshape(w, channels)
    pp = prev.reshape(w, channels)
    left = np.zeros(channels, dtype=np.int32)
    for x in range(w):
        left = (lp[x] + ((left + pp[x]) >> 1)) & 0xFF
        cur[x] = left
    return cur.reshape(-1)


def _unfilter_paeth(line, prev, w, channels):
    cur = np.empty_like(line).reshape(w, channels)
    lp = line.reshape(w, channels)
    pp = prev.reshape(w, channels)
    left = np.zeros(channels, dtype=np.int32)
    upleft = np.zeros(channels, dtype=np.int32)
    for x in range(w):
        up = pp[x]
        p = left + up - upleft
        pa = np.abs(p - left)
        pb = np.abs(p - up)
        pc = np.abs(p - upleft)
        pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
        left = (lp[x] + pred) & 0xFF
        cur[x] = left
        upleft = up
    return cur.reshape(-1)


def read_png(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_png(fh.read())


def write_png(path, image: np.ndarray) -> None:
    blob = encode_png(image)
    with open(path, "wb") as fh:
        fh.write(blob)
