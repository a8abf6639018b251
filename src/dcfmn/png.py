"""Minimal PNG codec for 8-bit RGB (grayscale promoted on read).

Covers exactly what the data pipeline needs: non-interlaced 8-bit
truecolor or grayscale images. Palette, alpha, 16-bit and Adam7 inputs
raise ``PngError``. The encoder writes filter-0 scanlines; the decoder
reconstructs all five standard scanline filters and verifies chunk CRCs.
"""

from __future__ import annotations

import struct
import sys
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_MAX_EXTENT = 2**31 - 1  # the PNG specification's limit on width and height


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
    size = h * (w * channels + 1)  # a filter byte per row
    if size >= sys.maxsize:  # zlib's max_length below is a C ssize_t
        raise PngError(f"declared image of {w}x{h} pixels is too large to decode")
    # inflate at most one byte past the declared size, so that a stream
    # that inflates far beyond its header costs no more memory than the image
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat), size + 1)
    except zlib.error as exc:
        raise PngError(f"corrupt IDAT stream: {exc}") from None
    if len(raw) != size:
        raise PngError("decompressed size mismatches the header extents")
    if not inflater.eof:
        raise PngError("corrupt IDAT stream: incomplete or truncated stream")
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
    if w > _MAX_EXTENT or h > _MAX_EXTENT:
        raise PngError(f"image extents {w}x{h} exceed the PNG limit of 2^31 - 1")
    return w, h, channels


def _unfilter(raw: np.ndarray, h: int, w: int, channels: int) -> np.ndarray:
    stride = w * channels
    rows = raw.reshape(h, stride + 1)
    out = np.empty((h, stride), dtype=np.uint8)  # uint8 sums wrap mod 256
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        ftype = int(rows[y, 0])
        line = rows[y, 1:]
        if ftype == 0:
            out[y] = line
        elif ftype == 1:  # sub: prefix sum with lag = bytes per pixel
            out[y] = np.cumsum(line.reshape(w, channels), axis=0,
                               dtype=np.uint8).reshape(stride)
        elif ftype == 2:  # up
            out[y] = line + prev
        elif ftype in (3, 4):
            out[y] = _unfilter_bytes(ftype, line.tobytes(), prev.tobytes(), channels)
        else:
            raise PngError(f"unknown scanline filter {ftype}")
        prev = out[y]
    return out.reshape(h, w, channels)


def _unfilter_bytes(ftype: int, line: bytes, prev: bytes, bpp: int) -> bytearray:
    """Rebuild one Average (3) or Paeth (4) scanline byte by byte.

    As in the PNG specification (2nd ed., section 9): ``a`` is the byte
    ``bpp`` bytes to the left, ``b`` the byte above, ``c`` the byte above
    ``a``; bytes left of the row read as 0.
    """
    cur = bytearray(bpp) + line
    up = bytes(bpp) + prev
    for i in range(bpp, len(cur)):
        a, b = cur[i - bpp], up[i]
        if ftype == 3:  # average
            pred = (a + b) >> 1
        else:  # paeth
            c = up[i - bpp]
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
        cur[i] = (cur[i] + pred) & 0xFF
    return cur[bpp:]


def read_png(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_png(fh.read())


def write_png(path, image: np.ndarray) -> None:
    blob = encode_png(image)
    with open(path, "wb") as fh:
        fh.write(blob)
