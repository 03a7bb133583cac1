"""Self-contained image codecs: PNG (zlib), BMP (raw 24/8-bit), ``lossy8``,
and baseline JPEG (functions/jpeg.py — pure numpy DCT/Huffman).

PIL/libjpeg are unavailable in-sandbox (SURVEY.md §7), so the engine ships its
own stdlib-only codecs. ``lossy8`` is a deterministic lossy format (uniform
6-bit quantization + zlib) whose PSNR ≈ 46 dB genuinely exercises the
"decoded-pixel allclose, PSNR ≥ 40 dB for lossy fmt" per-row invariant from
BASELINE.json ``input_hint``; the JPEG path exercises the same invariant on a
real interchange format (PSNR ≥ 40 dB at quality ≥ 98, pinned in tests).
Decode-on-ingress mirrors the reference's bytes→image validation at
/root/reference/dimensionality_reduction_api/app/schemas/dr.py:15-30.

Images are numpy uint8 arrays of shape (h, w) grayscale or (h, w, 3) RGB.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"
LOSSY8_MAGIC = b"LS8\x01"
FMT_DOMAIN = ("png", "bmp", "lossy8")  # the synthetic table's fmt domain
LOSSY_FMTS = ("lossy8", "jpeg")


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


def encode_png(img: np.ndarray) -> bytes:
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color_type, channels = 0, 1
    elif img.ndim == 3 and img.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ValueError(f"unsupported image shape {img.shape}")
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    rows = img.reshape(h, w * channels)
    raw = np.zeros((h, w * channels + 1), dtype=np.uint8)
    raw[:, 1:] = rows  # filter type 0 per scanline
    idat = zlib.compress(raw.tobytes(), 6)
    return PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _png_chunks(data: bytes):
    pos = len(PNG_SIG)
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        yield tag, payload
        pos += 12 + length
        if tag == b"IEND":
            break


def png_header(data: bytes) -> tuple[int, int, int]:
    """(w, h, channels) from IHDR only — no inflate. Cheap per-row dims check."""
    if data[:8] != PNG_SIG:
        raise ValueError("not a PNG")
    (length,) = struct.unpack(">I", data[8:12])
    if data[12:16] != b"IHDR" or length != 13:
        raise ValueError("bad IHDR")
    w, h, depth, color_type = struct.unpack(">IIBB", data[16:26])
    if depth != 8 or color_type not in (0, 2):
        raise ValueError("unsupported PNG variant")
    return w, h, 1 if color_type == 0 else 3


def decode_png(data: bytes) -> np.ndarray:
    w, h, channels = png_header(data)
    idat = b"".join(p for t, p in _png_chunks(data) if t == b"IDAT")
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    stride = w * channels + 1
    raw = raw.reshape(h, stride)
    filters = raw[:, 0]
    # fast paths: filter 0 everywhere (what encode_png writes) is a pure
    # slice-copy; filter 0/2 (None/Up) vectorizes as a wrapping column cumsum.
    # The general per-scanline loop below costs ~2 numpy calls per ROW.
    if not filters.any():
        img = np.ascontiguousarray(raw[:, 1:]).reshape(h, w, channels)
        return img[:, :, 0] if channels == 1 else img
    if np.isin(filters, (0, 2)).all():
        out = np.ascontiguousarray(raw[:, 1:])
        # rows with filter 0 restart the running sum: cumsum within segments;
        # row 0 is always a restart (Up with no prior row adds zeros)
        starts = (filters == 0).copy()
        starts[0] = True
        seg = np.cumsum(starts) - 1
        acc = out.astype(np.int64).cumsum(axis=0)
        base = np.zeros((int(seg.max()) + 1, out.shape[1]), dtype=np.int64)
        first = np.flatnonzero(starts)
        base[:] = acc[first] - out[first].astype(np.int64)
        out = ((acc - base[seg]) & 0xFF).astype(np.uint8)
        img = out.reshape(h, w, channels)
        return img[:, :, 0] if channels == 1 else img
    out = np.zeros((h, w * channels), dtype=np.uint8)
    bpp = channels
    for y in range(h):
        line = raw[y, 1:].astype(np.int32)
        f = filters[y]
        prior = out[y - 1].astype(np.int32) if y > 0 else np.zeros_like(line)
        if f == 0:
            rec = line
        elif f == 2:  # Up
            rec = (line + prior) & 0xFF
        elif f in (1, 3, 4):  # Sub / Average / Paeth need a sequential pass
            rec = np.empty_like(line)
            for i in range(line.size):
                a = rec[i - bpp] if i >= bpp else 0
                b = prior[i]
                if f == 1:
                    pred = a
                elif f == 3:
                    pred = (a + b) // 2
                else:
                    c = prior[i - bpp] if i >= bpp else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                rec[i] = (line[i] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[y] = rec.astype(np.uint8)
    img = out.reshape(h, w, channels)
    return img[:, :, 0] if channels == 1 else img


# ---------------------------------------------------------------------------
# BMP (uncompressed, bottom-up; 8-bit grayscale w/ palette or 24-bit BGR)
# ---------------------------------------------------------------------------


def encode_bmp(img: np.ndarray) -> bytes:
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape[:2]
    gray = img.ndim == 2
    bpp = 8 if gray else 24
    row_bytes = w * (1 if gray else 3)
    pad = (4 - row_bytes % 4) % 4
    palette = b"".join(struct.pack("<BBBB", i, i, i, 0) for i in range(256)) if gray else b""
    offset = 14 + 40 + len(palette)
    size_image = (row_bytes + pad) * h
    header = struct.pack("<2sIHHI", b"BM", offset + size_image, 0, 0, offset)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, bpp, 0, size_image, 2835, 2835,
                       256 if gray else 0, 0)
    rows = img.reshape(h, row_bytes) if gray else img[:, :, ::-1].reshape(h, row_bytes)
    buf = np.zeros((h, row_bytes + pad), dtype=np.uint8)
    buf[:, :row_bytes] = rows
    return header + info + palette + buf[::-1].tobytes()  # bottom-up


def _bmp_raw_header(data: bytes) -> tuple[int, int, int]:
    """(width, SIGNED biHeight, channels) — the single place the BMP info
    header layout is known; biHeight < 0 means top-down row order."""
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    w, h = struct.unpack("<ii", data[18:26])
    (bpp,) = struct.unpack("<H", data[28:30])
    if bpp not in (8, 24):
        raise ValueError("unsupported BMP depth")
    return w, h, 1 if bpp == 8 else 3


def bmp_header(data: bytes) -> tuple[int, int, int]:
    w, h, channels = _bmp_raw_header(data)
    return w, abs(h), channels


def decode_bmp(data: bytes) -> np.ndarray:
    w, raw_h, channels = _bmp_raw_header(data)
    h = abs(raw_h)
    (offset,) = struct.unpack("<I", data[10:14])
    row_bytes = w * channels
    pad = (4 - row_bytes % 4) % 4
    raw = np.frombuffer(data, dtype=np.uint8, count=(row_bytes + pad) * h, offset=offset)
    rows = raw.reshape(h, row_bytes + pad)[:, :row_bytes]
    if raw_h > 0:  # positive biHeight = bottom-up; negative = top-down as-is
        rows = rows[::-1]
    if channels == 1:
        return rows.reshape(h, w).copy()
    return rows.reshape(h, w, 3)[:, :, ::-1].copy()  # BGR -> RGB


# ---------------------------------------------------------------------------
# lossy8: deterministic lossy format (6-bit uniform quantization + zlib)
# ---------------------------------------------------------------------------


def encode_lossy8(img: np.ndarray) -> bytes:
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape[:2]
    c = 1 if img.ndim == 2 else img.shape[2]
    q = (img >> 2).astype(np.uint8)  # 6-bit
    payload = zlib.compress(q.tobytes(), 6)
    return LOSSY8_MAGIC + struct.pack("<IIB", w, h, c) + payload


def lossy8_header(data: bytes) -> tuple[int, int, int]:
    if data[:4] != LOSSY8_MAGIC:
        raise ValueError("not lossy8")
    w, h, c = struct.unpack("<IIB", data[4:13])
    return w, h, c


def decode_lossy8(data: bytes) -> np.ndarray:
    w, h, c = lossy8_header(data)
    q = np.frombuffer(zlib.decompress(data[13:]), dtype=np.uint8)
    img = ((q.astype(np.uint16) << 2) | 2).astype(np.uint8)  # dequantize to bin center
    img = img.reshape((h, w) if c == 1 else (h, w, c))
    return img


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

from .jpeg import decode_jpeg, encode_jpeg, jpeg_header  # noqa: E402

_ENCODERS = {"png": encode_png, "bmp": encode_bmp, "lossy8": encode_lossy8,
             "jpeg": encode_jpeg}
_DECODERS = {"png": decode_png, "bmp": decode_bmp, "lossy8": decode_lossy8,
             "jpeg": decode_jpeg}
_HEADERS = {"png": png_header, "bmp": bmp_header, "lossy8": lossy8_header,
            "jpeg": jpeg_header}


def encode_image(img: np.ndarray, fmt: str) -> bytes:
    return _ENCODERS[fmt](img)


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    return _DECODERS[fmt](data)


def image_dims(data: bytes, fmt: str) -> tuple[int, int, int]:
    """(w, h, channels) from the header only — the fast per-row dims check."""
    return _HEADERS[fmt](data)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse = float(((a - b) ** 2).mean())
    if mse == 0:
        return float("inf")
    return float(20.0 * np.log10(255.0) - 10.0 * np.log10(mse))

