"""Binary PPM/PGM image I/O.

Images are exchanged as float arrays in [0, 1], channel-first: (3, H, W) for
color, (1, H, W) for masks. Files are written with maxval 255; reading is
the exact inverse on quantized data. Parse failures raise
:class:`DataError` with the byte offset of the offending token.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError, UsageError

_WHITESPACE = b" \t\r\n\x0b\x0c"
_MAGIC = {3: b"P6", 1: b"P5"}


def write_image(path, array: np.ndarray) -> None:
    """Write a (3, H, W) image as PPM or a (1, H, W) mask as PGM, maxval 255."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 3 or array.shape[0] not in _MAGIC:
        raise UsageError(f"write_image expects (1|3, H, W), got {array.shape}")
    if array.min() < 0.0 or array.max() > 1.0:
        raise UsageError("image values must lie in [0, 1] for writing")
    c, h, w = array.shape
    payload = np.rint(array * 255.0).astype(np.uint8).transpose(1, 2, 0).tobytes()
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (_MAGIC[c], w, h))
        f.write(payload)


class _Parser:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = str(path)

    def error(self, message: str):
        raise DataError(f"{self.path}: {message} at byte {self.pos}")

    def _skip_separators(self) -> None:
        buf, n = self.buf, len(self.buf)
        while self.pos < n:
            ch = buf[self.pos : self.pos + 1]
            if ch in (b"#",):
                nl = buf.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif ch and ch in _WHITESPACE:
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self._skip_separators()
        if self.pos >= len(self.buf):
            self.error("unexpected end of header")
        start = self.pos
        while self.pos < len(self.buf) and self.buf[self.pos : self.pos + 1] not in _WHITESPACE:
            self.pos += 1
        return self.buf[start : self.pos]

    def integer(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self.pos -= len(tok)
            self.error(f"expected integer {what}, got {tok!r}")

    def payload(self, count: int) -> np.ndarray:
        # exactly one whitespace byte separates the header from the raster
        if self.pos >= len(self.buf) or self.buf[self.pos : self.pos + 1] not in _WHITESPACE:
            self.error("expected single whitespace before raster data")
        self.pos += 1
        data = self.buf[self.pos : self.pos + count]
        if len(data) != count:
            self.pos = len(self.buf)
            self.error(f"truncated raster: need {count} bytes, have {len(data)}")
        return np.frombuffer(data, dtype=np.uint8)


def read_image(path) -> np.ndarray:
    """Read a binary PPM or PGM, by its magic, into a (3, H, W) or (1, H, W)
    float array in [0, 1]."""
    try:
        buf = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"cannot read {path}: {exc}") from exc
    p = _Parser(buf, path)
    magic = p.token()
    if magic not in (b"P5", b"P6"):
        p.pos = 0
        p.error(f"unsupported magic {magic!r}")
    w = p.integer("width")
    h = p.integer("height")
    if w <= 0 or h <= 0:
        p.error(f"invalid dimensions {w}x{h}")
    maxval = p.integer("maxval")
    if maxval != 255:
        p.error(f"unsupported maxval {maxval}")
    channels = 3 if magic == b"P6" else 1
    raw = p.payload(w * h * channels).reshape(h, w, channels)
    return raw.transpose(2, 0, 1).astype(np.float64) / 255.0
