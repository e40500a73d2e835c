"""Binary checkpoint codec.

Layout, all integers little-endian:

    magic  b"SGCK"
    u32    format version
    u32    tensor count
    per tensor:
        u32    name length, then UTF-8 name
        u32    rank, then rank x u64 dims
        f64[]  row-major data
    u32    config block length, then UTF-8 key = value text
    u32    random-state block length, then UTF-8 JSON

``save -> load -> save`` is byte-identical; loading validates magic, version,
and exact lengths so a truncated or corrupted file never yields partial
state.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"SGCK"
VERSION = 1


@dataclass
class CheckpointBlob:
    """Raw checkpoint content: named tensors plus config and RNG text blocks."""

    tensors: dict[str, np.ndarray]
    config_text: str
    rng_state: dict


def _rng_to_text(state: dict) -> str:
    return json.dumps(state, sort_keys=True, default=int)


def save_checkpoint(path, blob: CheckpointBlob) -> Path:
    """Write atomically: a temp file is renamed over the target.

    Each header and each tensor's buffer goes straight to the file; only a
    tensor that is not C-ordered little-endian float64 is copied first.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(MAGIC + struct.pack("<II", VERSION, len(blob.tensors)))
        for name, arr in blob.tensors.items():
            # not ascontiguousarray: that would promote rank-0 tensors to rank 1
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)) + encoded)
            f.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            f.write(arr.data if arr.flags.c_contiguous else arr.tobytes())
        for text in (blob.config_text, _rng_to_text(blob.rng_state)):
            encoded = text.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)) + encoded)
    os.replace(tmp, path)
    return path


class _Reader:
    def __init__(self, buf: memoryview, path):
        self.buf = buf
        self.pos = 0
        self.path = str(path)

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.buf):
            raise DataError(
                f"{self.path}: truncated checkpoint reading {what}"
                f" at byte {self.pos}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: {what} is not UTF-8: {exc}") from None


def load_checkpoint(path) -> CheckpointBlob:
    path = Path(path)
    try:
        buf = memoryview(path.read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(buf, path)
    if r.take(4, "magic") != MAGIC:
        raise DataError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32("version")
    if version != VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {version} (expected {VERSION})"
        )
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = r.u32(f"tensor {i} name length")
        name = r.text(name_len, f"tensor {i} name")
        rank = r.u32(f"tensor {name} rank")
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank, f"tensor {name} dims"))
        n_items = 1
        for d in dims:
            n_items *= d
        raw = r.take(8 * n_items, f"tensor {name} data")
        try:
            arr = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        except ValueError as exc:
            raise DataError(f"{path}: tensor {name} dims {dims}: {exc}") from None
        if name in tensors:
            raise DataError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = arr
    cfg_len = r.u32("config length")
    config_text = r.text(cfg_len, "config block")
    rng_len = r.u32("rng length")
    rng_text = r.text(rng_len, "rng block")
    try:
        rng_state = json.loads(rng_text)
    except ValueError as exc:
        raise DataError(f"{path}: rng block is not JSON: {exc}") from None
    if r.pos != len(buf):
        raise DataError(f"{path}: {len(buf) - r.pos} trailing bytes after checkpoint")
    return CheckpointBlob(tensors, config_text, rng_state)
