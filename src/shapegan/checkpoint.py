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
    """Reads a checkpoint front to back. Every length is checked against the
    file's size before anything of that length is read or allocated."""

    def __init__(self, f, path):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.pos = 0
        self.path = str(path)

    def _claim(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise DataError(
                f"{self.path}: truncated checkpoint reading {what}"
                f" at byte {self.pos}"
            )
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        return self.f.read(n)

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: {what} is not UTF-8: {exc}") from None

    def floats(self, name: str, dims: tuple[int, ...]) -> np.ndarray:
        """Tensor ``name`` as a C-ordered float64 array of shape ``dims``,
        read straight from the file into its own buffer."""
        n_items = 1
        for d in dims:
            n_items *= d
        self._claim(8 * n_items, f"tensor {name} data")
        try:
            arr = np.empty(dims, dtype="<f8")
        except ValueError as exc:
            raise DataError(f"{self.path}: tensor {name} dims {dims}: {exc}") from None
        self.f.readinto(arr.reshape(-1))
        return arr


def load_checkpoint(path) -> CheckpointBlob:
    path = Path(path)
    try:
        with open(path, "rb") as f:
            return _read_blob(_Reader(f, path))
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_blob(r: _Reader) -> CheckpointBlob:
    path = r.path
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
        arr = r.floats(name, dims)
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
    if r.pos != r.size:
        raise DataError(f"{path}: {r.size - r.pos} trailing bytes after checkpoint")
    return CheckpointBlob(tensors, config_text, rng_state)
