"""Binary checkpoint container.

Layout, all integers little-endian:

    magic  b"AFDK"
    version u32 (currently 1)
    count   u32
    entries: [name_len u16][name utf-8][rank u8][dims u32 x rank][values f32 LE]

Entries carry every parameter tensor, BN running-stat buffer, optimizer
state array, the epoch counter, and the data standardization statistics, so
a restored run continues exactly where it stopped.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"AFDK"
VERSION = 1


def save_entries(path, entries: dict[str, np.ndarray]):
    """Write named float arrays; values are stored as float32.

    The bytes go to a sibling ``.tmp`` file that replaces ``path`` only once
    it is complete, so a save that fails midway leaves an earlier file at
    ``path`` as it was.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(entries)))
            for name, arr in entries.items():
                data = np.ascontiguousarray(arr, dtype="<f4")
                name_bytes = name.encode("utf-8")
                if len(name_bytes) > 0xFFFF:
                    raise FormatError(f"entry name too long: {name!r}")
                f.write(struct.pack("<H", len(name_bytes)))
                f.write(name_bytes)
                f.write(struct.pack("<B", max(data.ndim, 1)))
                dims = data.shape if data.ndim else (1,)
                f.write(struct.pack(f"<{len(dims)}I", *dims))
                f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _take(buf, offset, count, path):
    if offset + count > len(buf):
        raise FormatError(
            f"{path}: truncated at byte offset {len(buf)}, "
            f"needed {offset + count} bytes"
        )
    return buf[offset:offset + count], offset + count


def load_entries(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        buf = f.read()
    chunk, off = _take(buf, 0, 4, path)
    if chunk != MAGIC:
        raise FormatError(f"{path}: bad magic {chunk!r} at byte offset 0, expected {MAGIC!r}")
    chunk, off = _take(buf, off, 8, path)
    version, count = struct.unpack("<II", chunk)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    entries = {}
    for _ in range(count):
        chunk, off = _take(buf, off, 2, path)
        (name_len,) = struct.unpack("<H", chunk)
        chunk, off = _take(buf, off, name_len, path)
        name = chunk.decode("utf-8")
        chunk, off = _take(buf, off, 1, path)
        rank = chunk[0]
        chunk, off = _take(buf, off, 4 * rank, path)
        dims = struct.unpack(f"<{rank}I", chunk)
        size = int(np.prod(dims))
        chunk, off = _take(buf, off, 4 * size, path)
        entries[name] = np.frombuffer(chunk, dtype="<f4").reshape(dims).astype(np.float32)
    if off != len(buf):
        raise FormatError(f"{path}: {len(buf) - off} trailing bytes at byte offset {off}")
    return entries
