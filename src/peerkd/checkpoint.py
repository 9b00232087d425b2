"""Binary checkpoint container, plus the atomic writer (``write_atomic``) and
bounds-checked reader (``take`` and ``check_end``) that every peerkd file
goes through.

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
import math
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"AFDK"
VERSION = 1


def write_atomic(path, chunks):
    """Write the byte strings of ``chunks``, in order, as the file ``path``.

    The bytes go to a sibling ``.tmp`` file that replaces ``path`` only once
    it is complete, so a write that fails midway leaves an earlier file at
    ``path`` as it was, and no ``.tmp`` file.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_entries(path, entries: dict[str, np.ndarray]):
    """Write named float arrays, stored as float32, with ``write_atomic``."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(entries))]
    for name, arr in entries.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise FormatError(f"entry name too long: {name!r}")
        chunks += [struct.pack(f"<H{len(name_bytes)}sB{data.ndim}I", len(name_bytes),
                               name_bytes, data.ndim, *data.shape), data]
    write_atomic(path, chunks)


def take(buf, offset, count, path):
    """``count`` bytes of ``buf`` from ``offset``, and the offset after them;
    ``FormatError`` naming ``path`` when ``buf`` ends first."""
    if offset + count > len(buf):
        raise FormatError(
            f"{path}: truncated at byte offset {len(buf)}, "
            f"needed {offset + count} bytes"
        )
    return buf[offset:offset + count], offset + count


def check_end(buf, offset, path):
    """``FormatError`` naming ``path`` when ``buf`` goes on past ``offset``."""
    if offset != len(buf):
        raise FormatError(f"{path}: {len(buf) - offset} trailing bytes at byte offset {offset}")


def load_entries(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        buf = f.read()
    chunk, off = take(buf, 0, 4, path)
    if chunk != MAGIC:
        raise FormatError(f"{path}: bad magic {chunk!r} at byte offset 0, expected {MAGIC!r}")
    chunk, off = take(buf, off, 8, path)
    version, count = struct.unpack("<II", chunk)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    entries = {}
    for _ in range(count):
        chunk, off = take(buf, off, 2, path)
        (name_len,) = struct.unpack("<H", chunk)
        chunk, off = take(buf, off, name_len, path)
        try:
            name = chunk.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry name at byte offset {off - name_len} "
                              "is not UTF-8") from None
        if name in entries:
            raise FormatError(f"{path}: repeated entry name {name!r} "
                              f"at byte offset {off - name_len}")
        chunk, off = take(buf, off, 1, path)
        rank = chunk[0]
        chunk, off = take(buf, off, 4 * rank, path)
        dims = struct.unpack(f"<{rank}I", chunk)
        size = math.prod(dims)
        chunk, off = take(buf, off, 4 * size, path)
        entries[name] = np.frombuffer(chunk, dtype="<f4").reshape(dims).astype(np.float32)
    check_end(buf, off, path)
    return entries
