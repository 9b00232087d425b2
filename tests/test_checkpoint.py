"""Checkpoint container format."""

import struct

import numpy as np
import pytest

from helpers import fail_binary_writes, one_entry_afdk
from peerkd import checkpoint
from peerkd.errors import FormatError


def sample_entries():
    rng = np.random.default_rng(0)
    return {
        "net0/ext0.weight": rng.standard_normal((4, 1, 3, 3)).astype(np.float32),
        "net0/ext1.running_mean": rng.standard_normal(4).astype(np.float32),
        "opt_logit/net0/ext0.weight/velocity": rng.standard_normal((4, 1, 3, 3)).astype(np.float32),
        "meta/epoch": np.asarray([3.0], dtype=np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "state.afdk"
    entries = sample_entries()
    checkpoint.save_entries(path, entries)
    loaded = checkpoint.load_entries(path)
    assert set(loaded) == set(entries)
    for name, arr in entries.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "state.afdk"
    checkpoint.save_entries(path, {"x": np.asarray([1.5], dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == b"AFDK"
    version, count = struct.unpack("<II", raw[4:12])
    assert version == 1 and count == 1
    name_len = struct.unpack("<H", raw[12:14])[0]
    assert raw[14:14 + name_len] == b"x"
    assert raw[15:16] == b"\x01"  # rank
    assert struct.unpack("<I", raw[16:20])[0] == 1
    assert struct.unpack("<f", raw[20:24])[0] == 1.5


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.afdk"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(FormatError, match="offset 0"):
        checkpoint.load_entries(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.afdk"
    path.write_bytes(b"AFDK" + struct.pack("<II", 9, 0))
    with pytest.raises(FormatError, match="version"):
        checkpoint.load_entries(path)


def test_truncated(tmp_path):
    path = tmp_path / "trunc.afdk"
    checkpoint.save_entries(path, sample_entries())
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(FormatError, match="truncated"):
        checkpoint.load_entries(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "trail.afdk"
    checkpoint.save_entries(path, {"x": np.asarray([1.0], dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"oops")
    with pytest.raises(FormatError, match="trailing"):
        checkpoint.load_entries(path)


def test_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "state.afdk"
    checkpoint.save_entries(path, {"x": np.asarray([1.0], dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(FormatError, match="too long"):
        checkpoint.save_entries(path, {"y": np.zeros(3, dtype=np.float32),
                                       "z" * 70_000: np.zeros(1, dtype=np.float32)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.afdk"]


def test_non_utf8_entry_name(tmp_path):
    path = tmp_path / "name.afdk"
    path.write_bytes(one_entry_afdk(b"net0/\xff", (1,)))
    with pytest.raises(FormatError, match="offset 14 is not UTF-8"):
        checkpoint.load_entries(path)


def test_repeated_entry_name(tmp_path):
    path = tmp_path / "repeat.afdk"
    checkpoint.save_entries(path, {"meta/epoch": np.asarray([2.0], dtype=np.float32)})
    raw = path.read_bytes()
    # the one 21-byte entry again, holding 7, with the count raised to 2
    path.write_bytes(raw[:4] + struct.pack("<II", 1, 2) + raw[12:]
                     + raw[12:-4] + struct.pack("<f", 7.0))
    with pytest.raises(FormatError, match="repeated entry name 'meta/epoch' at byte offset 35"):
        checkpoint.load_entries(path)


def test_dims_past_int64_report_truncation(tmp_path):
    path = tmp_path / "dims.afdk"
    path.write_bytes(one_entry_afdk(b"x", (0x10000,) * 4))
    with pytest.raises(FormatError, match="truncated"):
        checkpoint.load_entries(path)


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "state.afdk"
    checkpoint.save_entries(path, sample_entries())
    before = path.read_bytes()
    fail_binary_writes(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        checkpoint.save_entries(path, {"x": np.asarray([1.0], dtype=np.float32)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.afdk"]
