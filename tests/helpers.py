"""Shared test utilities: finite-difference gradient checking, a one-entry
checkpoint file, malformed checkpoint state entries, a file writer that
fails partway, and a per-network forward counter."""

import builtins
import collections
import contextlib
import errno
import io
import struct
import threading
from unittest import mock

import numpy as np

from peerkd import blocks
from peerkd.tensor import Tensor, backward

FD_H = 1e-5
FD_TOL = 1e-4


def rel_err(a, b):
    """max |a-b| / max(|a|,|b|,1e-8), elementwise max over the arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


def fd_gradcheck(fn, arrays, tol=FD_TOL, h=FD_H):
    """Compare tape gradients of ``fn`` against central finite differences.

    ``fn`` maps a list of float64 Tensors to a scalar Tensor and must build a
    fresh graph each call. Returns the worst relative error across inputs.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def value(mats):
        return float(fn([Tensor(m, requires_grad=False) for m in mats]).data)

    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    backward(fn(leaves), leaves)
    worst = 0.0
    for i, base in enumerate(arrays):
        analytic = leaves[i].grad
        if analytic is None:
            analytic = np.zeros_like(base)
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for j in range(flat.size):
            mats = [a.copy() for a in arrays]
            mats[i].reshape(-1)[j] = flat[j] + h
            up = value(mats)
            mats[i].reshape(-1)[j] = flat[j] - h
            down = value(mats)
            num_flat[j] = (up - down) / (2 * h)
        err = rel_err(analytic, numeric)
        worst = max(worst, err)
        assert err <= tol, f"input {i}: relative error {err:.3e} > {tol}"
    return worst


def one_entry_afdk(name_bytes, dims):
    """Bytes of a checkpoint holding one entry with the given raw name and
    dims, and a single float32 value."""
    return (b"AFDK" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name_bytes))
            + name_bytes + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
            + struct.pack("<f", 1.0))


# (entry name, wrong shape) of an AFD tiny-a pair's checkpoint, one per kind of state
MALFORMED_STATE = [("opt_logit/net0/ext0.weight/velocity", (1,)),
                   ("opt_adv/disc0/conv1.weight/m", (1,)),
                   ("opt_adv/disc0/conv1.weight/t", (0,)),
                   ("meta/epoch", (0,)),
                   ("data/mean", (2,))]

# (entry name, value) of the same checkpoint: counters that are not whole numbers >= 0,
# then standardization statistics that are not finite, or a std that is not > 0
BAD_COUNTERS = [("meta/epoch", np.nan), ("meta/epoch", -3.0), ("meta/epoch", 0.5),
                ("meta/epoch", np.inf), ("opt_adv/disc0/conv1.weight/t", np.nan),
                ("data/std", 0.0), ("data/std", -1.0), ("data/std", np.nan),
                ("data/std", np.inf), ("data/mean", np.nan), ("data/mean", -np.inf)]


class _FailingWriter(io.BufferedWriter):
    def __init__(self, raw):
        super().__init__(raw)
        self.writes = 0

    def write(self, b):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


def fail_binary_writes(monkeypatch):
    """Files opened with mode ``"wb"`` take their first write and raise
    ``OSError`` on the next, as a disk that fills up would."""
    real_open = builtins.open

    def fake_open(file, mode="r", *args, **kwargs):
        if mode != "wb":
            return real_open(file, mode, *args, **kwargs)
        return _FailingWriter(io.FileIO(file, "w"))

    monkeypatch.setattr(builtins, "open", fake_open)


@contextlib.contextmanager
def count_forwards():
    """Count the ``Network.forward`` calls made inside the block, per
    network: ``calls[net]``."""
    calls = collections.Counter()
    lock = threading.Lock()  # evaluate runs one net's batches on several threads
    forward = blocks.Network.forward

    def counting_forward(net, x):
        with lock:
            calls[net] += 1
        return forward(net, x)

    with mock.patch.object(blocks.Network, "forward", counting_forward):
        yield calls
