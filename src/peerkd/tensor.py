"""Dense-tensor engine with reverse-mode differentiation.

Values are numpy arrays (float32 for training, float64 for gradient
checking). Every differentiable op whose inputs include one that requires a
gradient links its output to its inputs with a vector-Jacobian-product
closure. ``backward(loss, wrt)`` replays only the part of that graph that
leads from ``loss`` to the tensors in ``wrt`` and writes ``.grad`` on those
tensors alone, as ``torch.autograd.grad`` or a JAX ``vjp`` would: which
parameters a loss trains is said at the call, not by flags on the graph.

A vjp closure holds the arrays its op used at record time (inputs, the
conv kernel, the linear weight, the batch-norm gamma) and never reads a
parameter's ``.data`` at replay. Optimizers assign fresh arrays instead of
writing into them, so a backward that runs after a step still
differentiates the graph exactly as it was recorded. Gradients accumulate
into ``Tensor.grad`` until explicitly cleared, so multi-phase optimization
controls exactly when they reset.

A recorded conv keeps its columns in the layout of the kernel-gradient
GEMM's second operand, so no backward copies them. Its vjp puts the kernel
gradient and the input gradient's slices of ``GRAD_X_SLICE`` images on one
work queue (``_run_each``) that the calling thread and the pool's workers
share: numpy releases the GIL inside the GEMMs, each slice writes its own
images of one gradient buffer, and every item does the same arithmetic on
any thread, so the gradients keep their bytes. ``trainer`` runs the peers'
forward passes and its evaluation batches on the same queue.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ConfigError, ShapeError, UsageError


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


def _start_pool():
    """(Re)start ``_POOL``: one worker per usable CPU beyond the caller's, and
    at least one; ``_WORKERS`` is their count."""
    global _POOL, _WORKERS
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    _WORKERS = max(1, cpus - 1)
    _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="peerkd")


def _share_malloc_arena():
    """Have every thread allocate from the main thread's malloc arena (glibc's
    ``M_ARENA_MAX`` = 1; a no-op where libc has no ``mallopt``). With an arena
    per thread, how much freed activation memory each arena keeps depends on
    the threads' timing, and peak RSS swung from run to run: 56.8 or 61.0 MB
    for a K=3 ring at batch 16, where one thread reads 59.8 +- 0.1 MB."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt(-8, 1)  # M_ARENA_MAX; before the pool's threads first allocate


_share_malloc_arena()
_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads: work sent to the old pool never runs
    os.register_at_fork(after_in_child=_start_pool)


def _run_each(fn, items):
    """``[fn(item) for item in items]``, run concurrently from one work queue:
    the calling thread and up to ``_WORKERS`` pool threads each take the next
    item under one lock until none is left, so one thread runs at most one
    item at a time and the caller always runs item 0. Results come back in
    item order. Every item finishes before this returns or raises, and the
    first failure in item order is the one raised. ``no_grad`` is per thread,
    so an item that must not record enters it itself. Never call this from a
    pool thread: with one worker, the helper it sends would wait behind the
    call that waits for it."""
    results, errors = [None] * len(items), [None] * len(items)
    order, lock = iter(range(len(items))), threading.Lock()

    def take():
        with lock:
            return next(order, None)

    def drain(i):
        while i is not None:
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # raised below, in item order
                errors[i] = exc
            i = take()

    mine = take()  # before any helper can start, so item 0 stays on this thread
    helpers = [_POOL.submit(lambda: drain(take())) for _ in range(min(_WORKERS, len(items) - 1))]
    try:
        drain(mine)
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()  # what ended a helper early, other than an item's Exception
    first = next((exc for exc in errors if exc is not None), None)
    if first is not None:
        raise first
    return results


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference), on the
    calling thread only: ops that other threads run meanwhile still record."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """N-dimensional value, optionally participating in the gradient graph.

    ``data`` is row-major and immutable by convention once produced:
    optimizers replace the array rather than writing into it, so saved
    activations in recorded graphs stay consistent.
    """

    __slots__ = ("data", "requires_grad", "grad", "_prev", "_vjp", "_op")

    def __init__(self, data, requires_grad=False, _prev=(), _vjp=None, _op=""):
        if isinstance(data, (np.ndarray, np.floating)) and data.dtype in (np.float32, np.float64):
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._prev = _prev
        self._vjp = _vjp
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self._op!r})"

    # -- operator sugar (same-shape tensors or python scalars only) --

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_coerce(other, self)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _records(parents) -> bool:
    """Whether an op on ``parents`` is recorded: the graph is live on this
    thread and some parent requires a gradient."""
    return _grad_mode.enabled and any([p.requires_grad for p in parents])


def _make(data, parents, vjp, op):
    """Wrap an op result; record the vjp when ``_records(parents)``."""
    if _records(parents):
        return Tensor(data, requires_grad=True, _prev=tuple(parents), _vjp=vjp, _op=op)
    return Tensor(data, _op=op)


def topo_order(root: Tensor) -> list:
    """Recorded operations in topological order (inputs before outputs)."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, wrt):
    """Accumulate d(loss)/d(t) into ``t.grad`` for each tensor ``t`` in ``wrt``.

    Only the recorded ops from which some ``wrt`` tensor can be reached are
    replayed, and no other tensor's ``.grad`` is written: parameters left out
    of ``wrt``, intermediates and the ops below the targets are untouched.
    Adjoints are tracked per call, so running backward twice from one loss
    doubles every gradient.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    targets = list(wrt)
    for t in targets:
        if not t.requires_grad:
            raise UsageError(f"backward: {t!r} in wrt does not require a gradient")
    if not loss.requires_grad:
        return
    # an op is replayed when one of its inputs leads to a target
    wanted = {id(t) for t in targets}
    reach = set(wanted)
    replay = []
    for node in topo_order(loss):
        if any([id(p) in reach for p in node._prev]):
            reach.add(id(node))
            replay.append(node)
    adjoint = {id(loss): np.ones_like(loss.data)}
    for node in reversed(replay):
        key = id(node)
        g = adjoint.get(key) if key in wanted else adjoint.pop(key, None)
        if g is None:
            continue
        for parent, pg in zip(node._prev, node._vjp(g)):
            if pg is None or id(parent) not in reach:
                continue
            acc = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if acc is None else acc + pg
    for t in targets:
        g = adjoint.pop(id(t), None)
        if g is not None:
            t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    if b.data.shape not in ((), a.data.shape):
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def vjp(g):
        gb = g if b.data.shape else np.sum(g, dtype=g.dtype)
        return g, gb

    return _make(a.data + b.data, (a, b), vjp, "add")


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    if b.data.shape not in ((), a.data.shape):
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")

    ad, bd = a.data, b.data

    def vjp(g):
        ga = g * bd
        gb = g * ad
        if not bd.shape:
            gb = np.sum(gb, dtype=g.dtype)
        return ga, gb

    return _make(ad * bd, (a, b), vjp, "mul")


def absolute(a: Tensor) -> Tensor:
    """|x| elementwise; subgradient 0 at exactly 0."""
    ad = a.data

    def vjp(g):
        return (g * np.sign(ad),)

    return _make(np.abs(ad), (a,), vjp, "abs")


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def vjp(g):
        return (np.full_like(a.data, g / n),)

    return _make(np.mean(a.data, dtype=a.data.dtype), (a,), vjp, "mean")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    if not 0.0 <= slope < 1.0:
        raise ConfigError(f"leaky_relu slope must be in [0, 1), got {slope}")
    mask = x.data >= 0
    if slope == 0.0:
        # x * mask has the bits of np.where(mask, x, x * 0.0), -0.0 and NaN
        # included, at a tenth of the cost
        out = x.data * mask

        def vjp(g):
            return (g * mask,)
    else:
        out = np.where(mask, x.data, x.data * np.asarray(slope, dtype=x.data.dtype))

        def vjp(g):
            return (np.where(mask, g, g * np.asarray(slope, dtype=g.dtype)),)

    return _make(out, (x,), vjp, "leaky_relu")


def relu(x: Tensor) -> Tensor:
    return leaky_relu(x, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, output clamped into the open interval (0, 1)."""
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    tiny = np.finfo(d.dtype).tiny
    top = np.nextafter(d.dtype.type(1.0), d.dtype.type(0.0))
    out = np.clip(out, tiny, top)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), vjp, "sigmoid")


# ---------------------------------------------------------------------------
# linear / conv / norm / pooling
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[B,F_in] @ weight[F_out,F_in]^T + bias[F_out]."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError("linear expects 2-D input and weight")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"linear: input width {x.data.shape[1]} != weight fan-in {weight.data.shape[1]}"
        )
    if bias.data.shape != (weight.data.shape[0],):
        raise ShapeError(f"linear: bias shape {bias.data.shape} != ({weight.data.shape[0]},)")
    xd, w = x.data, weight.data
    out = xd @ w.T + bias.data

    def vjp(g):
        return g @ w, g.T @ xd, g.sum(axis=0)

    return _make(out, (x, weight, bias), vjp, "linear")


# The input gradient is taken this many images at a time, one work-queue item
# per slice. Its GEMM output and col2im temporaries are then a slice's worth
# per thread, beside the kernel gradient or another slice, which keeps the
# conv backward's peak memory below that of one unsliced input gradient; each
# image's GEMM and each tap's add order do not depend on the slice, so
# neither do the bytes.
GRAD_X_SLICE = 32


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    """Sliding windows of a padded NCHW array as [B, C*kh*kw, L] columns."""
    b, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sb, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, kh, kw, oh, ow),
        strides=(sb, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    return windows.reshape(b, c * kh * kw, oh * ow), oh, ow


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with [C_out,C_in,kH,kW] kernel, plus a
    per-output-channel bias."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and kernel")
    b, c_in, h, w = x.data.shape
    c_out, kc, kh, kw = kernel.data.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: input has {c_in} channels, kernel expects {kc}")
    if bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d: bad stride {stride} or padding {padding}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input "
            f"{h + 2 * padding}x{w + 2 * padding}"
        )
    xp = x.data
    if padding:
        xp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x.data
    cols, oh, ow = _im2col(xp, kh, kw, stride)
    wmat = kernel.data.reshape(c_out, -1)
    out = np.matmul(wmat, cols).reshape(b, c_out, oh, ow)
    out += bias.data[None, :, None, None]
    parents = (x, kernel, bias)
    if not _records(parents):
        return Tensor(out, _op="conv2d")
    # the second operand that np.tensordot(go, cols, axes=([0, 2], [0, 2]))
    # would build on every backward, built once here; at batch 1 it is a
    # view, as in tensordot, and a contiguous copy would re-round the GEMM
    rows = cols.transpose(0, 2, 1).reshape(b * oh * ow, -1)
    # a constant input (a data batch, a detached feature) costs no input
    # gradient; a recorded conv's kernel and bias are parameters
    need_x = x.requires_grad
    hp, wp = xp.shape[2:]

    def kernel_grad(go):
        # tensordot's own GEMM, on its own operands
        return np.dot(go.transpose(1, 0, 2).reshape(c_out, -1), rows).reshape(c_out, kc, kh, kw)

    def vjp(g):
        go = g.reshape(b, c_out, oh * ow)
        if not need_x:
            return None, kernel_grad(go), go.sum(axis=(0, 2))
        # col2im sums the taps in an [H, W, B, C] buffer, so each tap's add
        # runs along B*C-long rows, not output-width-long ones; the taps add
        # in the same order from +0.0, so every sum keeps its bits
        g_xp = np.zeros((hp, wp, b, c_in), dtype=x.data.dtype)

        def input_slice(b0):
            part = go[b0:b0 + GRAD_X_SLICE]
            g_cols = np.matmul(wmat.T, part).reshape(len(part), c_in, kh, kw, oh, ow)
            g_part = g_xp[:, :, b0:b0 + GRAD_X_SLICE]
            for u in range(kh):
                for v in range(kw):
                    g_part[u:u + stride * oh:stride, v:v + stride * ow:stride] += \
                        g_cols[:, :, u, v].transpose(2, 3, 0, 1)

        # input slice 0 first, on the calling thread, then the kernel gradient,
        # so a conv of up to GRAD_X_SLICE images splits as two halves
        tasks = [functools.partial(input_slice, b0) for b0 in range(0, b, GRAD_X_SLICE)]
        tasks.insert(1, functools.partial(kernel_grad, go))
        g_kernel = _run_each(lambda task: task(), tasks)[1]
        g_xp = np.ascontiguousarray(g_xp.transpose(2, 3, 0, 1))
        g_x = g_xp[:, :, padding:padding + h, padding:padding + w] if padding else g_xp
        return g_x, g_kernel, go.sum(axis=(0, 2))

    return _make(out, parents, vjp, "conv2d")


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over (B, H, W) of an NCHW tensor.

    Training mode normalizes by batch statistics and folds them into the
    running buffers in place (exponential moving average, unbiased variance
    for the running estimate). Eval mode normalizes by the running buffers.

    The centred input is computed once: the variance is the mean of its
    square (the bits of ``np.var``), and it becomes the normalized input in
    place. The vjp takes the means of ``g`` and ``g * xhat`` from the sums it
    already has for the beta and gamma gradients.
    """
    if x.data.ndim != 4:
        raise ShapeError("batch_norm expects NCHW input")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be per-channel vectors")
    axes = (0, 2, 3)
    n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
    if training:
        mean = x.data.mean(axis=axes)
        xhat = x.data - mean[None, :, None, None]
        var = (xhat * xhat).mean(axis=axes)
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        var = running_var.astype(x.data.dtype, copy=False)
        xhat = x.data - running_mean.astype(x.data.dtype, copy=False)[None, :, None, None]
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat *= inv_std[None, :, None, None]
    gamma_data = gamma.data
    out = gamma_data[None, :, None, None] * xhat
    out += beta.data[None, :, None, None]

    def vjp(g):
        g_beta = g.sum(axis=axes)
        g_gamma = (g * xhat).sum(axis=axes)
        scale = (gamma_data * inv_std)[None, :, None, None]
        if training:
            g_x = g - (g_beta / n)[None, :, None, None]
            g_x -= xhat * (g_gamma / n)[None, :, None, None]
            np.multiply(scale, g_x, out=g_x)
        else:
            g_x = scale * g
        return g_x, g_gamma, g_beta

    return _make(out, (x, gamma, beta), vjp, "batch_norm")


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: [B,C,H,W] -> [B,C]."""
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool expects NCHW input")
    b, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def vjp(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).astype(g.dtype),)

    return _make(out, (x,), vjp, "global_avg_pool")


def avg_pool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping k x k average pooling; spatial dims must divide by k.

    The window sum adds the strided slices ``x[:, :, i::k, j::k]`` along each
    window row, then adds the rows, each ``sum`` starting from its 0, which
    adds as +0.0. That is the order and the start of numpy's mean over the
    reshaped windows, so the result has its bits: the +0.0 start turns an
    all -0.0 window (a ReLU of negatives) into +0.0, as numpy does. Two cases
    differ in the last bit: k >= 8, where numpy sums a window row pairwise,
    and an output width of 1, where numpy sums each window as one run.
    """
    if x.data.ndim != 4:
        raise ShapeError("avg_pool2d expects NCHW input")
    if k < 1:
        raise ConfigError(f"avg_pool2d: pool size must be >= 1, got {k}")
    h, w = x.data.shape[2:]
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d: spatial dims {h}x{w} not divisible by {k}")
    d = x.data
    out = sum(sum(d[:, :, i::k, j::k] for j in range(k)) for i in range(k))
    out /= k * k

    def vjp(g):
        return (np.repeat(np.repeat(g / (k * k), k, axis=3), k, axis=2),)

    return _make(out, (x,), vjp, "avg_pool2d")


# ---------------------------------------------------------------------------
# row-wise classification helpers
# ---------------------------------------------------------------------------


def log_softmax_np(z: np.ndarray) -> np.ndarray:
    """Graph-free log softmax per row, max-subtracted for stability."""
    u = z - z.max(axis=1, keepdims=True)
    return u - np.log(np.exp(u).sum(axis=1, keepdims=True))


def row_log_softmax(z: Tensor) -> Tensor:
    """log softmax per row of a [B,C] tensor."""
    if z.data.ndim != 2:
        raise ShapeError("row_log_softmax expects a [B,C] tensor")
    logp = log_softmax_np(z.data)

    def vjp(g):
        p = np.exp(logp)
        return (g - p * g.sum(axis=1, keepdims=True),)

    return _make(logp, (z,), vjp, "row_log_softmax")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _make(out, (x,), vjp, "reshape")


def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """x[i, index[i]] for each row i of a [B,C] tensor."""
    if x.data.ndim != 2:
        raise ShapeError("take_rows expects a [B,C] tensor")
    idx = np.asarray(index, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    out = x.data[rows, idx]

    def vjp(g):
        g_x = np.zeros_like(x.data)
        g_x[rows, idx] = g
        return (g_x,)

    return _make(out, (x,), vjp, "take_rows")
