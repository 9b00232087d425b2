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

A recorded op is a ``_Node`` apart from its output Tensor: the nodes of
its inputs (None for a constant input), its vjp closure and its op name.
A vjp captures the arrays it reads and the shapes and dtypes it needs, never
a Tensor, so an op's output array lives only as long as some Tensor or vjp
holds it: a conv, batch-norm, ReLU or pooling output inside a net is freed
as soon as the next layer has taken it.

A conv gathers its [B, C*kh*kw, L] columns in one ``np.take`` along a
cached flat index per image shape, from the input with one zero appended
for the padding, and its vjp returns the input gradient contiguous. Batch
norm's per-channel element ops run along [B, C*H*W] rows. Each kernel keeps
the plain formulas' element ops, reductions and GEMM operands, so the bytes
stay the same.

A recorded conv keeps its input with one zero appended, not the columns,
which a 3x3 kernel makes 9x larger. Its kernel gradient gathers its GEMM
operand again on every backward, in the [B*L, C*kh*kw] layout
``np.tensordot`` would make, as gradient checkpointing recomputes an
activation (Chen et al. 2016, arXiv 1604.06174). Its vjp puts the kernel
gradient and the input gradient's slices of ``GRAD_X_SLICE`` images on one
work queue (``_run_each``): a stack of items that every thread shares and
runs newest first. numpy releases the GIL inside the GEMMs, each slice
writes its own images of one gradient buffer, and every item does the same
arithmetic on any thread, so the gradients keep their bytes. ``trainer``
runs the peers' forward passes, its evaluation batches, phase A's per-net
backwards and phase B's edges on the same queue, so a conv vjp's call may
run inside another call's item, on any thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

from .errors import ConfigError, ShapeError, UsageError


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


class _Call:
    """The items of one ``_run_each`` call: how many are unfinished, and each
    one's result and failure. ``unfinished`` changes under ``_changed`` only."""

    __slots__ = ("fn", "items", "unfinished", "results", "errors")

    def __init__(self, fn, items):
        self.fn, self.items, self.unfinished = fn, items, len(items)
        self.results, self.errors = [None] * len(items), [None] * len(items)

    def run(self, i):
        try:
            self.results[i] = self.fn(self.items[i])
        except BaseException as exc:  # raised by the caller, in item order
            self.errors[i] = exc
        with _changed:
            self.unfinished -= 1
            if not self.unfinished:
                _changed.notify_all()


def _work(call=None):
    """Run the newest queued item, again and again, until ``call`` has
    finished; a pool thread (no ``call``) runs items forever."""
    while True:
        with _changed:
            while not _tasks and (call is None or call.unfinished):
                _changed.wait()
            if call is not None and not call.unfinished:
                return
            job, i = _tasks.pop()
        job.run(i)
        # a waiting pool thread must not keep the call's items and results
        del job


def _reset_pool():
    """(Re)set the pool, at import and in a forked child (which has none of
    the parent's threads, and may hold a lock one of them took): an empty
    stack ``_tasks`` of queued (call, item index) pairs, the condition
    ``_changed`` that guards it and every call's count, and no threads until
    a call first queues items; then ``_WORKERS`` daemon threads run them, one
    per usable CPU beyond the caller's and at least one."""
    global _WORKERS, _tasks, _changed, _threads
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    _WORKERS = max(1, cpus - 1)
    _tasks, _changed, _threads = [], threading.Condition(), []


def _share_malloc_arena():
    """Set glibc's malloc options (a no-op where libc has no ``mallopt``);
    return whether libc took them all.

    ``M_ARENA_MAX`` = 1, so every thread allocates from the main thread's
    arena: with an arena per thread, how much freed activation memory each
    arena keeps depends on the threads' timing, and peak RSS swung from run
    to run (56.8 or 61.0 MB for a K=3 ring at batch 16, where one thread
    reads 59.8 +- 0.1 MB).

    ``M_MMAP_THRESHOLD`` = 32 MiB (the largest every 64-bit glibc takes,
    above every array of a tiny-a or tiny-b step at batch 128) and
    ``M_TRIM_THRESHOLD`` = 256 MiB, so the memory a step frees stays in the
    heap for the next one. With glibc's defaults each large array was
    mapped afresh and the heap's freed top went back to the OS: a dml tiny-a
    pair's step at batch 128 faulted ~4,000 pages in again, against ~5 now.
    Both or neither: a trim threshold alone also pins the mmap threshold at
    128 KiB, and that step then faulted ~43,000 times. The heap keeps its
    peak size."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return False
    # M_ARENA_MAX, before the pool's threads first allocate
    shared = mallopt(-8, 1) == 1
    # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD only if it was taken
    kept = mallopt(-3, 32 << 20) == 1 and mallopt(-1, 256 << 20) == 1
    return shared and kept


_share_malloc_arena()
_reset_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _run_each(fn, items):
    """``[fn(item) for item in items]``, run concurrently from one stack of
    queued items that any thread may call into, a pool thread running an
    item included.

    The caller pushes items n-1 ... 1, so item 1 is on top, and runs item 0.
    Then it runs queued items until its own have finished, as the pool's
    threads do: every thread runs the newest queued item first, so a call
    made inside an item finishes before new outer items start, and no
    thread waits while an item is queued. Results come back in item order.
    Every item finishes before this returns or raises, and the first failure
    in item order, a ``BaseException`` included, is the one raised.
    ``no_grad`` is per thread, so an item that must not record enters it
    itself."""
    call = _Call(fn, list(items))
    if not call.items:
        return []
    with _changed:
        while len(_threads) < _WORKERS:
            _threads.append(threading.Thread(target=_work, name="peerkd", daemon=True))
            _threads[-1].start()
        _tasks.extend((call, i) for i in range(len(call.items) - 1, 0, -1))
        _changed.notify_all()
    call.run(0)
    _work(call)
    first = next((exc for exc in call.errors if exc is not None), None)
    if first is not None:
        raise first
    return call.results


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


class _Node:
    """A recorded op, or a leaf that requires a gradient: the nodes of the
    op's inputs (None for a constant input), its vjp and its op name."""

    __slots__ = ("parents", "vjp", "op")

    def __init__(self, parents=(), vjp=None, op="leaf"):
        self.parents = parents
        self.vjp = vjp
        self.op = op


class Tensor:
    """N-dimensional value, optionally participating in the gradient graph.

    ``data`` is row-major and immutable by convention once produced:
    optimizers replace the array rather than writing into it, so saved
    activations in recorded graphs stay consistent. A tensor requires a
    gradient exactly when it has a graph node: its op's, or a leaf's, made
    when it is built with ``requires_grad=True``.
    """

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, (np.ndarray, np.floating)) and data.dtype in (np.float32, np.float64):
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.grad = None
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, severed from the graph."""
        return Tensor(self.data)

    def __repr__(self):
        op = self._node.op if self._node is not None else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={op!r})"

    # -- operator sugar (same-shape tensors or python scalars only) --

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_coerce(other, self)))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _records(parents) -> bool:
    """Whether an op on ``parents`` is recorded: the graph is live on this
    thread and some parent requires a gradient."""
    return _grad_mode.enabled and any([p._node is not None for p in parents])


def _make(data, parents, vjp, op):
    """Wrap an op result; record the vjp when ``_records(parents)``."""
    out = Tensor(data)
    if _records(parents):
        out._node = _Node(tuple([p._node for p in parents]), vjp, op)
    return out


def topo_order(root: Tensor) -> list:
    """The graph nodes below ``root`` in topological order (inputs before
    outputs); constant inputs have none."""
    order, seen = [], set()
    stack = [(root._node, False)] if root._node is not None else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and parent not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, wrt):
    """Accumulate d(loss)/d(t) into ``t.grad`` for each tensor ``t`` in ``wrt``.

    Only the recorded ops from which some ``wrt`` tensor can be reached are
    replayed, and no other tensor's ``.grad`` is written: parameters left out
    of ``wrt``, intermediates and the ops below the targets are untouched.
    Adjoints are tracked per call and keyed by graph node, so running
    backward twice from one loss doubles every gradient.
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
    wanted = {t._node for t in targets}
    reach = set(wanted)
    replay = []
    for node in topo_order(loss):
        if any([p in reach for p in node.parents]):
            reach.add(node)
            replay.append(node)
    adjoint = {loss._node: np.ones_like(loss.data)}
    for node in reversed(replay):
        g = adjoint.get(node) if node in wanted else adjoint.pop(node, None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or parent not in reach:
                continue
            acc = adjoint.get(parent)
            adjoint[parent] = pg if acc is None else acc + pg
    for t in targets:
        g = adjoint.pop(t._node, None)
        if g is not None:
            t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    if b.data.shape not in ((), a.data.shape):
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    scalar_b = not b.data.shape

    def vjp(g):
        gb = np.sum(g, dtype=g.dtype) if scalar_b else g
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
    n, shape, dtype = a.data.size, a.data.shape, a.data.dtype

    def vjp(g):
        return (np.full(shape, g / n, dtype=dtype),)

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


@functools.lru_cache(maxsize=None)
def _col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """The flat C*H*W input index of each [C*kh*kw, L] column entry of one
    image (C*H*W, one zero past the image, on the padding); the same index
    in [L, C*kh*kw] order, so one ``np.take`` gathers the transposed columns
    contiguous; and the output height and width. The indices are read-only,
    as every conv of the shape shares them."""
    oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    row = np.arange(kh)[:, None, None, None] + stride * np.arange(oh)[:, None] - padding
    col = np.arange(kw)[:, None, None] + stride * np.arange(ow) - padding
    inside = (row >= 0) & (row < h) & (col >= 0) & (col < w)
    channel = h * w * np.arange(c)[:, None, None, None, None]
    index = np.where(inside, channel + row * w + col, c * h * w).reshape(-1).astype(np.intp)
    by_row = np.ascontiguousarray(index.reshape(-1, oh * ow).T).reshape(-1)
    index.flags.writeable = by_row.flags.writeable = False
    return index, by_row, oh, ow


def _im2col(src: np.ndarray, shape, kh: int, kw: int, stride: int, padding: int):
    """[B, C*kh*kw, L] columns of an NCHW array of ``shape``, gathered from
    its [B, C*H*W + 1] images with one zero appended for the padding; and the
    output height and width."""
    b, c, h, w = shape
    index, _, oh, ow = _col_index(c, h, w, kh, kw, stride, padding)
    # every index is in range: "wrap" only skips the default's bounds check
    return np.take(src, index, axis=1, mode="wrap").reshape(b, c * kh * kw, oh * ow), oh, ow


def _im2row(src: np.ndarray, shape, kh: int, kw: int, stride: int, padding: int):
    """The [B*L, C*kh*kw] operand that ``np.tensordot(go, cols, axes=([0, 2],
    [0, 2]))`` makes of the columns, from the images they are gathered from.
    At batch 1 it is tensordot's transposed view of the columns (a contiguous
    copy would re-round the GEMM); above, one C-contiguous ``np.take`` along
    the columns' index in row order."""
    b, c, h, w = shape
    if b == 1:
        cols = _im2col(src, shape, kh, kw, stride, padding)[0]
        return cols.transpose(0, 2, 1).reshape(-1, cols.shape[1])
    by_row = _col_index(c, h, w, kh, kw, stride, padding)[1]
    return np.take(src, by_row, axis=1, mode="wrap").reshape(-1, c * kh * kw)


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
    src = np.concatenate((x.data.reshape(b, -1), np.zeros((b, 1), dtype=x.data.dtype)), axis=1)
    cols, oh, ow = _im2col(src, x.data.shape, kh, kw, stride, padding)
    wmat = kernel.data.reshape(c_out, -1)
    # the bias goes on along [B, C_out*oh*ow] rows of the fresh product: a
    # broadcast's element adds, without its oh*ow-long inner loop
    out = np.matmul(wmat, cols).reshape(b, c_out * oh * ow)
    out += np.repeat(bias.data, oh * ow)
    out = out.reshape(b, c_out, oh, ow)
    parents = (x, kernel, bias)
    if not _records(parents):
        return Tensor(out)
    # the graph keeps the padded input, not the columns, and the kernel
    # gradient gathers its operand from it on every backward; a constant
    # input (a data batch, a detached feature) costs no input gradient, and
    # a recorded conv's kernel and bias are parameters
    need_x, dtype, shape = x.requires_grad, x.data.dtype, x.data.shape
    hp, wp = h + 2 * padding, w + 2 * padding

    def kernel_grad(go):
        # tensordot's own GEMM, on its own operands
        rows = _im2row(src, shape, kh, kw, stride, padding)
        return np.dot(go.transpose(1, 0, 2).reshape(c_out, -1), rows).reshape(c_out, kc, kh, kw)

    def vjp(g):
        go = g.reshape(b, c_out, oh * ow)
        if not need_x:
            return None, kernel_grad(go), go.sum(axis=(0, 2))
        # col2im sums the taps in an [H, W, B, C] buffer, so each tap's add
        # runs along B*C-long rows, not output-width-long ones; the taps add
        # in the same order from +0.0, so every sum keeps its bits
        g_xp = np.zeros((hp, wp, b, c_in), dtype=dtype)

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
        g_x = g_xp[padding:padding + h, padding:padding + w].transpose(2, 3, 0, 1)
        return np.ascontiguousarray(g_x), g_kernel, go.sum(axis=(0, 2))

    return _make(out, parents, vjp, "conv2d")


# the running statistics' moving-average weight, and the variance's offset
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-channel normalization over (B, H, W) of an NCHW tensor.

    Training mode normalizes by batch statistics and folds them into the
    running buffers in place (exponential moving average, unbiased variance
    for the running estimate). Eval mode normalizes by the running buffers.

    The centred input is computed once: the variance is the mean of its
    square (the bits of ``np.var``), and it becomes the normalized input in
    place. Per-channel values repeated H*W times give a broadcast's element
    ops along [B, C*H*W] rows. The square's buffer becomes the output, as
    does the normalized input of an unrecorded eval op. The vjp takes the
    means of ``g`` and ``g * xhat`` from the sums it already has for the
    beta and gamma gradients, and reuses the ``g * xhat`` buffer.
    """
    if x.data.ndim != 4:
        raise ShapeError("batch_norm expects NCHW input")
    b, c, h, w = shape = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be per-channel vectors")
    axes, n = (0, 2, 3), b * h * w
    per_row = functools.partial(np.repeat, repeats=h * w)
    x_rows = x.data.reshape(b, c * h * w)
    parents = (x, gamma, beta)
    recorded = _records(parents)
    if training:
        mean = x.data.mean(axis=axes)
        xhat = x_rows - per_row(mean)
        out = np.multiply(xhat, xhat)
        var = out.reshape(shape).mean(axis=axes)
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        var = running_var.astype(x.data.dtype, copy=False)
        xhat = x_rows - per_row(running_mean.astype(x.data.dtype, copy=False))
        out = np.empty_like(xhat) if recorded else xhat
    inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=x.data.dtype))
    xhat *= per_row(inv_std)
    gamma_data = gamma.data
    np.multiply(per_row(gamma_data), xhat, out=out)
    out += per_row(beta.data)
    if not recorded:
        return Tensor(out.reshape(shape))

    def vjp(g):
        g_beta = g.sum(axis=axes)
        g_rows = g.reshape(b, c * h * w)
        g_xhat = g_rows * xhat
        g_gamma = g_xhat.reshape(shape).sum(axis=axes)
        scale = per_row(gamma_data * inv_std)
        if training:
            g_x = g_rows - per_row(g_beta / n)
            g_x -= np.multiply(xhat, per_row(g_gamma / n), out=g_xhat)
            np.multiply(scale, g_x, out=g_x)
        else:
            g_x = scale * g_rows
        return g_x.reshape(shape), g_gamma, g_beta

    return _make(out.reshape(shape), parents, vjp, "batch_norm")


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: [B,C,H,W] -> [B,C]."""
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool expects NCHW input")
    b, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def vjp(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w)).astype(g.dtype),)

    return _make(out, (x,), vjp, "global_avg_pool")


def avg_pool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping k x k average pooling; spatial dims must divide by k.

    The window sum is Python's ``sum`` of the strided slices
    ``x[:, :, i::k, j::k]`` along each window row, then of the rows, each sum
    starting from +0.0: the order and the start of numpy's mean over the
    reshaped windows, so the result has its bits, and the +0.0 start turns
    an all -0.0 window (a ReLU of negatives) into +0.0, as numpy does. Two
    cases differ in the last bit: k >= 8, where numpy sums a window row
    pairwise, and an output width of 1, where numpy sums each window as one
    run.
    """
    if x.data.ndim != 4:
        raise ShapeError("avg_pool2d expects NCHW input")
    if k < 1:
        raise ConfigError(f"avg_pool2d: pool size must be >= 1, got {k}")
    h, w = x.data.shape[2:]
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d: spatial dims {h}x{w} not divisible by {k}")
    out = sum(sum(x.data[:, :, i::k, j::k] for j in range(k)) for i in range(k))
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
    shape, in_shape = tuple(shape), x.data.shape
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(in_shape),)

    return _make(out, (x,), vjp, "reshape")


def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """x[i, index[i]] for each row i of a [B,C] tensor."""
    if x.data.ndim != 2:
        raise ShapeError("take_rows expects a [B,C] tensor")
    idx = np.asarray(index, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    out = x.data[rows, idx]
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        g_x = np.zeros(shape, dtype=dtype)
        g_x[rows, idx] = g
        return (g_x,)

    return _make(out, (x,), vjp, "take_rows")
