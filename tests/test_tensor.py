"""Forward oracles and backward semantics of the tensor engine."""

import collections
import contextlib
import ctypes
import gc
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rel_err
from peerkd import tensor as T
from peerkd.blocks import build_network
from peerkd.errors import ConfigError, ShapeError, UsageError
from peerkd.tensor import Tensor, backward, no_grad


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def zero_bias(c_out):
    return Tensor(np.zeros(c_out, dtype=np.float32))


def _same_bits(a, b):
    """Byte equality, except that NaNs need only be NaN at the same places:
    which of two different NaN operands an add returns is not fixed in numpy
    (it differs between positions of one contiguous add)."""
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (a.dtype == b.dtype and a.shape == b.shape and (nan_a == nan_b).all()
            and a[~nan_a].tobytes() == b[~nan_b].tobytes())


def _with_specials(rng, shape, dtype, where):
    """Normal draws (a third of them -0.0) with -0.0, +0.0, NaN, +-inf and a
    denormal planted where ``where`` is set."""
    x = rng.standard_normal(shape).astype(dtype)
    x[rng.random(shape) < 0.3] = -0.0
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-45], dtype=dtype)
    hits = where & (rng.random(shape) < 0.25)
    x[hits] = specials[rng.integers(0, len(specials), int(hits.sum()))]
    return x


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        w = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        out = T.linear(x, w, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_hand_sum(self):
        x = Tensor(np.array([[1.0, 1.0]], dtype=np.float32))
        w = Tensor(np.array([[1.0, 1.0]], dtype=np.float32))
        b = Tensor(np.array([3.0], dtype=np.float32))
        out = T.linear(x, w, b)
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        expect = np.zeros((4, 2), dtype=np.float64)
        for i in range(4):
            for o in range(2):
                acc = float(b[o])
                for j in range(3):
                    acc += float(x[i, j]) * float(w[o, j])
                expect[i, o] = acc
        assert rel_err(out, expect) < 1e-6

    def test_vjp_uses_the_recorded_weight(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)
        out = T.linear(x, w, b)
        g = rng.standard_normal((4, 2)).astype(np.float32)
        before = out._node.vjp(g)
        w.data = w.data * np.float32(3.0)  # an optimizer step assigns a fresh array
        assert [a.tobytes() for a in out._node.vjp(g)] == [a.tobytes() for a in before]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros((1, 3), dtype=np.float32)),
                     Tensor(np.zeros((2, 4), dtype=np.float32)),
                     Tensor(np.zeros(2, dtype=np.float32)))


def conv_loop_oracle(x, k, stride, padding):
    b, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, c_out, oh, ow))
    for bi in range(b):
        for o in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[bi, o, i, j] = (patch * k[o]).sum()
    return out


class TestConv2d:
    def test_one_by_one_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 4, 4)).astype(np.float32))
        k = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = T.conv2d(x, k, zero_bias(1))
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
        k = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = T.conv2d(x, k, zero_bias(1))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 9.0, dtype=np.float32))

    def test_strided_padded_against_loop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(k), zero_bias(3), stride=2, padding=1).data
        assert out.shape == (1, 3, 3, 3)
        assert rel_err(out, conv_loop_oracle(x, k, 2, 1)) < 1e-6

    def test_vjp_skips_gradients_not_needed_at_record_time(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        bias = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.ones((2, 3, 5, 5), dtype=np.float32)
        out = T.conv2d(x, k, bias, padding=1)
        g_x, g_k, g_b = out._node.vjp(g)
        assert g_x is None and g_k.shape == k.shape and g_b.shape == (3,)

    @pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_float32_kernel_gradient_against_float64_oracle(self, k, stride, padding):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 16, 10, 10)).astype(np.float32)
        kernel = rng.standard_normal((12, 16, k, k)).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(kernel, requires_grad=True), zero_bias(12),
                       stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        g_kernel = out._node.vjp(g)[1]
        assert g_kernel.dtype == np.float32
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh, ow = out.shape[2:]
        expect = np.zeros(kernel.shape)
        for u in range(k):
            for v in range(k):
                window = xp[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride]
                expect[:, :, u, v] = np.einsum("bohw,bchw->oc", g.astype(np.float64), window)
        err = np.linalg.norm(g_kernel - expect) / np.linalg.norm(expect)
        assert err <= 1e-5

    @pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_input_gradient_bits_match_tap_loop(self, k, stride, padding):
        """col2im adds the taps in row-major order from +0.0, whatever layout
        it sums in; -0.0 gradient entries included."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((3, 5, 6, 6)).astype(np.float32), requires_grad=True)
        kernel = Tensor(rng.standard_normal((4, 5, k, k)).astype(np.float32))
        out = T.conv2d(x, kernel, zero_bias(4), stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        g[g < -0.5] = -0.0
        b, _, oh, ow = out.shape
        g_cols = np.matmul(kernel.data.reshape(4, -1).T, g.reshape(b, 4, -1))
        g_cols = g_cols.reshape(b, 5, k, k, oh, ow)
        expect = np.zeros((b, 5, 6 + 2 * padding, 6 + 2 * padding), dtype=np.float32)
        for u in range(k):
            for v in range(k):
                expect[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += g_cols[:, :, u, v]
        expect = expect[:, :, padding:padding + 6, padding:padding + 6]
        assert _same_bits(out._node.vjp(g)[0], expect)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)),
                     Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32)), zero_bias(1))

    def test_bias_shape(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32)),
                     Tensor(np.zeros((2, 1, 1, 1), dtype=np.float32)), zero_bias(1))


# (c_in, c_out, kernel size, stride, input size) of every conv the package
# builds on 16x16 images: the extractor convs of tiny-a and tiny-b, the
# discriminator's two convs at the default --disc-width 32 (on tiny-a's and
# tiny-b's 4x4 features), and the 1x1 transfer layers of a tiny-a/tiny-b pair
PACKAGE_CONVS = {
    "tiny-a_1-16": (1, 16, 3, 1, 16), "tiny-a_16-64": (16, 64, 3, 1, 8),
    "tiny-a_64-32": (64, 32, 3, 1, 4), "tiny-b_1-32": (1, 32, 3, 1, 16),
    "tiny-b_32-128": (32, 128, 3, 1, 8), "tiny-b_128-64": (128, 64, 3, 1, 4),
    "disc_32-32": (32, 32, 3, 2, 4), "disc_64-32": (64, 32, 3, 2, 4),
    "disc_32-1": (32, 1, 3, 2, 2),
    "transfer_32-64": (32, 64, 1, 1, 4), "transfer_64-32": (64, 32, 1, 1, 4),
}


def reference_cols(x, kh, kw, stride, padding):
    """[B, C*kh*kw, L] columns of a conv's input, from its strided windows;
    and the padded input and the output height and width."""
    b, c_in, h, w = x.shape
    xp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)
    oh, ow = windows.shape[4:]
    return windows.reshape(b, c_in * kh * kw, oh * ow), xp, oh, ow


def conv_reference(x, kernel, bias, stride, padding, g):
    """Output and (input, kernel, bias) gradients of a conv, by formulas
    that ``conv2d`` must match byte for byte: the kernel gradient by
    ``np.tensordot`` over [B, K, L] columns, the input gradient by one
    batched GEMM and one col2im over the whole batch."""
    b, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    cols, xp, oh, ow = reference_cols(x, kh, kw, stride, padding)
    wmat = kernel.reshape(c_out, -1)
    out = np.matmul(wmat, cols).reshape(b, c_out, oh, ow)
    out += bias[None, :, None, None]
    go = g.reshape(b, c_out, oh * ow)
    g_kernel = np.tensordot(go, cols, axes=([0, 2], [0, 2])).reshape(kernel.shape)
    g_cols = np.matmul(wmat.T, go).reshape(b, c_in, kh, kw, oh, ow)
    g_xp = np.zeros((xp.shape[2], xp.shape[3], b, c_in), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            g_xp[u:u + stride * oh:stride, v:v + stride * ow:stride] += \
                g_cols[:, :, u, v].transpose(2, 3, 0, 1)
    g_x = g_xp.transpose(2, 3, 0, 1)[:, :, padding:padding + h, padding:padding + w]
    return out, g_x, g_kernel, go.sum(axis=(0, 2))


def batch_norm_reference(x, gamma, beta, running_mean, running_var, training, g,
                         momentum=0.1, eps=1e-5):
    """Output and (input, gamma, beta) gradients of a batch norm, by formulas
    that ``batch_norm`` must match byte for byte: per-channel broadcasts over
    NCHW. Folds the batch statistics into the running buffers in place."""
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mean = x.mean(axis=axes)
        xhat = x - mean[None, :, None, None]
        var = (xhat * xhat).mean(axis=axes)
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        var = running_var.astype(x.dtype, copy=False)
        xhat = x - running_mean.astype(x.dtype, copy=False)[None, :, None, None]
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = xhat * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    g_beta = g.sum(axis=axes)
    g_gamma = (g * xhat).sum(axis=axes)
    scale = (gamma * inv_std)[None, :, None, None]
    if training:
        g_x = scale * (g - (g_beta / n)[None, :, None, None]
                       - xhat * (g_gamma / n)[None, :, None, None])
    else:
        g_x = scale * g
    return out, g_x, g_gamma, g_beta


def avg_pool_reference(x, k, g):
    """Output and input gradient of a k x k average pool, by formulas that
    ``avg_pool2d`` must match byte for byte: Python ``sum``s of the strided
    window slices, and the output gradient repeated along both axes."""
    out = sum(sum(x[:, :, i::k, j::k] for j in range(k)) for i in range(k))
    out /= k * k
    return out, np.repeat(np.repeat(g / (k * k), k, axis=3), k, axis=2)


class TestConv2dBytes:
    """The conv's output and gradients have the bytes of the reference
    formulas on every conv shape the package trains, at batches of one image,
    under one input-gradient slice (``T.GRAD_X_SLICE``), a whole number of
    slices and a slice plus a one-image remainder; the input gradient comes
    back C-contiguous."""

    @staticmethod
    def _check(x, kernel, bias, stride, padding, need_x, rng):
        out = T.conv2d(Tensor(x, requires_grad=need_x), Tensor(kernel, requires_grad=True),
                       Tensor(bias, requires_grad=True), stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        want_out, want_x, want_kernel, want_bias = conv_reference(
            x, kernel, bias, stride, padding, g)
        got_x, got_kernel, got_bias = out._node.vjp(g)
        assert out.data.tobytes() == want_out.tobytes()
        assert got_kernel.shape == kernel.shape and got_kernel.tobytes() == want_kernel.tobytes()
        assert got_bias.tobytes() == want_bias.tobytes()
        if need_x:
            assert got_x.shape == x.shape and got_x.flags.c_contiguous
            assert got_x.tobytes() == want_x.tobytes()
        else:
            assert got_x is None

    @staticmethod
    def _inputs(rng, batch, c_in, c_out, k, h, w):
        return (rng.standard_normal((batch, c_in, h, w)).astype(np.float32),
                rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
                rng.standard_normal(c_out).astype(np.float32))

    @pytest.mark.parametrize("need_x", [True, False], ids=["input_grad", "no_input_grad"])
    @pytest.mark.parametrize("batch", [1, 8, 16, 33, 48, 128])
    @pytest.mark.parametrize("conv", list(PACKAGE_CONVS))
    def test_bytes_match_the_reference(self, conv, batch, need_x):
        c_in, c_out, k, stride, size = PACKAGE_CONVS[conv]
        rng = np.random.default_rng(batch)
        x, kernel, bias = self._inputs(rng, batch, c_in, c_out, k, size, size)
        self._check(x, kernel, bias, stride, k // 2, need_x, rng)

    @pytest.mark.parametrize("batch", [1, 8, 16, 33, 48, 128])
    @pytest.mark.parametrize("conv", list(PACKAGE_CONVS))
    def test_graph_free_output_matches_the_reference(self, conv, batch):
        c_in, c_out, k, stride, size = PACKAGE_CONVS[conv]
        x, kernel, bias = self._inputs(np.random.default_rng(batch), batch, c_in, c_out, k,
                                       size, size)
        with no_grad():
            out = T.conv2d(Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True),
                           Tensor(bias, requires_grad=True), stride=stride, padding=k // 2)
        assert out._node is None
        want = conv_reference(x, kernel, bias, stride, k // 2, np.zeros(out.shape, np.float32))
        assert out.data.tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("batch", [1, 33, 128])
    @pytest.mark.parametrize("conv", list(PACKAGE_CONVS))
    def test_kernel_gradient_operand_is_tensordots(self, conv, batch, monkeypatch):
        """The [B*L, K] operand that the vjp gathers for the kernel-gradient
        GEMM has the bytes and the strides of tensordot's transpose of the
        columns: the transposed view at batch 1, where a contiguous copy would
        re-round the GEMM, and C-contiguous above."""
        c_in, c_out, k, stride, size = PACKAGE_CONVS[conv]
        x, kernel, bias = self._inputs(np.random.default_rng(batch), batch, c_in, c_out, k,
                                       size, size)
        gathered, im2row = [], T._im2row

        def kept_im2row(*args):
            gathered.append(im2row(*args))
            return gathered[-1]

        monkeypatch.setattr(T, "_im2row", kept_im2row)
        out = T.conv2d(Tensor(x), Tensor(kernel, requires_grad=True),
                       Tensor(bias, requires_grad=True), stride=stride, padding=k // 2)
        assert not gathered
        out._node.vjp(np.ones(out.shape, dtype=np.float32))
        cols = reference_cols(x, k, k, stride, k // 2)[0]
        want = cols.transpose(0, 2, 1).reshape(batch * cols.shape[2], -1)
        [got] = gathered
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
        assert batch == 1 or got.flags.c_contiguous

    @pytest.mark.parametrize("need_x", [True, False], ids=["input_grad", "no_input_grad"])
    @pytest.mark.parametrize("batch", [1, 33])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_non_square_input(self, stride, padding, batch, need_x):
        """H != W, so a column index that swapped the two would show."""
        rng = np.random.default_rng(stride)
        x, kernel, bias = self._inputs(rng, batch, 5, 4, 3, 6, 10)
        self._check(x, kernel, bias, stride, padding, need_x, rng)


# (channels, size) of every batch norm the package builds on 16x16 images:
# after each extractor conv of tiny-a and tiny-b, and in the discriminator
PACKAGE_BATCH_NORMS = {
    "tiny-a_16": (16, 16), "tiny-a_64": (64, 8), "tiny-a_32": (32, 4),
    "tiny-b_32": (32, 16), "tiny-b_128": (128, 8), "tiny-b_64": (64, 4), "disc_32": (32, 2),
}


class TestBatchNormBytes:
    """Batch norm's output, running buffers and three gradients have the
    bytes of the per-channel broadcast formulas on every batch-norm shape the
    package builds, in both modes, recorded or not; specials in channel 0 of
    the input and channel 1 of the gradient. A graph-free op leaves its input
    as it was."""

    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "graph_free"])
    @pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("layer", list(PACKAGE_BATCH_NORMS))
    def test_bytes_match_the_reference(self, layer, batch, dtype, training, recorded):
        c, size = PACKAGE_BATCH_NORMS[layer]
        rng = np.random.default_rng(batch)
        shape = (batch, c, size, size)
        channel = np.broadcast_to(np.arange(c)[None, :, None, None], shape)
        x = _with_specials(rng, shape, dtype, channel == 0)
        g = _with_specials(rng, shape, dtype, channel == 1)
        gamma = rng.standard_normal(c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        rm0 = rng.standard_normal(c).astype(np.float32)  # the package's buffer dtype
        rv0 = (rng.random(c) + 0.5).astype(np.float32)
        rm, rv = rm0.copy(), rv0.copy()
        x_before = x.tobytes()
        with np.errstate(invalid="ignore"), contextlib.ExitStack() as stack:
            if not recorded:
                stack.enter_context(no_grad())
            out = T.batch_norm(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                               Tensor(beta, requires_grad=True), rm, rv, training)
            want = batch_norm_reference(x, gamma, beta, rm0, rv0, training, g)
        assert x.tobytes() == x_before
        for name, got, expect in (("out", out.data, want[0]),
                                  ("running_mean", rm, rm0), ("running_var", rv, rv0)):
            assert _same_bits(got, expect), name
        if not recorded:
            assert out._node is None
            return
        with np.errstate(invalid="ignore"):
            grads = out._node.vjp(g)
        for name, got, expect in zip(("g_x", "g_gamma", "g_beta"), grads, want[1:]):
            assert _same_bits(got, expect), name


class TestAvgPoolBytes:
    """Pooling's output and input gradient have the bytes of the ``sum`` and
    ``np.repeat`` formulas, with windows of all -0.0 (+0.0 out), of NaN, of
    +inf and of +-inf (NaN out)."""

    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "graph_free"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3])
    def test_bytes_match_the_reference(self, k, dtype, recorded):
        rng = np.random.default_rng(k)
        shape = (2, 3, 3 * k, 4 * k)
        x = _with_specials(rng, shape, dtype, rng.random(shape) < 0.1)
        x[0, 0, :k, :k] = -0.0
        x[0, 1, :k, :k] = np.nan
        x[0, 2, :k, :k] = np.inf
        x[1, 0, :k, :k] = np.inf
        x[1, 0, k - 1, k - 1] = -np.inf
        g = _with_specials(rng, (2, 3, 3, 4), dtype, rng.random((2, 3, 3, 4)) < 0.2)
        with np.errstate(invalid="ignore"), contextlib.ExitStack() as stack:
            if not recorded:
                stack.enter_context(no_grad())
            out = T.avg_pool2d(Tensor(x, requires_grad=True), k)
            want_out, want_g = avg_pool_reference(x, k, g)
        assert (want_out[0, 0, :1, :1].view(np.uint8) == 0).all()  # +0.0, not -0.0
        assert np.isnan(want_out[0, 1, 0, 0]) and np.isnan(want_out[1, 0, 0, 0])
        assert want_out[0, 2, 0, 0] == np.inf
        assert _same_bits(out.data, want_out)
        if recorded:
            (got_g,) = out._node.vjp(g)
            assert got_g.tobytes() == want_g.tobytes()


class TestBatchNorm:
    def _stats(self, c):
        return np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)

    def test_constant_input_zeros(self):
        x = Tensor(np.full((3, 2, 4, 4), 7.5, dtype=np.float32))
        g = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        rm, rv = self._stats(2)
        out = T.batch_norm(x, g, b, rm, rv, training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_affine_shift(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3, 4, 4)).astype(np.float32)
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        g = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.full(3, 5.0, dtype=np.float32))
        rm, rv = self._stats(3)
        out = T.batch_norm(Tensor(x), g, b, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 5.0, atol=1e-4)

    def test_output_statistics(self):
        rng = np.random.default_rng(6)
        x = Tensor((rng.standard_normal((16, 4, 5, 5)) * 3 + 1).astype(np.float32))
        g = Tensor(np.ones(4, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        rm, rv = self._stats(4)
        out = T.batch_norm(x, g, b, rm, rv, training=True).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-4
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    @pytest.mark.parametrize("training", [True, False])
    def test_vjp_uses_the_recorded_gamma(self, training):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)).astype(np.float32), requires_grad=True)
        gamma = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        beta = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        rm, rv = self._stats(3)
        out = T.batch_norm(x, gamma, beta, rm, rv, training)
        g = rng.standard_normal(out.shape).astype(np.float32)
        before = out._node.vjp(g)
        gamma.data = gamma.data * np.float32(3.0)  # an optimizer step assigns a fresh array
        assert [a.tobytes() for a in out._node.vjp(g)] == [a.tobytes() for a in before]

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 2, 3, 3)).astype(np.float32)
        g = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        rm, rv = self._stats(2)
        T.batch_norm(Tensor(x), g, b, rm, rv, training=True)
        mu = x.mean(axis=(0, 2, 3))
        n = 10 * 3 * 3
        var_u = x.var(axis=(0, 2, 3)) * n / (n - 1)
        np.testing.assert_allclose(rm, 0.1 * mu, rtol=1e-5)
        np.testing.assert_allclose(rv, 0.9 + 0.1 * var_u, rtol=1e-5)

    @staticmethod
    def _reference(x, gamma, beta, rm, rv, training, g, eps=1e-5):
        """The two-pass formula with np.var, and its vjp."""
        axes = (0, 2, 3)
        if training:
            mean, var = x.mean(axis=axes), x.var(axis=axes)
            n = x.shape[0] * x.shape[2] * x.shape[3]
            rm *= 0.9
            rm += 0.1 * mean
            rv *= 0.9
            rv += 0.1 * (var * (n / (n - 1)))
        else:
            mean, var = rm.astype(x.dtype), rv.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        scale = (gamma * inv_std)[None, :, None, None]
        if training:
            g_mean = g.mean(axis=axes)[None, :, None, None]
            gx_mean = (g * xhat).mean(axis=axes)[None, :, None, None]
            g_x = scale * (g - g_mean - xhat * gx_mean)
        else:
            g_x = scale * g
        return out, g_x, (g * xhat).sum(axis=axes), g.sum(axis=axes), rm, rv

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_two_pass_form(self, dtype, training):
        rng = np.random.default_rng(11)
        shape = (6, 4, 5, 3)
        channel = np.broadcast_to(np.arange(4)[None, :, None, None], shape)
        # specials in channel 0 of the input and channel 1 of the gradient;
        # channels 2 and 3 stay finite, with -0.0 throughout
        x = _with_specials(rng, shape, dtype, channel == 0)
        g = _with_specials(rng, shape, dtype, channel == 1)
        gamma = rng.standard_normal(4).astype(dtype)
        beta = rng.standard_normal(4).astype(dtype)
        rm0 = rng.standard_normal(4).astype(dtype)
        rv0 = (rng.random(4) + 0.5).astype(dtype)
        rm, rv = rm0.copy(), rv0.copy()
        with np.errstate(invalid="ignore"):
            out = T.batch_norm(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                               Tensor(beta, requires_grad=True), rm, rv, training)
            got = (out.data, *out._node.vjp(g), rm, rv)
            expect = self._reference(x, gamma, beta, rm0.copy(), rv0.copy(), training, g)
        assert np.isfinite(got[0][:, 2:]).all() and np.isnan(got[0][:, 0]).any()
        for name, a, b in zip(("out", "g_x", "g_gamma", "g_beta", "running_mean", "running_var"),
                              got, expect):
            assert _same_bits(a, b), name


class TestActivations:
    def test_leaky_relu_definition(self):
        x = Tensor(np.array([-1.0, 1.0], dtype=np.float32))
        out = T.leaky_relu(x, 0.2)
        np.testing.assert_allclose(out.data, [-0.2, 1.0], rtol=1e-6)

    def test_sigmoid_symmetry(self):
        out = T.sigmoid(Tensor(np.array([0.0], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [0.5])

    def test_relu_equals_zero_slope(self):
        x = Tensor(np.random.default_rng(1).standard_normal(40).astype(np.float32))
        np.testing.assert_array_equal(T.relu(x).data, T.leaky_relu(x, 0.0).data)

    def test_zero_slope_bits_match_where_form(self):
        vals = np.array([-2.5, -0.0, 0.0, 1.5, np.nan, -np.inf, np.inf, -1e-45], dtype=np.float32)
        grads = np.array([1.0, -3.0, 2.0, -0.0, 4.0, 5.0, np.nan, -7.0], dtype=np.float32)
        mask = vals >= 0
        zero = np.float32(0.0)
        with np.errstate(invalid="ignore"):  # inf * 0
            out = T.leaky_relu(Tensor(vals, requires_grad=True), 0.0)
            (got_grad,) = out._node.vjp(grads)
            expect_out = np.where(mask, vals, vals * zero)
            expect_grad = np.where(mask, grads, grads * zero)
        assert out.data.tobytes() == expect_out.tobytes()
        assert got_grad.tobytes() == expect_grad.tobytes()

    def test_bad_slope(self):
        with pytest.raises(ConfigError):
            T.leaky_relu(Tensor(np.zeros(2, dtype=np.float32)), 1.0)

    def test_sigmoid_open_interval(self):
        x = Tensor(np.array([-100.0, -5.0, 0.0, 5.0, 100.0], dtype=np.float32))
        out = T.sigmoid(x).data
        assert (out > 0.0).all() and (out < 1.0).all()

class TestPooling:
    def test_global_constant(self):
        x = Tensor(np.full((2, 3, 4, 5), 2.5, dtype=np.float32))
        np.testing.assert_allclose(T.global_avg_pool(x).data, 2.5, rtol=1e-6)

    def test_global_hand_mean(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 1, 2, 2))
        np.testing.assert_allclose(T.global_avg_pool(x).data, [[2.5]])

    def test_global_against_loop(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2, 4, 6)).astype(np.float32)
        out = T.global_avg_pool(Tensor(x)).data
        expect = np.zeros((3, 2))
        for b in range(3):
            for c in range(2):
                expect[b, c] = x[b, c].mean()
        assert rel_err(out, expect) < 1e-6

    def test_avg_pool_requires_divisible(self):
        with pytest.raises(ShapeError):
            T.avg_pool2d(Tensor(np.zeros((1, 1, 5, 4), dtype=np.float32)), 2)

    def test_avg_pool_rejects_non_positive_size(self):
        for k in (0, -2):
            with pytest.raises(ConfigError):
                T.avg_pool2d(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avg_pool_bits_match_reshape_mean(self, dtype, k):
        rng = np.random.default_rng(k)
        shape = (2, 3, 3 * k, 4 * k)
        x = _with_specials(rng, shape, dtype, rng.random(shape) < 0.1)
        x[0, 0] = -0.0  # whole windows of -0.0, as a ReLU of negatives leaves
        x[1, 0, 0, 0], x[1, 0, 1, 1] = np.inf, -np.inf
        x[1, 1, 0, 0], x[1, 2, 0, 0] = np.nan, -np.inf
        g = _with_specials(rng, (2, 3, 3, 4), dtype, rng.random((2, 3, 3, 4)) < 0.2)
        with np.errstate(invalid="ignore"):
            out = T.avg_pool2d(Tensor(x, requires_grad=True), k)
            (g_x,) = out._node.vjp(g)
            expect = x.reshape(2, 3, 3, k, 4, k).mean(axis=(3, 5))
            expect_g = (np.repeat(np.repeat(g, k, axis=2), k, axis=3) / (k * k)).astype(dtype)
        assert np.isnan(expect).any() and np.isinf(expect).any()
        assert (expect[0, 0].view(np.uint8) == 0).all()  # +0.0, not -0.0
        assert _same_bits(out.data, expect)
        assert g_x.tobytes() == expect_g.tobytes()


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([1.0, -2.0, 3.0], grad=True)
        sq = x * x
        backward(T.mean_all(sq) * sq.data.size, [x])
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0])

    def test_sigmoid_grad_quarter(self):
        x = t64([0.0], grad=True)
        s = T.sigmoid(x)
        backward(T.mean_all(s) * s.data.size, [x])
        np.testing.assert_allclose(x.grad, [0.25])

    def test_non_scalar_raises(self):
        x = t64([1.0, 2.0], grad=True)
        with pytest.raises(UsageError):
            backward(x * x, [x])

    def test_wrt_entry_without_requires_grad_raises(self):
        x = t64([1.0], grad=True)
        c = t64([2.0])
        xc = x * c
        with pytest.raises(UsageError):
            backward(T.mean_all(xc) * xc.data.size, [x, c])
        assert x.grad is None  # refused before anything is written

    def test_accumulation_doubles(self):
        x = t64([1.5, -0.5], grad=True)
        sq = x * x
        loss = T.mean_all(sq) * sq.data.size
        backward(loss, [x])
        first = x.grad.copy()
        backward(loss, [x])
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_unreachable_leaf_untouched(self):
        x = t64([1.0], grad=True)
        y = t64([2.0], grad=True)
        sq = x * x
        backward(T.mean_all(sq) * sq.data.size, [x, y])
        assert y.grad is None

    def test_linearity_power_of_two_exact(self):
        rng = np.random.default_rng(11)
        for c in (2.0, 4.0, 0.5, 8.0):
            x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.standard_normal((2, 4)).astype(np.float32), requires_grad=True)
            b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
            loss = T.mean_all(T.sigmoid(T.linear(x, w, b)))
            backward(loss, [x, w, b])
            base = {id(p): p.grad.copy() for p in (x, w, b)}
            for p in (x, w, b):
                p.grad = None
            loss2 = T.linear(x, w, b)
            loss2 = T.mean_all(T.sigmoid(loss2)) * c
            backward(loss2, [x, w, b])
            for p in (x, w, b):
                np.testing.assert_array_equal(p.grad, np.float32(c) * base[id(p)])

    def test_linearity_general_constant(self):
        x = t64(np.random.default_rng(12).standard_normal(6), grad=True)
        loss = T.mean_all(x * x * x)
        backward(loss, [x])
        base = x.grad.copy()
        x.grad = None
        backward(T.mean_all(x * x * x) * 3.7, [x])
        assert rel_err(x.grad, 3.7 * base) < 1e-12

    def test_grad_populated_on_intermediates(self):
        x = t64([2.0], grad=True)
        y = x * x
        sq = y * y
        backward(T.mean_all(sq) * sq.data.size, [y, x])
        np.testing.assert_allclose(y.grad, [8.0])  # d(y^2)/dy = 2y = 8
        np.testing.assert_allclose(x.grad, [32.0])  # d(x^4)/dx = 4x^3

    def test_leaf_outside_wrt_keeps_no_grad(self):
        x = t64([3.0], grad=True)
        w = t64([2.0], grad=True)
        y = x * w
        backward(T.mean_all(y) * y.data.size, [x])
        np.testing.assert_array_equal(x.grad, [2.0])
        assert w.grad is None and y.grad is None

    def test_ops_below_the_targets_are_not_replayed(self):
        x = t64([1.0, 2.0], grad=True)
        below = x * x
        feature = below + 1.0
        replayed = []
        node = below._node
        vjp = node.vjp
        node.vjp = lambda g: replayed.append(g) or vjp(g)
        sq = feature * feature
        backward(T.mean_all(sq) * sq.data.size, [feature])
        np.testing.assert_allclose(feature.grad, [4.0, 10.0])  # 2 * (x^2 + 1)
        assert replayed == [] and x.grad is None and below.grad is None

    def test_no_grad_suppresses_graph(self):
        x = t64([1.0], grad=True)
        with no_grad():
            y = x * x
        assert y._node is None and not y.requires_grad

    def test_no_grad_on_one_thread_leaves_recording_on_in_another(self):
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with no_grad():
                entered.set()
                release.wait(30)

        holder = threading.Thread(target=hold_no_grad)
        holder.start()
        try:
            assert entered.wait(30)
            x = t64([1.0], grad=True)
            y = x * x
        finally:
            release.set()
            holder.join(30)
        assert not holder.is_alive()
        assert y.requires_grad and y._node.vjp is not None


class TestGraphMemory:
    @staticmethod
    def _first_conv_output(monkeypatch, hold):
        """A tiny-a net's forward and backward, keeping its first conv's output
        array (``hold``) or a weak reference to it; returns what was kept,
        whether the array was alive after the forward, and the gradients."""
        net = build_network("tiny-a", 3, 0)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 1, 16, 16)).astype(np.float32))
        conv, kept = T.conv2d, []

        def first_conv(*args, **kwargs):
            out = conv(*args, **kwargs)
            if not kept:
                kept.append(out.data if hold else weakref.ref(out.data))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(T, "conv2d", first_conv)
            _, logits = net.forward(x)
        alive = hold or kept[0]() is not None
        backward(T.mean_all(logits), net.params().values())
        return kept[0], alive, {name: p.grad.tobytes() for name, p in net.params().items()}

    def test_interior_outputs_are_freed_and_backward_keeps_its_bytes(self, monkeypatch):
        """No vjp reads a conv's output, so the graph does not hold it."""
        held, _, held_grads = self._first_conv_output(monkeypatch, hold=True)
        _, alive, grads = self._first_conv_output(monkeypatch, hold=False)
        assert isinstance(held, np.ndarray) and not alive
        assert grads == held_grads

    def test_a_recorded_forward_keeps_each_conv_input_not_its_columns(self):
        """The graph of a tiny-a/tiny-b pair's recorded forward at batch 128
        holds each conv's input (or its copy with one zero appended), not the
        [B*L, C*kh*kw] columns, 9x larger for a 3x3 conv: tracemalloc reads
        21.0 MB live after the forward, against 48.3 MB when each recorded
        conv kept its columns."""
        nets = [build_network(arch, 6, i) for i, arch in enumerate(["tiny-a", "tiny-b"])]
        x = Tensor(np.random.default_rng(0).standard_normal((128, 1, 16, 16)).astype(np.float32))
        with no_grad():
            for net in nets:
                net.forward(x)  # the cached column indices are not the graph's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outs = [net.forward(x) for net in nets]
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(logits.requires_grad for _, logits in outs)
        assert live < 32e6

    @pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="libc has no mallopt")
    def test_a_training_step_faults_in_no_fresh_pages(self):
        """A dml tiny-a pair's step at batch 128, in a fresh interpreter, after
        two warm-up steps: the memory the last step freed is reused, not mapped
        and faulted in again (2,000-6,300 minor faults per step with glibc's
        default thresholds, 0-240 with the engine's)."""
        code = ("import resource\n"
                "import numpy as np\n"
                "from peerkd import data, tensor, trainer\n"
                "assert tensor._share_malloc_arena(), 'libc refused a malloc option'\n"
                "cfg = data.RunConfig(method='dml', archs=['tiny-a', 'tiny-a'], batch_size=128)\n"
                "plan = trainer.build_plan(cfg)\n"
                "rng = np.random.default_rng(0)\n"
                "x = rng.standard_normal((128, 1, 16, 16)).astype(np.float32)\n"
                "y = np.arange(128) % cfg.num_classes\n"
                "for _ in range(2):\n"
                "    trainer.train_step(plan, x, y)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for _ in range(5):\n"
                "    trainer.train_step(plan, x, y)\n"
                "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(T.__file__)),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 500


@contextlib.contextmanager
def frequent_switches():
    """A 1 us thread switch interval inside the block."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def each_item_once_under_frequent_switches():
    """500 items, each taken once."""
    taken = collections.Counter()
    with frequent_switches():
        results = T._run_each(lambda i: taken.update([i]) or -i, list(range(500)))
    assert results == [-i for i in range(500)]
    assert taken == collections.Counter(range(500))


def nested_calls_under_frequent_switches():
    """500 items, each making a call of 3 items of its own."""
    taken, lock = collections.Counter(), threading.Lock()

    def item(i):
        with lock:
            taken[i] += 1
        return T._run_each(lambda j: (i, j), list(range(3)))

    with frequent_switches():
        results = T._run_each(item, list(range(500)))
    assert results == [[(i, j) for j in range(3)] for i in range(500)]
    assert taken == collections.Counter(range(500))


class TestRunEach:
    """``_run_each``: one work queue that every thread shares, with more items
    than threads and with calls made inside items."""

    DELAYS = [0.05, 0.0, 0.04, 0.01, 0.0, 0.0, 0.03]  # item 5 fails before item 2

    def _item(self, finished, threads, fail=()):
        def run(i):
            threads[i] = threading.get_ident()
            try:
                time.sleep(self.DELAYS[i])
                if i in fail:
                    raise RuntimeError(f"item {i} failed")
                return i * i
            finally:
                finished.add(i)
        return run

    def test_results_come_back_in_item_order(self):
        finished, threads = set(), {}
        assert T._run_each(self._item(finished, threads), list(range(7))) == \
            [i * i for i in range(7)]
        assert finished == set(range(7))
        assert threads[0] == threading.get_ident()

    def test_every_item_finishes_and_the_first_failure_in_item_order_is_raised(self):
        finished, threads = set(), {}
        with pytest.raises(RuntimeError, match="item 2 failed"):
            T._run_each(self._item(finished, threads, fail=(2, 5)), list(range(7)))
        assert finished == set(range(7))

    def test_no_items(self):
        assert T._run_each(lambda item: item, []) == []

    def test_each_item_is_taken_once_under_frequent_thread_switches(self):
        each_item_once_under_frequent_switches()

    def test_nested_calls_under_frequent_thread_switches(self):
        nested_calls_under_frequent_switches()

    def test_three_pool_threads_under_frequent_thread_switches(self):
        """Both bodies above, 20 times each, in a fresh interpreter whose pool
        starts three threads (more than a 2-CPU host gets by default)."""
        code = ("from peerkd import tensor as T\n"
                "import test_tensor as t\n"
                "T._WORKERS = 3\n"
                "for _ in range(20):\n"
                "    t.each_item_once_under_frequent_switches()\n"
                "    t.nested_calls_under_frequent_switches()\n"
                "assert len(T._threads) == 3, T._threads\n")
        paths = [os.path.dirname(os.path.dirname(T.__file__)), os.path.dirname(__file__)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_no_thread_keeps_a_finished_calls_items(self):
        """The caller and a pool thread each run one item (neither returns
        before both have started); once the call has returned, no thread
        keeps either item alive."""
        class Item:
            pass

        both = threading.Barrier(2)
        items = [Item(), Item()]
        refs = [weakref.ref(item) for item in items]
        T._run_each(lambda item: both.wait(30), items)
        del items
        # the pool thread may still be returning from its item's last line
        deadline = time.monotonic() + 5
        while any(ref() is not None for ref in refs) and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert all(ref() is None for ref in refs)

    def test_a_call_nested_in_an_item_on_a_pool_thread_finishes(self):
        """Item 1 runs on a pool thread (the caller holds item 0 until it has
        started) and makes a call of its own there."""
        started, out = threading.Event(), {}

        def item(i):
            if i == 0:
                return started.wait(30)
            started.set()
            out["thread"] = threading.get_ident()
            return T._run_each(lambda j: j + 1, list(range(4)))

        def call():
            out["results"] = T._run_each(item, [0, 1])

        watchdog = threading.Thread(target=call, daemon=True)
        watchdog.start()
        watchdog.join(30)
        assert not watchdog.is_alive(), "the nested call hung"
        assert out["results"] == [True, [1, 2, 3, 4]]
        assert out["thread"] != watchdog.ident

    def test_a_caller_whose_items_are_taken_runs_another_calls_item(self):
        """Every pool thread holds an item of the outer call, and item 1's
        inner call waits for its own second item: only the outer caller,
        whose items are all taken, is free to run that."""
        occupied = threading.Barrier(T._WORKERS + 1)
        inner_done, ran_on = threading.Event(), {}

        def inner(j):
            if j == 0:
                return inner_done.wait(30)
            ran_on["inner item 1"] = threading.get_ident()
            inner_done.set()

        def outer(i):
            occupied.wait(30)
            if i == 1:
                return T._run_each(inner, [0, 1])
            return i == 0 or inner_done.wait(30)

        results = T._run_each(outer, list(range(T._WORKERS + 1)))
        assert ran_on["inner item 1"] == threading.get_ident()
        assert results[1] == [True, None] and all(results[2:])

    def test_every_thread_runs_the_newest_queued_item_first(self):
        """Pool threads hold items 1..W, and item 1's inner call queues its
        item b while outer item W+1 is still queued: the caller, once item 0
        is done, runs b before W+1."""
        workers = T._WORKERS
        held = threading.Barrier(workers + 1)
        b_queued, b_done, last_done = threading.Event(), threading.Event(), threading.Event()
        order, ran_on = [], {}

        def inner(j):
            if j == 0:
                b_queued.set()
                return b_done.wait(30)
            order.append("b")
            ran_on["b"] = threading.get_ident()
            b_done.set()

        def outer(i):
            if i == workers + 1:
                order.append(i)
                return last_done.set()
            held.wait(30)
            if i == 0:
                return b_queued.wait(30)
            if i == 1:
                return T._run_each(inner, [0, 1])
            return last_done.wait(30)

        results = T._run_each(outer, list(range(workers + 2)))
        assert order == ["b", workers + 1]
        assert ran_on["b"] == threading.get_ident()
        assert results[0] and results[1] == [True, None] and all(results[2:workers + 1])

    def test_a_base_exception_on_a_pool_thread_reaches_the_caller(self):
        class Stop(BaseException):
            pass

        started = threading.Event()

        def item(i):
            if i == 0:
                return started.wait(30)
            started.set()
            raise Stop

        with pytest.raises(Stop):
            T._run_each(item, [0, 1])
        # every pool thread still takes items: each holds one at the barrier
        alive = threading.Barrier(T._WORKERS + 1)
        assert len(T._run_each(lambda i: alive.wait(30), list(range(T._WORKERS + 1)))) == \
            T._WORKERS + 1


class TestDeterminism:
    def test_same_seed_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.standard_normal((4, 2, 8, 8)).astype(np.float32), requires_grad=True)
            k = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32), requires_grad=True)
            out = T.conv2d(x, k, zero_bias(3), stride=2, padding=1)
            loss = T.mean_all(T.sigmoid(out))
            backward(loss, [x, k])
            return loss.data.copy(), x.grad.copy(), k.grad.copy()

        a = run()
        b = run()
        for lhs, rhs in zip(a, b):
            np.testing.assert_array_equal(lhs, rhs)


class TestTopoOrder:
    def test_inputs_before_outputs_and_unique(self):
        x = t64([1.0, 2.0], grad=True)
        y = x * x
        z = y + x  # diamond: x used twice
        zy = z * y
        loss = T.mean_all(zy) * zy.data.size
        order = T.topo_order(loss)
        pos = {id(node): i for i, node in enumerate(order)}
        assert len(pos) == len(order)  # each op visited once
        assert order[-1] is loss._node
        assert any(parent is None for node in order for parent in node.parents)  # zy.data.size
        for node in order:
            for parent in node.parents:
                if parent is not None:  # a constant input is no graph node
                    assert pos[id(parent)] < pos[id(node)]


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_finite_ops_stay_finite(values, scale):
    x = Tensor(np.asarray(values, dtype=np.float32) * np.float32(scale))
    for out in (T.sigmoid(x), T.leaky_relu(x, 0.2), x * x, T.absolute(x)):
        assert np.isfinite(out.data).all()
