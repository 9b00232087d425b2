"""Finite-difference checks for every differentiable op and every loss.

Each case builds a small random instance in float64 and compares tape
gradients against central differences (h=1e-5, relative error <= 1e-4).
``GRAD_CASES`` is shared with the acceptance suite.
"""

import zlib

import numpy as np
import pytest

from helpers import fd_gradcheck
from peerkd import blocks, losses
from peerkd import tensor as T
from peerkd.tensor import Tensor


def case_rng(name):
    return np.random.default_rng(zlib.crc32(name.encode()))


def _away_from(x, threshold):
    """Push values away from a non-differentiable point at 0."""
    return np.where(np.abs(x) < threshold, x + np.sign(x + 0.5) * threshold, x)


def _readout(out, rng_weights):
    """Fixed random linear functional; keeps finite differences well conditioned."""
    weighted = out * Tensor(rng_weights)
    return T.mean_all(weighted) * weighted.data.size


def _case_linear(rng):
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((2, 4))
    b = rng.standard_normal(2)
    r = rng.standard_normal((3, 2))
    return lambda ts: _readout(T.linear(*ts), r), [x, w, b]


def _case_conv2d(rng):
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    x = rng.standard_normal((1, 2, 5, 5))
    k = rng.standard_normal((2, 2, 2, 2))
    b = rng.standard_normal(2)
    oh = (5 + 2 * padding - 2) // stride + 1

    def fn(ts):
        out = T.conv2d(ts[0], ts[1], ts[2], stride=stride, padding=padding)
        return _readout(out, r)

    r = rng.standard_normal((1, 2, oh, oh))
    return fn, [x, k, b]


def _case_batch_norm_train(rng):
    # linear readout: sigmoid on top of BN leaves near-cancelled input
    # gradients that drown in finite-difference truncation error
    x = rng.standard_normal((3, 2, 3, 3)) * 2 + 0.5
    g = rng.standard_normal(2) + 1.5
    b = rng.standard_normal(2)
    w = rng.standard_normal((3, 2, 3, 3))

    def fn(ts):
        rm = np.zeros(2)
        rv = np.ones(2)
        out = T.batch_norm(ts[0], ts[1], ts[2], rm, rv, training=True)
        weighted = out * Tensor(w)
        return T.mean_all(weighted) * weighted.data.size

    return fn, [x, g, b]


def _case_batch_norm_eval(rng):
    x = rng.standard_normal((2, 2, 3, 3))
    g = rng.standard_normal(2) + 1.5
    b = rng.standard_normal(2)
    rm = rng.standard_normal(2) * 0.3
    rv = rng.uniform(0.5, 2.0, 2)

    def fn(ts):
        return T.mean_all(T.sigmoid(T.batch_norm(ts[0], ts[1], ts[2], rm, rv, training=False)))

    return fn, [x, g, b]


def _case_leaky_relu(rng):
    x = _away_from(rng.standard_normal((4, 5)), 0.05)
    return lambda ts: T.mean_all(T.leaky_relu(ts[0], 0.2) * T.leaky_relu(ts[0], 0.2)), [x]


def _case_relu(rng):
    x = _away_from(rng.standard_normal((3, 6)), 0.05)
    return lambda ts: T.mean_all(T.relu(ts[0]) * T.relu(ts[0])), [x]


def _case_sigmoid(rng):
    x = rng.standard_normal((2, 7)) * 2
    return lambda ts: T.mean_all(T.sigmoid(ts[0]) * T.sigmoid(ts[0])), [x]


def _case_global_avg_pool(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    r = rng.standard_normal((2, 3))
    return lambda ts: _readout(T.global_avg_pool(ts[0]), r), [x]


def _case_avg_pool(rng):
    x = rng.standard_normal((2, 2, 4, 4))
    r = rng.standard_normal((2, 2, 2, 2))
    return lambda ts: _readout(T.avg_pool2d(ts[0], 2), r), [x]


def _case_log_softmax(rng):
    x = rng.standard_normal((3, 5)) * 3
    return lambda ts: T.mean_all(T.row_log_softmax(ts[0]) * T.row_log_softmax(ts[0])), [x]


def _case_take_rows(rng):
    x = rng.standard_normal((4, 6))
    idx = rng.integers(0, 6, size=4)
    return lambda ts: T.mean_all(T.take_rows(ts[0], idx) * T.take_rows(ts[0], idx)), [x]


def _case_reshape(rng):
    x = rng.standard_normal((2, 6))
    r = rng.standard_normal((3, 4))
    return lambda ts: _readout(T.reshape(ts[0], (3, 4)), r), [x]


def _case_elementwise(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    return lambda ts: T.mean_all((ts[0] + ts[1]) * (ts[0] - ts[1]) + T.neg(ts[0]) * 0.5), [a, b]


def _case_abs(rng):
    x = _away_from(rng.standard_normal((4, 4)), 0.05)
    return lambda ts: T.mean_all(T.absolute(ts[0])), [x]


def _case_cross_entropy(rng):
    z = rng.standard_normal((4, 5)) * 2
    y = rng.integers(0, 5, size=4)
    return lambda ts: losses.cross_entropy(y, ts[0]), [z]


def _case_kl_mimicry(rng):
    # the teacher side is a constant by contract, so only the student is perturbed
    zt = Tensor(rng.standard_normal((3, 5)) * 2)
    zs = rng.standard_normal((3, 5)) * 2
    t = float(rng.uniform(1.0, 4.0))
    return lambda ts: losses.kl_mimicry(zt, ts[0], t), [zs]


def _case_kl_probs(rng):
    p = losses.softmax_np(rng.standard_normal((3, 5)), 2.0)
    zs = rng.standard_normal((3, 5)) * 2
    t = float(rng.uniform(1.0, 4.0))
    return lambda ts: losses.kl_probs_mimicry(p, ts[0], t), [zs]


def _case_logit_loss(rng):
    # the per-peer logit loss as afd_logit_phase builds it
    own = rng.standard_normal((3, 4)) * 2
    peer = Tensor(rng.standard_normal((3, 4)) * 2)  # constant teacher
    y = rng.integers(0, 4, size=3)
    return lambda ts: losses.cross_entropy(y, ts[0]) + losses.kl_mimicry(peer, ts[0], 3.0), [own]


def _case_lsgan_d(rng):
    d_peer = rng.uniform(0.05, 0.95, 6)
    d_own = rng.uniform(0.05, 0.95, 6)
    return lambda ts: losses.lsgan_d_loss(ts[0], ts[1]), [d_peer, d_own]


def _case_lsgan_g(rng):
    d_own = rng.uniform(0.05, 0.95, 6)
    return lambda ts: losses.lsgan_g_loss(ts[0]), [d_own]


def _case_l1_alignment(rng):
    a = rng.standard_normal((2, 3, 2, 2))
    b = rng.standard_normal((2, 3, 2, 2))
    # peer is a constant target; keep the difference off the |.| kink
    b = np.where(np.abs(a - b) < 1e-3, b + 0.01, b)
    peer = Tensor(b)
    return lambda ts: losses.l1_alignment(ts[0], peer), [a]


def _float64(module):
    """``module`` with its parameters converted to float64, for the finite differences."""
    for p in module.params().values():
        p.data = p.data.astype(np.float64)
    return module


def _case_discriminator(rng):
    disc = _float64(blocks.build_discriminator(2, 4, seed=int(rng.integers(0, 10_000))))
    x = rng.standard_normal((2, 2, 4, 4))

    def fn(ts):
        scores = disc.forward(ts[0])
        return T.mean_all(scores) * scores.data.size

    return fn, [x]


def _case_transfer_layer(rng):
    tr = _float64(blocks.build_transfer_layer(2, 3, seed=int(rng.integers(0, 10_000))))
    x = rng.standard_normal((2, 2, 3, 3)) + 0.5

    def fn(ts):
        return T.mean_all(T.sigmoid(tr.forward(ts[0])))

    return fn, [x]


GRAD_CASES = [
    ("linear", _case_linear),
    ("conv2d", _case_conv2d),
    ("batch_norm_train", _case_batch_norm_train),
    ("batch_norm_eval", _case_batch_norm_eval),
    ("leaky_relu", _case_leaky_relu),
    ("relu", _case_relu),
    ("sigmoid", _case_sigmoid),
    ("global_avg_pool", _case_global_avg_pool),
    ("avg_pool2d", _case_avg_pool),
    ("row_log_softmax", _case_log_softmax),
    ("take_rows", _case_take_rows),
    ("reshape", _case_reshape),
    ("elementwise", _case_elementwise),
    ("abs", _case_abs),
    ("cross_entropy", _case_cross_entropy),
    ("kl_mimicry", _case_kl_mimicry),
    ("kl_probs_mimicry", _case_kl_probs),
    ("logit_loss", _case_logit_loss),
    ("lsgan_d_loss", _case_lsgan_d),
    ("lsgan_g_loss", _case_lsgan_g),
    ("l1_alignment", _case_l1_alignment),
    ("discriminator", _case_discriminator),
    ("transfer_layer", _case_transfer_layer),
]

INSTANCES_PER_CASE = 10


def run_gradient_suite(instances=INSTANCES_PER_CASE):
    """Worst relative error per case name, asserting each check passes."""
    worst = {}
    for name, make in GRAD_CASES:
        rng = case_rng(name)
        errs = [fd_gradcheck(*make(rng)) for _ in range(instances)]
        worst[name] = max(errs)
    return worst


@pytest.mark.parametrize("name,make", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
def test_gradients_match_finite_differences(name, make):
    rng = case_rng(name)
    for _ in range(INSTANCES_PER_CASE):
        fd_gradcheck(*make(rng))
