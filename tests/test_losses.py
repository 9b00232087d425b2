"""Loss values, identities, and gradient-flow isolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rel_err
from peerkd import blocks, losses
from peerkd import tensor as T
from peerkd.errors import ConfigError, ContractError, DataError, NonFiniteError, ShapeError
from peerkd.tensor import Tensor, backward


def logits(arr):
    return Tensor(np.asarray(arr, dtype=np.float32))


def softened(z, t):
    """softmax(z/T) per row through the graph-free log softmax that the KL losses use."""
    return np.exp(T.log_softmax_np(z.data / np.float32(t)))


class TestSoftenedSoftmax:
    def test_symmetry(self):
        for t in (0.5, 1.0, 3.0):
            np.testing.assert_allclose(softened(logits([[0.0, 0.0]]), t), [[0.5, 0.5]])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 7.0):
            np.testing.assert_allclose(softened(logits([[c, c, c]]), 2.0), [[1 / 3] * 3],
                                       rtol=1e-6)

    def test_two_logit_value(self):
        np.testing.assert_allclose(softened(logits([[2.0, 0.0]]), 2.0),
                                   [[0.73106, 0.26894]], atol=1e-4)

    def test_bad_temperature(self):
        with pytest.raises(ConfigError):
            losses.kl_mimicry(logits([[1.0, 2.0]]), logits([[2.0, 1.0]]), 0.0)

    @given(st.lists(st.lists(st.floats(-20, 20), min_size=3, max_size=3),
                    min_size=1, max_size=5),
           st.sampled_from([0.5, 1.0, 3.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_row_stochastic(self, rows, t):
        p = softened(logits(rows), t)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-5)
        assert (p >= 0).all() and (p <= 1).all()

    def test_monotone_smoothing(self):
        z = logits([[3.0, 1.0, -2.0, 0.5]])
        peaks = [softened(z, t).max() for t in (1.0, 3.0, 10.0)]
        assert peaks[0] > peaks[1] > peaks[2]


class TestCrossEntropy:
    def test_peaked_limit(self):
        z = logits([[50.0, 0.0, 0.0]])
        loss = losses.cross_entropy(np.array([0]), z)
        assert loss.item() < 1e-6

    def test_uniform_equals_log_c(self):
        for c in (2, 5, 10):
            z = logits(np.zeros((3, c)))
            loss = losses.cross_entropy(np.array([0, 1, min(2, c - 1)]), z)
            np.testing.assert_allclose(loss.item(), np.log(c), atol=1e-6)

    def test_against_per_sample_loop(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 4)).astype(np.float32)
        y = rng.integers(0, 4, 6)
        loss = losses.cross_entropy(y, Tensor(z)).item()
        total = 0.0
        for i in range(6):
            e = np.exp(z[i].astype(np.float64) - z[i].max())
            total += -np.log(e[y[i]] / e.sum())
        assert rel_err(loss, total / 6) < 1e-6

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            losses.cross_entropy(np.array([3]), logits([[0.0, 1.0]]))
        with pytest.raises(DataError):
            losses.cross_entropy(np.array([-1]), logits([[0.0, 1.0]]))


class TestKLMimicry:
    def test_identical_logits_zero(self):
        z = logits(np.random.default_rng(1).standard_normal((4, 5)))
        assert abs(losses.kl_mimicry(z, z, 3.0).item()) <= 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = logits(rng.standard_normal((3, 6)) * 3)
            b = logits(rng.standard_normal((3, 6)) * 3)
            assert losses.kl_mimicry(a, b, 3.0).item() >= 0.0

    def test_t_squared_scaling_exact(self):
        # T^2 * mean_b KL(softmax(zt/T) || softmax(zs/T)) and its student
        # gradient T^2 * (ps - pt) / (B T), in float64
        rng = np.random.default_rng(3)
        zt = rng.standard_normal((4, 5))
        zs = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        for t in (1.0, 3.0, 5.0):
            zs.grad = None
            loss = losses.kl_mimicry(Tensor(zt), zs, t)
            backward(loss, [zs])
            pt, ps = losses.softmax_np(zt, t), losses.softmax_np(zs.data, t)
            kl = (pt * (np.log(pt) - np.log(ps))).sum(axis=1).mean()
            assert rel_err(loss.item(), t * t * kl) < 1e-12
            assert rel_err(zs.grad, t * t * (ps - pt) / (4 * t)) < 1e-12

    def test_zero_iff_matching_distributions(self):
        # same softened distribution from different logits (uniform shift)
        a = logits([[1.0, 2.0, 3.0]])
        b = logits([[2.0, 3.0, 4.0]])
        pa = softened(a, 3.0)
        pb = softened(b, 3.0)
        assert np.abs(pa - pb).max() < 1e-6
        assert abs(losses.kl_mimicry(a, b, 3.0).item()) < 1e-5
        c = logits([[2.0, 1.0, 3.0]])
        assert losses.kl_mimicry(a, c, 3.0).item() > 1e-3

    def test_teacher_side_gets_no_gradient(self):
        zt = Tensor(np.random.default_rng(4).standard_normal((3, 4)).astype(np.float32),
                    requires_grad=True)
        zs = Tensor(np.random.default_rng(5).standard_normal((3, 4)).astype(np.float32),
                    requires_grad=True)
        backward(losses.kl_mimicry(zt, zs, 3.0), [zt, zs])
        assert zt.grad is None
        assert zs.grad is not None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.kl_mimicry(logits([[1.0, 2.0]]), logits([[1.0, 2.0, 3.0]]), 3.0)


def logit_loss(labels, own, peer, t):
    """Cross-entropy plus T^2-scaled mimicry toward the peer, the per-peer sum
    afd_logit_phase builds."""
    return losses.cross_entropy(labels, own) + losses.kl_mimicry(peer, own, t)


class TestLogitLoss:
    def test_peer_equals_own_reduces_to_ce(self):
        z = logits(np.random.default_rng(6).standard_normal((4, 5)))
        y = np.array([0, 1, 2, 3])
        full = logit_loss(y, z, z, 3.0).item()
        ce = losses.cross_entropy(y, z).item()
        np.testing.assert_allclose(full, ce, atol=1e-7)

    def test_both_terms_vanish(self):
        z = logits([[60.0, 0.0], [0.0, 60.0]])
        loss = logit_loss(np.array([0, 1]), z, z, 3.0)
        assert loss.item() < 1e-6

    def test_recomposition(self):
        # one add node: value and gradient are the exact sums of the two terms'
        rng = np.random.default_rng(7)
        own = Tensor(rng.standard_normal((5, 4)).astype(np.float32), requires_grad=True)
        peer = logits(rng.standard_normal((5, 4)))
        y = rng.integers(0, 4, 5)
        parts = []
        for loss in (losses.cross_entropy(y, own), losses.kl_mimicry(peer, own, 3.0)):
            own.grad = None
            backward(loss, [own])
            parts.append((loss.data, own.grad))
        own.grad = None
        whole = logit_loss(y, own, peer, 3.0)
        backward(whole, [own])
        assert whole.data == parts[0][0] + parts[1][0]
        np.testing.assert_array_equal(own.grad, parts[0][1] + parts[1][1])


class TestLSGAN:
    def test_perfect_discrimination_zero(self):
        d = losses.lsgan_d_loss(Tensor(np.ones(4, dtype=np.float32)),
                                Tensor(np.zeros(4, dtype=np.float32)))
        assert d.item() == 0.0

    def test_indifference_half(self):
        half = Tensor(np.full(6, 0.5, dtype=np.float32))
        np.testing.assert_allclose(losses.lsgan_d_loss(half, half).item(), 0.5, atol=1e-8)

    def test_d_loss_against_loop(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0, 1, 9).astype(np.float32)
        o = rng.uniform(0, 1, 9).astype(np.float32)
        got = losses.lsgan_d_loss(Tensor(p), Tensor(o)).item()
        expect = np.mean([(1 - float(pi)) ** 2 + float(oi) ** 2 for pi, oi in zip(p, o)])
        assert rel_err(got, expect) < 1e-6

    def test_g_loss_values(self):
        assert losses.lsgan_g_loss(Tensor(np.ones(3, dtype=np.float32))).item() == 0.0
        assert losses.lsgan_g_loss(Tensor(np.zeros(3, dtype=np.float32))).item() == 1.0
        np.testing.assert_allclose(
            losses.lsgan_g_loss(Tensor(np.full(5, 0.5, dtype=np.float32))).item(), 0.25,
            atol=1e-8)

    def test_out_of_range_rejected(self):
        bad = Tensor(np.array([1.2], dtype=np.float32))
        ok = Tensor(np.array([0.5], dtype=np.float32))
        with pytest.raises(ContractError):
            losses.lsgan_d_loss(bad, ok)
        with pytest.raises(ContractError):
            losses.lsgan_g_loss(Tensor(np.array([-0.1], dtype=np.float32)))
        # NaN scores are a diverged discriminator, not a caller's range error
        nan = Tensor(np.array([np.nan], dtype=np.float32))
        with pytest.raises(NonFiniteError, match="d_peer is non-finite"):
            losses.lsgan_d_loss(nan, ok)
        with pytest.raises(NonFiniteError, match="d_own is non-finite"):
            losses.lsgan_d_loss(ok, nan)
        with pytest.raises(NonFiniteError, match="d_own is non-finite"):
            losses.lsgan_g_loss(nan)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, scores):
        s = Tensor(np.asarray(scores, dtype=np.float32))
        assert 0.0 <= losses.lsgan_d_loss(s, s).item() <= 2.0
        assert 0.0 <= losses.lsgan_g_loss(s).item() <= 1.0


class TestL1Alignment:
    def test_identity_zero(self):
        f = Tensor(np.random.default_rng(9).standard_normal((2, 3, 4, 4)).astype(np.float32))
        assert losses.l1_alignment(f, f).item() == 0.0

    def test_constant_gap(self):
        a = Tensor(np.ones((2, 2, 2, 2), dtype=np.float32))
        b = Tensor(np.full((2, 2, 2, 2), 3.0, dtype=np.float32))
        np.testing.assert_allclose(losses.l1_alignment(a, b).item(), 2.0)

    def test_against_loop(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        got = losses.l1_alignment(Tensor(a), Tensor(b)).item()
        assert rel_err(got, np.abs(a.astype(np.float64) - b).mean()) < 1e-6

    def test_peer_side_detached(self):
        a = Tensor(np.random.default_rng(11).standard_normal((1, 2, 2, 2)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.random.default_rng(12).standard_normal((1, 2, 2, 2)).astype(np.float32),
                   requires_grad=True)
        backward(losses.l1_alignment(a, b), [a, b])
        assert a.grad is not None
        assert b.grad is None


class TestGradientFlowIsolation:
    """The adversarial losses must not leak gradients across module roles."""

    def _setup(self):
        rng = np.random.default_rng(13)
        net = blocks.build_network("tiny-a", 4, seed=20)
        disc = blocks.build_discriminator(net.feature_channels, 8, seed=21)
        x = Tensor(rng.standard_normal((2, 1, 16, 16)).astype(np.float32))
        peer = Tensor(rng.standard_normal((2, 32, 4, 4)).astype(np.float32))
        return net, disc, x, peer

    def test_d_loss_reaches_only_discriminator(self):
        net, disc, x, peer = self._setup()
        feature, _ = net.forward(x)
        d_peer = disc.forward(peer.detach())
        d_own = disc.forward(feature.detach())
        everything = [*net.params().values(), *disc.params().values()]
        backward(losses.lsgan_d_loss(d_peer, d_own), everything)
        assert all(p.grad is None for p in net.extractor_params().values())
        assert any(p.grad is not None for p in disc.params().values())

    def test_g_loss_reaches_only_generator(self):
        net, disc, x, _ = self._setup()
        feature, _ = net.forward(x)
        backward(losses.lsgan_g_loss(disc.forward(feature)), net.extractor_params().values())
        assert all(p.grad is None for p in disc.params().values())
        assert all(p.grad is not None for p in net.extractor_params().values())

    def test_g_loss_keeps_discriminator_grads_from_d_loss(self):
        # phase B's order: D's backward writes D's grads, then the fooling
        # backward runs through the same live D and must leave them as they are
        net, disc, x, peer = self._setup()
        feature, _ = net.forward(x)
        d_loss = losses.lsgan_d_loss(disc.forward(peer), disc.forward(feature.detach()))
        g_loss = losses.lsgan_g_loss(disc.forward(feature))
        backward(d_loss, disc.params().values())
        d_grads = {name: p.grad for name, p in disc.params().items()}
        backward(g_loss, net.extractor_params().values())
        assert all(p.grad is d_grads[name] for name, p in disc.params().items())
        assert all(p.grad is not None for p in net.extractor_params().values())
