"""Feature similarity, Grad-CAM, and PGM export."""

import re

import numpy as np
import pytest

from helpers import fail_binary_writes
from peerkd import analysis, blocks, data, tensor
from peerkd.errors import ConfigError, ContractError, DataError, ShapeError, UsageError
from peerkd.tensor import Tensor, no_grad


class _FixedFeatureNet:
    """Analysis stub: returns a fixed per-sample feature map."""

    def __init__(self, features):
        self.features = np.asarray(features, dtype=np.float32)
        self.training = False

    def eval(self):
        self.training = False
        return self

    def extract(self, x):
        b = x.shape[0]
        return Tensor(self.features[:b])


class _FailingFeatureNet(_FixedFeatureNet):
    """Analysis stub whose extract raises on its second call."""

    calls = 0

    def extract(self, x):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("second batch")
        return super().extract(x)


def _dataset(n=4, hw=4):
    return data.Dataset(np.zeros((n, 1, hw, hw), dtype=np.float32),
                        np.zeros(n, dtype=np.int64), "test")


class TestFeatureSimilarity:
    def test_identity(self):
        feats = np.random.default_rng(0).standard_normal((4, 8, 3, 3)).astype(np.float32)
        net = _FixedFeatureNet(feats)
        rep = analysis.feature_similarity(net, net, _dataset())
        assert rep.l1 == 0.0 and rep.l2 == 0.0
        assert abs(rep.cosine - 1.0) < 1e-12
        assert rep.count == 4

    def test_disjoint_support_orthogonal(self):
        a = np.zeros((4, 8, 2, 2), dtype=np.float32)
        b = np.zeros((4, 8, 2, 2), dtype=np.float32)
        a[:, :4] = 1.0
        b[:, 4:] = 1.0
        rep = analysis.feature_similarity(_FixedFeatureNet(a), _FixedFeatureNet(b), _dataset())
        assert rep.cosine == 0.0

    def test_against_flat_vector_oracle(self):
        rng = np.random.default_rng(1)
        fa = rng.standard_normal((5, 6, 2, 2)).astype(np.float32)
        fb = rng.standard_normal((5, 6, 2, 2)).astype(np.float32)
        rep = analysis.feature_similarity(_FixedFeatureNet(fa), _FixedFeatureNet(fb),
                                          _dataset(5))
        l1s, l2s, coss = [], [], []
        for i in range(5):
            va = fa[i].reshape(-1).astype(np.float64)
            vb = fb[i].reshape(-1).astype(np.float64)
            l1s.append(np.abs(va - vb).mean())
            l2s.append(np.sqrt(((va - vb) ** 2).mean()))
            coss.append(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
        assert abs(rep.l1 - np.mean(l1s)) < 1e-6
        assert abs(rep.l2 - np.mean(l2s)) < 1e-6
        assert abs(rep.cosine - np.mean(coss)) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        na = _FixedFeatureNet(rng.standard_normal((4, 4, 2, 2)).astype(np.float32))
        nb = _FixedFeatureNet(rng.standard_normal((4, 4, 2, 2)).astype(np.float32))
        r1 = analysis.feature_similarity(na, nb, _dataset())
        r2 = analysis.feature_similarity(nb, na, _dataset())
        assert (r1.l1, r1.l2, r1.cosine) == (r2.l1, r2.l2, r2.cosine)

    def test_cosine_scale_invariance_exact(self):
        rng = np.random.default_rng(3)
        fa = rng.standard_normal((3, 4, 2, 2)).astype(np.float32)
        fb = rng.standard_normal((3, 4, 2, 2)).astype(np.float32)
        base = analysis.feature_similarity(_FixedFeatureNet(fa), _FixedFeatureNet(fb),
                                           _dataset(3))
        for c in (2.0, 4.0, 0.25):  # exact scaling for power-of-two factors
            scaled = analysis.feature_similarity(_FixedFeatureNet(fa),
                                                 _FixedFeatureNet(np.float32(c) * fb),
                                                 _dataset(3))
            assert scaled.cosine == base.cosine
            assert scaled.l1 != base.l1

    def test_channel_mismatch_uses_pooled_vectors(self):
        rng = np.random.default_rng(4)
        fa = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        fb = rng.standard_normal((2, 6, 3, 3)).astype(np.float32)
        rep = analysis.feature_similarity(_FixedFeatureNet(fa), _FixedFeatureNet(fb),
                                          _dataset(2))
        va = fa.mean(axis=(2, 3))[:, :4].astype(np.float64)
        vb = fb.mean(axis=(2, 3))[:, :4].astype(np.float64)
        expect = np.abs(va - vb).mean(axis=1).mean()
        assert abs(rep.l1 - expect) < 1e-6

    def test_spatial_mismatch_rejected(self):
        fa = np.zeros((2, 4, 3, 3), dtype=np.float32)
        fb = np.zeros((2, 4, 5, 5), dtype=np.float32)
        with pytest.raises(UsageError):
            analysis.feature_similarity(_FixedFeatureNet(fa), _FixedFeatureNet(fb),
                                        _dataset(2))

    def test_empty_dataset(self):
        net = _FixedFeatureNet(np.zeros((1, 2, 2, 2), dtype=np.float32))
        with pytest.raises(DataError):
            analysis.feature_similarity(net, net, _dataset(0))

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_refuses_a_batch_size_below_one(self, batch_size):
        net = _FixedFeatureNet(np.zeros((4, 2, 2, 2), dtype=np.float32))
        with pytest.raises(ConfigError, match=f"^batch_size must be >= 1, got {batch_size}$"):
            analysis.feature_similarity(net, net, _dataset(), batch_size)

    def test_each_net_extracts_without_recording_on_any_thread(self):
        seen = []

        class Probe(_FixedFeatureNet):
            def extract(self, x):
                seen.append(tensor._grad_mode.enabled)
                return super().extract(x)

        feats = np.ones((4, 2, 2, 2), dtype=np.float32)
        analysis.feature_similarity(Probe(feats), Probe(feats), _dataset(), batch_size=1)
        assert seen == [False] * 8

    def test_same_report_as_a_net_by_net_loop(self, monkeypatch):
        """Real tiny-a and tiny-b nets over several batches and a short last
        one: running them concurrently leaves every sum's bytes."""
        nets = [blocks.build_network(arch, 3, seed)
                for seed, arch in enumerate(("tiny-a", "tiny-b"))]
        ds = data.synth_blobs(3, 7, 16, 0.3, 5)
        concurrent = analysis.feature_similarity(*nets, ds, 8)
        monkeypatch.setattr(analysis, "_run_each", lambda fn, items: [fn(item) for item in items])
        assert analysis.feature_similarity(*nets, ds, 8) == concurrent

    def test_modes_restored_when_extract_raises(self):
        feats = np.zeros((4, 2, 2, 2), dtype=np.float32)
        steady, failing = _FixedFeatureNet(feats), _FailingFeatureNet(feats)
        steady.training = failing.training = True
        with pytest.raises(RuntimeError, match="second batch"):
            analysis.feature_similarity(steady, failing, _dataset(4), batch_size=2)
        assert steady.training and failing.training


def _passthrough_net(num_classes=2, channels=1, head_rows=None):
    """1x1-conv network whose feature map equals its input."""
    spec = f"conv:{channels}:1:1"
    net = blocks.build_network(spec, num_classes, seed=0)
    conv = net.extractor[0]
    w = np.zeros((channels, 1, 1, 1), dtype=np.float32)
    for c in range(channels):
        w[c, 0, 0, 0] = 1.0
    conv.weight.data = w
    conv.bias.data = np.zeros(channels, dtype=np.float32)
    if head_rows is not None:
        net.head.weight.data = np.asarray(head_rows, dtype=np.float32)
        net.head.bias.data = np.zeros(num_classes, dtype=np.float32)
    return net


class TestGradCam:
    def test_single_channel_uniform_gradient(self):
        net = _passthrough_net(head_rows=[[2.0], [-1.0]])
        img = np.random.default_rng(5).standard_normal((1, 4, 4)).astype(np.float32)
        cam = analysis.grad_cam(net, img, target_class=0)[0]
        expect = np.maximum(img[0], 0.0)
        expect = expect / expect.max()
        np.testing.assert_allclose(cam, expect, atol=1e-6)

    def test_zero_head_row_gives_zero_map(self):
        net = _passthrough_net(head_rows=[[0.0], [1.0]])
        img = np.abs(np.random.default_rng(6).standard_normal((1, 4, 4))).astype(np.float32)
        cam = analysis.grad_cam(net, img, target_class=0)[0]
        np.testing.assert_array_equal(cam, np.zeros((4, 4), dtype=np.float32))

    def test_two_channel_hand_fixture(self):
        # feature = [a*x, b*x] via a 1->2 channel 1x1 conv
        net = blocks.build_network("conv:2:1:1", 2, seed=0)
        conv = net.extractor[0]
        conv.weight.data = np.asarray([[[[3.0]]], [[[-1.0]]]], dtype=np.float32)
        conv.bias.data = np.zeros(2, dtype=np.float32)
        net.head.weight.data = np.asarray([[1.0, 2.0], [0.0, 0.0]], dtype=np.float32)
        net.head.bias.data = np.zeros(2, dtype=np.float32)
        img = np.asarray([[[1.0, -2.0], [0.5, 4.0]]], dtype=np.float32)
        cam = analysis.grad_cam(net, img, target_class=0)[0]
        feat = np.stack([3.0 * img[0], -1.0 * img[0]])
        weights = np.asarray([1.0, 2.0]) / 4.0  # spatial mean of dz/dfeature
        expect = np.maximum(weights[0] * feat[0] + weights[1] * feat[1], 0.0)
        expect = expect / expect.max()
        np.testing.assert_allclose(cam, expect, atol=1e-6)

    def test_range_and_peak(self):
        net = blocks.build_network("tiny-a", 4, seed=1)
        x = Tensor(np.random.default_rng(7).standard_normal((2, 1, 16, 16)).astype(np.float32))
        net.forward(x)  # populate BN running stats
        img = np.random.default_rng(8).standard_normal((1, 16, 16)).astype(np.float32)
        cam = analysis.grad_cam(net, img, target_class=1)[0]
        assert cam.min() >= 0.0 and cam.max() <= 1.0
        assert cam.max() == 1.0 or not cam.any()

    def test_default_target_is_the_prediction(self):
        net = blocks.build_network("tiny-a", 4, seed=1)
        net.forward(Tensor(np.random.default_rng(7).standard_normal((2, 1, 16, 16))
                           .astype(np.float32)))  # populate BN running stats
        img = np.random.default_rng(9).standard_normal((1, 16, 16)).astype(np.float32)
        with blocks.eval_mode(net), no_grad():
            predicted = int(net.forward(Tensor(img[None]))[1].data.argmax())
        cam, target = analysis.grad_cam(net, img)
        explicit, explicit_target = analysis.grad_cam(net, img, predicted)
        assert target == explicit_target == predicted
        assert cam.tobytes() == explicit.tobytes()
        assert net.training

    def test_bad_target_class(self):
        net = _passthrough_net()
        with pytest.raises(DataError):
            analysis.grad_cam(net, np.zeros((1, 4, 4), dtype=np.float32), target_class=2)

    @pytest.mark.parametrize("shape", [(1, 1, 4, 4), (4, 4)])
    def test_refuses_anything_but_one_chw_image(self, shape):
        net = _passthrough_net(head_rows=[[2.0], [-1.0]])
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            analysis.grad_cam(net, np.ones(shape, dtype=np.float32), 0)
        assert net.training

    def test_mode_restored_when_forward_raises(self):
        net = _passthrough_net()
        with pytest.raises(ShapeError):  # 3 input channels into a 1-channel conv
            analysis.grad_cam(net, np.zeros((3, 4, 4), dtype=np.float32), target_class=0)
        assert net.training

    def test_does_not_leave_param_grads(self):
        net = _passthrough_net(head_rows=[[2.0], [-1.0]])
        analysis.grad_cam(net, np.ones((1, 4, 4), dtype=np.float32), 0)
        assert all(p.grad is None for p in net.params().values())

    def test_keeps_grads_it_did_not_write(self):
        net = _passthrough_net(head_rows=[[2.0], [-1.0]])
        pending = np.full(net.head.weight.shape, 0.5, dtype=np.float32)
        net.head.weight.grad = pending
        analysis.grad_cam(net, np.ones((1, 4, 4), dtype=np.float32), 0)
        assert net.head.weight.grad is pending
        np.testing.assert_array_equal(pending, np.full(net.head.weight.shape, 0.5))
        assert net.head.bias.grad is None


def _read_pgm(path):
    raw = path.read_bytes()
    magic, dims, maxval, rest = raw.split(b"\n", 3)
    w, h = map(int, dims.split())
    assert magic == b"P5" and maxval == b"255"
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


class TestExportPgm:
    def test_quantization_example_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        analysis.export_pgm(np.asarray([[0.0, 1.0], [0.5, 0.25]]), path)
        assert _read_pgm(path).tolist() == [[0, 255], [128, 64]]

    def test_zero_map_zero_payload(self, tmp_path):
        path = tmp_path / "z.pgm"
        analysis.export_pgm(np.zeros((3, 5)), path)
        assert not _read_pgm(path).any()

    def test_round_trip_within_quantum(self, tmp_path):
        rng = np.random.default_rng(9)
        heat = rng.uniform(0, 1, (6, 7))
        path = tmp_path / "r.pgm"
        analysis.export_pgm(heat, path)
        back = _read_pgm(path).astype(np.float64) / 255.0
        assert np.abs(back - heat).max() <= 1.0 / 255.0

    def test_range_enforced(self, tmp_path):
        with pytest.raises(ContractError):
            analysis.export_pgm(np.asarray([[1.5]]), tmp_path / "x.pgm")
        with pytest.raises(ContractError):
            analysis.export_pgm(np.asarray([[0.5, np.nan]]), tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.pgm"
        analysis.export_pgm(np.zeros((3, 5)), path)
        before = path.read_bytes()
        fail_binary_writes(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            analysis.export_pgm(np.ones((3, 5)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.pgm"]
