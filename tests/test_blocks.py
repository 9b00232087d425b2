"""Network / discriminator / transfer-layer construction contracts."""

import numpy as np
import pytest

from helpers import count_forwards
from peerkd import blocks
from peerkd.errors import ConfigError, ShapeError
from peerkd.tensor import Tensor, no_grad


def _param_bytes(net):
    return b"".join(p.data.tobytes() for _, p in sorted(net.params().items()))


class TestBuildNetwork:
    def test_tiny_a_shape_trace_28x28(self):
        # conv(pad same) keeps 28, pool halves to 14, conv keeps, pool halves to 7
        net = blocks.build_network("tiny-a", num_classes=10, seed=0)
        x = Tensor(np.zeros((2, 1, 28, 28), dtype=np.float32))
        feature, logit = net.forward(x)
        assert feature.shape == (2, 32, 7, 7)
        assert logit.shape == (2, 10)

    def test_same_seed_identical_bytes(self):
        a = blocks.build_network("tiny-a", 6, seed=9)
        b = blocks.build_network("tiny-a", 6, seed=9)
        assert _param_bytes(a) == _param_bytes(b)

    def test_different_seed_differs(self):
        a = blocks.build_network("tiny-a", 6, seed=1)
        b = blocks.build_network("tiny-a", 6, seed=2)
        assert _param_bytes(a) != _param_bytes(b)

    def test_custom_block_string(self):
        net = blocks.build_network("conv:8:3:1-bn-relu-pool:2", 4, seed=0)
        x = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        feature, logit = net.forward(x)
        assert feature.shape == (1, 8, 4, 4)
        assert logit.shape == (1, 4)

    def test_unparseable_spec(self):
        with pytest.raises(ConfigError):
            blocks.build_network("conv:8:3:1-dropout", 4, seed=0)
        with pytest.raises(ConfigError):
            blocks.build_network("conv:x:3:1", 4, seed=0)
        with pytest.raises(ConfigError):
            blocks.build_network("bn-relu", 4, seed=0)

    @pytest.mark.parametrize("spec", ["conv:0:3:1", "conv:8:0:1", "conv:8:3:0", "conv:8:3:1-pool:0"])
    def test_non_positive_sizes_refused(self, spec):
        with pytest.raises(ConfigError, match="must be positive"):
            blocks.build_network(spec, 4, seed=0)

    def test_num_classes_lower_bound(self):
        with pytest.raises(ConfigError):
            blocks.build_network("tiny-a", 1, seed=0)

    def test_parameter_counts_fixed_constants(self):
        # tiny-a, 1 input channel, 6 classes:
        #   conv 1->16: 144+16, bn 32, conv 16->64: 9216+64, bn 128,
        #   conv 64->32: 18432+32, bn 64, head 32->6: 192+6
        net_a = blocks.build_network("tiny-a", 6, seed=0)
        assert sum(p.data.size for p in net_a.params().values()) == 28326
        # tiny-b doubles every width:
        #   288+32, 64, 36864+128, 256, 73728+64, 128, 384+6
        net_b = blocks.build_network("tiny-b", 6, seed=0)
        assert sum(p.data.size for p in net_b.params().values()) == 111942

    def test_presets_differ_in_feature_width(self):
        a = blocks.build_network("tiny-a", 6, seed=0)
        b = blocks.build_network("tiny-b", 6, seed=0)
        assert a.feature_channels == 32
        assert b.feature_channels == 64


class TestForwardNetwork:
    def test_logit_shape_contract(self):
        net = blocks.build_network("tiny-a", 6, seed=3)
        _, logit = net.forward(Tensor(np.zeros((4, 1, 16, 16), dtype=np.float32)))
        assert logit.shape == (4, 6)

    def test_feature_matches_extract(self):
        net = blocks.build_network("tiny-a", 6, seed=3)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 1, 16, 16)).astype(np.float32))
        feature, _ = net.forward(x)
        alone = net.extract(x)
        np.testing.assert_array_equal(feature.data, alone.data)

    def test_eval_forward_deterministic(self):
        net = blocks.build_network("tiny-a", 6, seed=3)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 16, 16)).astype(np.float32))
        net.forward(x)  # one train pass to touch running stats
        net.eval()
        with no_grad():
            _, z1 = net.forward(x)
            _, z2 = net.forward(x)
        np.testing.assert_array_equal(z1.data, z2.data)

    def test_forward_count_increments(self):
        net = blocks.build_network("tiny-a", 6, seed=3)
        x = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        with count_forwards() as calls:
            assert calls[net] == 0
            net.forward(x)
            net.forward(x)
        assert calls[net] == 2

    def test_shape_mismatch(self):
        net = blocks.build_network("tiny-a", 6, seed=3)
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))


class TestDiscriminator:
    def test_range_contract(self):
        disc = blocks.build_discriminator(32, 32, seed=0)
        x = Tensor(np.random.default_rng(2).standard_normal((8, 32, 8, 8)).astype(np.float32))
        out = disc.forward(x)
        assert out.shape == (8,)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_zero_input_gives_half(self):
        disc = blocks.build_discriminator(16, 8, seed=1)
        out = disc.forward(Tensor(np.zeros((4, 16, 8, 8), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.full(4, 0.5, dtype=np.float32))

    def test_any_spatial_extent_at_least_4(self):
        disc = blocks.build_discriminator(8, 8, seed=2)
        for hw in (4, 5, 7, 12):
            out = disc.forward(Tensor(np.zeros((2, 8, hw, hw), dtype=np.float32)))
            assert out.shape == (2,)

    def test_small_spatial_rejected(self):
        disc = blocks.build_discriminator(8, 8, seed=2)
        with pytest.raises(ShapeError):
            disc.forward(Tensor(np.zeros((2, 8, 3, 3), dtype=np.float32)))

    def test_bad_build_args(self):
        with pytest.raises(ConfigError):
            blocks.build_discriminator(0, 8, seed=0)


class TestTransferLayer:
    def test_channel_conversion_shape(self):
        tr = blocks.build_transfer_layer(16, 32, seed=0)
        x = Tensor(np.random.default_rng(3).standard_normal((2, 16, 8, 8)).astype(np.float32))
        out = tr.forward(x)
        assert out.shape == (2, 32, 8, 8)

    def test_identity_when_widths_match(self):
        tr = blocks.build_transfer_layer(32, 32, seed=0)
        assert isinstance(tr, blocks.IdentityTransfer)
        x = Tensor(np.random.default_rng(4).standard_normal((2, 32, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(tr.forward(x).data, x.data)
        assert tr.params() == {}

    def test_output_nonnegative(self):
        tr = blocks.build_transfer_layer(8, 4, seed=5)
        x = Tensor(np.random.default_rng(5).standard_normal((3, 8, 6, 6)).astype(np.float32))
        assert (tr.forward(x).data >= 0).all()
