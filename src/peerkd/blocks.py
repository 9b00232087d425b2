"""Composable network blocks: feature extractors, heads, discriminators,
transfer layers.

Architectures come from a small block-spec language, tokens separated by
``-``:

    conv:C:K:S   convolution to C channels, K x K kernel, stride S, padding K//2
    bn           batch normalization
    relu         ReLU
    pool:N       N x N average pooling (stride N)

``tiny-a`` and ``tiny-b`` are named presets; tiny-b is twice as wide, so a
mixed pair exercises the channel-conversion path.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

PRESETS = {
    "tiny-a": "conv:16:3:1-bn-relu-pool:2-conv:64:3:1-bn-relu-pool:2-conv:32:3:1-bn-relu",
    "tiny-b": "conv:32:3:1-bn-relu-pool:2-conv:128:3:1-bn-relu-pool:2-conv:64:3:1-bn-relu",
}

LEAKY_SLOPE = 0.2


class Module:
    """Train/eval flag plus named parameters and buffers, in the shape of
    ``torch.nn.Module``.

    A module lists the attributes holding its own trainable tensors in
    ``param_names`` and its own running-stat arrays in ``buffer_names``;
    ``children`` yields its submodules by name. ``params()`` and
    ``buffers()`` give the module's own entries first, then each child's
    under ``<child name>.``. Layers take the mode as a call argument, so
    ``eval`` only flips this module's flag.
    """

    training = True
    param_names = ()
    buffer_names = ()

    def eval(self):
        self.training = False
        return self

    def children(self):
        return ()

    def _named(self, names_attr, prefix, out):
        for name in getattr(self, names_attr):
            out[prefix + name] = getattr(self, name)
        for child_name, child in self.children():
            child._named(names_attr, f"{prefix}{child_name}.", out)
        return out

    def params(self):
        return self._named("param_names", "", {})

    def buffers(self):
        return self._named("buffer_names", "", {})


@contextlib.contextmanager
def eval_mode(*modules):
    """Put ``modules`` in eval mode inside the block and restore each one's
    mode on the way out, also when the block raises."""
    saved = [m.training for m in modules]
    for m in modules:
        m.eval()
    try:
        yield
    finally:
        for m, mode in zip(modules, saved):
            m.training = mode


def _he_init(rng, shape):
    """He-normal weight of ``shape`` (fan-in over all but the first axis) and a zero bias."""
    std = np.sqrt(2.0 / math.prod(shape[1:]))
    w = (rng.standard_normal(shape) * std).astype(np.float32)
    return Tensor(w, requires_grad=True), Tensor(np.zeros(shape[0], np.float32), requires_grad=True)


class _Conv(Module):
    param_names = ("weight", "bias")

    def __init__(self, rng, c_in, c_out, k, stride):
        self.weight, self.bias = _he_init(rng, (c_out, c_in, k, k))
        self.stride = stride
        self.padding = k // 2

    def __call__(self, x, training):
        return T.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class _Linear(Module):
    param_names = ("weight", "bias")

    def __init__(self, rng, f_in, f_out):
        self.weight, self.bias = _he_init(rng, (f_out, f_in))

    def __call__(self, x, training):
        return T.linear(x, self.weight, self.bias)


class _BatchNorm(Module):
    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x, training):
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                            training)


class _ReLU(Module):
    def __call__(self, x, training):
        return T.relu(x)


class _Pool(Module):
    def __init__(self, k):
        self.k = k

    def __call__(self, x, training):
        return T.avg_pool2d(x, self.k)


def _build_extractor(spec: str, rng):
    """The float32 layers of a block spec over single-channel input, and the
    channel count after the last one."""
    layers = []
    channels = 1
    for token in spec.split("-"):
        parts = token.split(":")
        kind = parts[0]
        if kind not in ("conv", "bn", "relu", "pool"):
            raise ConfigError(f"unknown block token {token!r}")
        try:
            if kind == "conv":
                _, c, k, s = parts
                sizes = (int(c), int(k), int(s))
            else:
                sizes = (int(parts[1]),) if kind == "pool" else ()
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"malformed block token {token!r}") from exc
        if min(sizes, default=1) < 1:
            raise ConfigError(f"block token {token!r}: sizes must be positive")
        if kind == "conv":
            layers.append(_Conv(rng, channels, *sizes))
            channels = sizes[0]
        elif kind == "bn":
            layers.append(_BatchNorm(channels))
        elif kind == "relu":
            layers.append(_ReLU())
        else:
            layers.append(_Pool(sizes[0]))
    if not any(isinstance(layer, _Conv) for layer in layers):
        raise ConfigError("block spec contains no convolution")
    return layers, channels


class Network(Module):
    """Feature extractor plus classifier head.

    ``forward`` returns the last-stage feature map and the logits from a
    single pass.
    """

    def __init__(self, extractor, feature_channels, head, num_classes):
        self.extractor = extractor
        self.feature_channels = feature_channels
        self.head = head
        self.num_classes = num_classes

    def children(self):
        return [(f"ext{i}", layer) for i, layer in enumerate(self.extractor)] + [("head", self.head)]

    def forward(self, x: Tensor):
        feature = self.extract(x)
        return feature, self.head(T.global_avg_pool(feature), self.training)

    def extract(self, x: Tensor) -> Tensor:
        """Feature map only, without the head."""
        h = x
        for layer in self.extractor:
            h = layer(h, self.training)
        return h

    def extractor_params(self):
        return {name: p for name, p in self.params().items() if name.startswith("ext")}


def build_network(arch_spec: str, num_classes: int, seed: int) -> Network:
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    rng = np.random.default_rng(seed)
    extractor, feature_channels = _build_extractor(PRESETS.get(arch_spec, arch_spec), rng)
    head = _Linear(rng, feature_channels, num_classes)
    return Network(extractor, feature_channels, head, num_classes)


class Discriminator(Module):
    """Feature-map scorer: Conv(s2) -> BN -> LeakyReLU -> Conv(s2) -> GAP -> Sigmoid.

    The second convolution maps to a single channel, so global average
    pooling yields one scalar per sample regardless of spatial extent.
    """

    def __init__(self, conv1, bn, conv2):
        self.conv1 = conv1
        self.bn = bn
        self.conv2 = conv2

    def children(self):
        return [("conv1", self.conv1), ("bn", self.bn), ("conv2", self.conv2)]

    def forward(self, feature: Tensor) -> Tensor:
        if feature.ndim != 4:
            raise ShapeError("discriminator expects an NCHW feature map")
        if feature.shape[2] < 4 or feature.shape[3] < 4:
            raise ShapeError(
                f"discriminator needs spatial extent >= 4, got {feature.shape[2]}x{feature.shape[3]}"
            )
        h = self.conv1(feature, self.training)
        h = self.bn(h, self.training)
        h = T.leaky_relu(h, LEAKY_SLOPE)
        h = self.conv2(h, self.training)
        score = T.sigmoid(T.reshape(T.global_avg_pool(h), (feature.shape[0],)))
        return score


def build_discriminator(in_channels: int, base_width: int, seed: int) -> Discriminator:
    if in_channels < 1 or base_width < 1:
        raise ConfigError("in_channels and base_width must be positive")
    rng = np.random.default_rng(seed)
    conv1 = _Conv(rng, in_channels, base_width, 3, 2)
    bn = _BatchNorm(base_width)
    conv2 = _Conv(rng, base_width, 1, 3, 2)
    return Discriminator(conv1, bn, conv2)


class TransferLayer(Module):
    """1x1 conv -> BN -> ReLU channel adapter; preserves spatial extent."""

    def __init__(self, conv, bn):
        self.conv = conv
        self.bn = bn

    def children(self):
        return [("conv", self.conv), ("bn", self.bn)]

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv(x, self.training)
        h = self.bn(h, self.training)
        return T.relu(h)


class IdentityTransfer(Module):
    """Stands in for a transfer layer when endpoint channel counts agree."""

    def forward(self, x: Tensor) -> Tensor:
        return x


def build_transfer_layer(c_in: int, c_out: int, seed: int):
    if c_in < 1 or c_out < 1:
        raise ConfigError("channel counts must be positive")
    if c_in == c_out:
        return IdentityTransfer()
    rng = np.random.default_rng(seed)
    conv = _Conv(rng, c_in, c_out, 1, 1)
    bn = _BatchNorm(c_out)
    return TransferLayer(conv, bn)
