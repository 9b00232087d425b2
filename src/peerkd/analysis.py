"""Post-training comparison of co-trained networks.

Feature-map similarity (per-element L1/L2 distance and cosine) quantifies
how far two networks' representations collapsed onto each other; Grad-CAM
heatmaps show which spatial regions drive a class score. Both operate on
frozen networks in eval mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import eval_mode
from .checkpoint import write_atomic
from .data import Dataset, sequential_batches
from .errors import ContractError, DataError, ShapeError, UsageError
from .tensor import Tensor, _run_each, backward, mean_all, no_grad, take_rows


@dataclass
class SimilarityReport:
    """Mean per-sample distances between two networks' flattened feature maps."""

    l1: float
    l2: float
    cosine: float
    count: int


def _paired_vectors(fa: np.ndarray, fb: np.ndarray):
    """Flatten per-sample features into comparable equal-length vectors.

    Matching shapes compare element-wise. A pure channel mismatch falls back
    to spatial-mean per-channel vectors truncated to the smaller width.
    """
    if fa.shape == fb.shape:
        return fa.reshape(fa.shape[0], -1), fb.reshape(fb.shape[0], -1)
    if fa.shape[2:] == fb.shape[2:]:
        c = min(fa.shape[1], fb.shape[1])
        return fa.mean(axis=(2, 3))[:, :c], fb.mean(axis=(2, 3))[:, :c]
    raise UsageError(
        f"feature shapes {fa.shape} and {fb.shape} are not comparable "
        "(spatial extents differ)"
    )


def _features(net, x):
    """A net's graph-free feature map of a batch, as float64."""
    with no_grad():
        return net.extract(Tensor(x)).data.astype(np.float64)


def feature_similarity(net_a, net_b, dataset: Dataset, batch_size: int = 256) -> SimilarityReport:
    """Average L1/L2/cosine between the two nets' features over a dataset;
    the nets run concurrently, the sums on the caller in batch order."""
    if dataset.n == 0:
        raise DataError("cannot compute similarity on an empty dataset")
    l1_sum = l2_sum = cos_sum = 0.0
    with eval_mode(net_a, net_b):
        for x, _ in sequential_batches(dataset, batch_size):
            fa, fb = _run_each(lambda net: _features(net, x), (net_a, net_b))
            va, vb = _paired_vectors(fa, fb)
            diff = va - vb
            l1_sum += float(np.abs(diff).mean(axis=1).sum())
            l2_sum += float(np.sqrt((diff * diff).mean(axis=1)).sum())
            na = np.linalg.norm(va, axis=1)
            nb = np.linalg.norm(vb, axis=1)
            denom = na * nb
            dots = (va * vb).sum(axis=1)
            cos = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
            cos_sum += float(np.clip(cos, -1.0, 1.0).sum())
    n = dataset.n
    return SimilarityReport(l1=l1_sum / n, l2=l2_sum / n, cosine=cos_sum / n, count=n)


def grad_cam(net, image: np.ndarray, target_class: int | None = None):
    """Class-activation heatmap of one [C, H, W] image (any other rank is a
    ``ShapeError``): a float32 array at feature-map resolution, values in
    [0, 1], and the class it explains.

    ``target_class`` defaults to the class the eval-mode forward predicts.
    Channel weights are the spatial mean of d(logit[target])/d(feature);
    the map is the ReLU of the weighted channel sum, normalized by its max
    (an all-zero map stays all-zero). The backward targets the feature map
    alone, so no parameter's ``.grad`` is written and the layers below the
    feature are not replayed.
    """
    if target_class is not None and not 0 <= target_class < net.num_classes:
        raise DataError(
            f"target_class {target_class} out of range [0, {net.num_classes})"
        )
    arr = np.asarray(image, dtype=np.float32)
    if arr.ndim != 3:
        raise ShapeError(f"grad_cam takes one [C, H, W] image, got shape {arr.shape}")
    with eval_mode(net):
        feature, logit = net.forward(Tensor(arr[None]))
    if target_class is None:
        target_class = int(logit.data.argmax())
    backward(mean_all(take_rows(logit, np.asarray([target_class]))), [feature])
    weights = feature.grad[0].mean(axis=(1, 2))
    cam = np.maximum(np.einsum("c,chw->hw", weights, feature.data[0]), 0.0)
    peak = cam.max()
    if peak > 0:
        cam = cam / peak
    return cam.astype(np.float32), target_class


def export_pgm(heatmap: np.ndarray, path):
    """Write a [0,1] heatmap array as binary PGM (P5, maxval 255)."""
    if heatmap.ndim != 2:
        raise ContractError(f"heatmap must be 2-D, got shape {heatmap.shape}")
    if not (heatmap.min() >= 0.0 and heatmap.max() <= 1.0):
        raise ContractError(
            f"heatmap values must lie in [0, 1], got range [{heatmap.min()}, {heatmap.max()}]"
        )
    h, w = heatmap.shape
    payload = np.rint(heatmap * 255.0).astype(np.uint8)
    write_atomic(path, [f"P5\n{w} {h}\n255\n".encode("ascii"), payload.tobytes()])
