"""Scalar training objectives.

Cross-entropy, the mutual mimicry loss (KL toward a peer's or an
ensemble's temperature-softened distribution, multiplied by T^2 so its
gradient scale keeps up with the cross-entropy term), least-squares
adversarial losses for feature-map matching, the direct L1 alignment
baseline, and a graph-free softmax for evaluation and ensemble targets.

All losses reduce by batch mean, keeping magnitudes batch-size invariant.
Reference sides (peer logits, peer features) are treated as constants: the
mimicry gradient flows only into the student, and the alignment gradient
only into the own-network feature.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DataError, NonFiniteError, ShapeError
from .tensor import Tensor


def softmax_np(z: np.ndarray, temperature: float) -> np.ndarray:
    """Graph-free softmax for evaluation and ensemble targets."""
    u = z / temperature
    u = u - u.max(axis=1, keepdims=True)
    e = np.exp(u)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(labels: np.ndarray, z: Tensor) -> Tensor:
    """Mean negative log-likelihood of the true class at temperature 1."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != z.shape[0]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {z.shape}")
    if labels.min() < 0 or labels.max() >= z.shape[1]:
        raise DataError(
            f"labels must lie in [0, {z.shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    logp = T.row_log_softmax(z)
    return T.neg(T.mean_all(T.take_rows(logp, labels)))


def _kl_node(pt: np.ndarray, log_pt: np.ndarray, student_logits: Tensor,
             temperature: float) -> Tensor:
    """T^2 * mean_b KL(p_t || softmax(z_s/T)) as one graph node.

    The target distribution is a constant, so the student logits are the
    node's only parent.
    """
    zs = student_logits.data
    b = zs.shape[0]
    t = np.asarray(temperature, dtype=zs.dtype)
    log_ps = T.log_softmax_np(zs / t)
    ps = np.exp(log_ps)
    # target entries of exactly 0 contribute 0, not 0 * -inf
    safe_log_pt = np.where(pt > 0, log_pt, np.asarray(0.0, dtype=zs.dtype))
    raw = np.sum(pt * (safe_log_pt - log_ps), dtype=zs.dtype) / b
    core = (ps - pt) / (b * t)
    s = np.asarray(temperature * temperature, dtype=zs.dtype)

    def vjp(g):
        return ((g * s) * core,)

    return T._make(s * raw, (student_logits,), vjp, "softened_kl")


def kl_mimicry(teacher_logits: Tensor, student_logits: Tensor,
               temperature: float) -> Tensor:
    """T^2-scaled softened KL; gradient flows only into the student logits."""
    if teacher_logits.shape != student_logits.shape:
        raise ShapeError(
            f"logit shapes differ: {teacher_logits.shape} vs {student_logits.shape}"
        )
    if not temperature > 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    t = np.asarray(temperature, dtype=student_logits.data.dtype)
    log_pt = T.log_softmax_np(teacher_logits.data / t)
    return _kl_node(np.exp(log_pt), log_pt, student_logits, temperature)


def kl_probs_mimicry(target_probs: np.ndarray, student_logits: Tensor,
                     temperature: float) -> Tensor:
    """T^2-scaled KL from a fixed probability target (e.g. an ensemble mean)."""
    if not temperature > 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    if target_probs.shape != student_logits.shape:
        raise ShapeError(
            f"target shape {target_probs.shape} vs logits {student_logits.shape}"
        )
    pt = target_probs.astype(student_logits.data.dtype, copy=False)
    with np.errstate(divide="ignore"):
        log_pt = np.log(pt)
    return _kl_node(pt, log_pt, student_logits, temperature)


def _check_unit_range(name, scores: Tensor):
    lo = float(scores.data.min())
    hi = float(scores.data.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFiniteError(f"{name} is non-finite (range [{lo}, {hi}]); aborting step")
    if not (lo >= 0.0 and hi <= 1.0):
        raise ContractError(f"{name} must lie in [0, 1], got range [{lo}, {hi}]")


def lsgan_d_loss(d_peer: Tensor, d_own: Tensor) -> Tensor:
    """Least-squares discriminator objective: peer scored toward 1, own toward 0."""
    if d_peer.shape != d_own.shape:
        raise ShapeError(f"score shapes differ: {d_peer.shape} vs {d_own.shape}")
    _check_unit_range("d_peer", d_peer)
    _check_unit_range("d_own", d_own)
    diff = 1.0 - d_peer
    return T.mean_all(diff * diff + d_own * d_own)


def lsgan_g_loss(d_own: Tensor) -> Tensor:
    """Least-squares generator objective: push own-feature scores toward 1."""
    _check_unit_range("d_own", d_own)
    diff = 1.0 - d_own
    return T.mean_all(diff * diff)


def l1_alignment(f_own: Tensor, f_peer: Tensor) -> Tensor:
    """Mean absolute difference; the peer feature is a constant target."""
    if f_own.shape != f_peer.shape:
        raise ShapeError(f"feature shapes differ: {f_own.shape} vs {f_peer.shape}")
    return T.mean_all(T.absolute(f_own - f_peer.detach()))
