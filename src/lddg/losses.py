"""Classification losses over raw logits: softmax cross-entropy and a
focal-style alternative, both with analytic gradients.

All losses are computed directly from logits with log-sum-exp shifting, so
no probability is ever materialized as an intermediate that could underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fields import check_field_types

__all__ = [
    "LossConfig",
    "log_sum_exp",
    "cross_entropy_softmax",
    "focal_alternate",
    "batch_mean",
]


@dataclass
class LossConfig:
    """Which classification loss to use, plus focal shape parameters.

    kind  : 'cross_entropy' or 'focal'
    gamma : focal sharpness > 0 (ignored for cross_entropy)
    beta  : focal margin offset (ignored for cross_entropy)
    """

    kind: str = "cross_entropy"
    gamma: float = 2.0
    beta: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("cross_entropy", "focal"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def log_sum_exp(a) -> float:
    """Numerically stable log(sum(exp(a))) for a 1-D array."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a)
    return float(m + np.log(np.sum(np.exp(a - m))))


def _softplus(x):
    # max(x, 0) + log1p(exp(-|x|)) never overflows
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def cross_entropy_softmax(logits, label: int):
    """Softmax cross-entropy of one sample: ``LSE(logits) - logits[label]``.

    Returns ``(value, grad)`` where ``grad = softmax(logits) - onehot``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("cross_entropy_softmax expects 1-D logits")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    m = np.max(logits)
    exps = np.exp(logits - m)
    total = np.sum(exps)
    value = float(m + np.log(total) - logits[label])
    grad = exps / total
    grad[label] -= 1.0
    return value, grad


def focal_alternate(logits, label: int, gamma: float = 2.0, beta: float = 1.0):
    """Focal-style loss driven by the true-vs-rest logit margin.

    With margin ``x = logits[label] - LSE(logits without label)`` the loss is

        softplus(-(gamma * x + beta)) / gamma

    which upper-bounds the 0-1 error shifted by beta/gamma, is convex and
    non-increasing in the margin, and flattens much faster than plain
    cross-entropy once a sample is confidently correct.  Returns
    ``(value, grad)`` over the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("focal_alternate expects 1-D logits")
    c = logits.shape[0]
    if not 0 <= label < c:
        raise ValueError(f"label {label} out of range for {c} classes")
    if c < 2:
        raise ValueError("focal_alternate needs at least 2 classes")
    others = np.delete(logits, label)
    m = np.max(others)
    exps = np.exp(others - m)
    total = np.sum(exps)
    margin = float(logits[label] - (m + np.log(total)))
    u = gamma * margin + beta
    value = float(_softplus(-u) / gamma)
    # d value / d margin = -sigmoid(-u); chain through the margin
    sig = np.exp(-u) / (1.0 + np.exp(-u)) if u >= 0 else 1.0 / (1.0 + np.exp(u))
    grad = np.zeros_like(logits)
    grad[label] = -sig
    p_others = exps / total
    mask = np.arange(c) != label
    grad[mask] = sig * p_others
    return value, grad


def batch_mean(logits, labels, cfg: LossConfig):
    """Mean loss over a batch of logits rows, with the mean's gradient.

    logits : (n, C) matrix
    labels : (n,) integer class indices

    Vectorized for cross-entropy; the focal path loops rows (batches here
    are small).  ``grad`` is the gradient of the *mean*, i.e. already
    divided by n.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("batch_mean expects a 2-D logits matrix")
    n = logits.shape[0]
    if n == 0:
        raise ValueError("batch_mean needs at least one sample")
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} rows")
    if cfg.kind == "cross_entropy":
        m = np.max(logits, axis=1, keepdims=True)
        exps = np.exp(logits - m)
        total = np.sum(exps, axis=1, keepdims=True)
        lse = m[:, 0] + np.log(total[:, 0])
        value = float(np.mean(lse - logits[np.arange(n), labels]))
        grad = exps / total
        grad[np.arange(n), labels] -= 1.0
        return value, grad / n
    total_value = 0.0
    grad = np.zeros_like(logits)
    for i in range(n):
        v, g = focal_alternate(logits[i], int(labels[i]), cfg.gamma, cfg.beta)
        total_value += v
        grad[i] = g
    return total_value / n, grad / n
