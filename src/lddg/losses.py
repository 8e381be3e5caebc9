"""Softmax cross-entropy over raw logits, with its analytic gradient.

The loss is computed directly from logits with log-sum-exp shifting, so no
probability is ever materialized as an intermediate that could underflow.
One row kernel computes it, both for training (``batch_mean``) and for the
risk bound's Monte-Carlo estimates in ``theory``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cross_entropy_softmax",
    "batch_mean",
]


def cross_entropy_softmax(logits, label: int):
    """Softmax cross-entropy of one sample: ``LSE(logits) - logits[label]``.

    Returns ``(value, grad)`` where ``grad = softmax(logits) - onehot``; it
    is ``batch_mean`` of the one-row batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("cross_entropy_softmax expects 1-D logits")
    value, grad = batch_mean(logits[None, :], [label])
    return value, grad[0]


def batch_mean(logits, labels):
    """Mean cross-entropy over a batch of logits rows, with the mean's gradient.

    logits : (n, C) matrix
    labels : (n,) integer class indices in [0, C)

    ``grad`` is the gradient of the *mean*, i.e. already divided by n.
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
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError(f"labels out of range for {logits.shape[1]} classes")
    losses, exps, total = _row_losses(logits, labels)
    value = float(np.mean(losses))
    grad = exps / total
    grad[np.arange(n), labels] -= 1.0
    return value, grad / n


def _row_losses(logits, labels):
    """Unchecked softmax cross-entropy of each logits row against its label
    (one class for all rows, or an (n,) index array).  Returns the (n,)
    losses, the max-shifted exponentials and their (n, 1) row sums, whose
    ratio is the softmax."""
    m = np.max(logits, axis=1, keepdims=True)
    exps = np.exp(logits - m)
    total = np.sum(exps, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(total[:, 0])
    return lse - logits[np.arange(logits.shape[0]), labels], exps, total
