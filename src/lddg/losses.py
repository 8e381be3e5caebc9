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
    value = float(losses.mean())
    # exps is column-major below 8 classes; the gradient is laid out
    # row-major, as the backward pass's products expect
    grad = np.divide(exps, total, order="C")
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return value, grad


def _row_losses(logits, labels):
    """Unchecked softmax cross-entropy of each logits row against its label
    (one class for all rows, or an (n,) index array).  Returns the (n,)
    losses, the max-shifted exponentials and their (n, 1) row sums, whose
    ratio is the softmax.

    The exponentials are a copy of the logits, column-major below 8 classes
    and row-major from 8 on.  Column-major, the row max and row sum run one
    whole column at a time (numpy reduces a short last axis row by row, at
    three to four times the cost) and add the C values in sequence, as
    numpy's summation does below 8 values; row-major, they are numpy's own
    row reductions.  Either way every bit equals ``np.sum(axis=1)``'s.
    """
    exps = np.array(logits, order="F" if logits.shape[1] < 8 else "C")
    m = exps.max(axis=1)
    exps -= m[:, None]
    np.exp(exps, out=exps)
    total = exps.sum(axis=1, keepdims=True)
    losses = np.log(total[:, 0])
    losses += m
    losses -= logits[np.arange(logits.shape[0]), labels]
    return losses, exps, total
