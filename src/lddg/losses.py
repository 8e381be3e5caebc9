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
    Logits of members stacked on a leading axis, (members, n, C), take
    labels of shape (members, n); the value is then an array with one mean
    per member.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim not in (2, 3):
        raise ValueError("batch_mean expects a 2-D logits matrix, or one per stacked member")
    n = logits.shape[-2]
    if n == 0:
        raise ValueError("batch_mean needs at least one sample")
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer class indices, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= logits.shape[-1]:
        raise ValueError(f"labels out of range for {logits.shape[-1]} classes")
    losses, exps, total = _row_losses(logits, labels)
    value = losses.mean(axis=-1)
    # exps is column-major below 8 classes; the gradient is laid out
    # row-major, as the backward pass's products expect
    grad = np.divide(exps, total, order="C")
    grad[_label_index(logits.shape, labels)] -= 1.0
    grad /= n
    return (float(value) if value.ndim == 0 else value), grad


def _label_index(shape, labels):
    """The index of each row's ``labels`` entry in an array of ``shape``
    (..., n, C); ``labels`` is one class for all rows or one per row."""
    return (*np.ix_(*(np.arange(k) for k in shape[:-1])), labels)


def _row_losses(logits, labels):
    """Unchecked softmax cross-entropy of each logits row against its label
    (one class for all rows, or an index array per row).  ``logits`` is
    (..., n, C); returns the (..., n) losses, the max-shifted exponentials
    and their (..., n, 1) row sums, whose ratio is the softmax.

    The exponentials are a copy of the logits, column-major below 8 classes
    and row-major from 8 on.  Column-major, the row max and row sum run one
    whole column at a time (numpy reduces a short last axis row by row, at
    three to four times the cost) and add the C values in sequence, as
    numpy's summation does below 8 values; row-major, they are numpy's own
    row reductions.  Either way every bit equals ``np.sum(axis=1)``'s.
    """
    if logits.shape[-1] < 8:  # column-major within each (n, C) matrix
        exps = np.swapaxes(np.array(np.swapaxes(logits, -1, -2), order="C"), -1, -2)
    else:
        exps = np.array(logits, order="C")
    m = exps.max(axis=-1)
    exps -= m[..., None]
    np.exp(exps, out=exps)
    total = exps.sum(axis=-1, keepdims=True)
    losses = np.log(total[..., 0])
    losses += m
    losses -= logits[_label_index(logits.shape, labels)]
    return losses, exps, total
