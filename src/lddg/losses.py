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
    # exps is a transposed view of the kernel's (C, n) buffer; the gradient
    # is laid out row-major, as the backward pass's products expect
    grad = np.divide(exps, total, order="C")
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return value, grad


def _row_losses(logits, labels):
    """Unchecked softmax cross-entropy of each logits row against its label
    (one class for all rows, or an (n,) index array).  Returns the (n,)
    losses, the max-shifted exponentials and their (n, 1) row sums, whose
    ratio is the softmax.

    The row max and row sum run over the C rows of a contiguous copy of
    ``logits.T``, one whole column at a time: numpy reduces a short last
    axis row by row, which costs three to four times as much for C up to
    about ten (from about 50 classes on, the transposed copy and the calls
    per column cost as much or more).  The sum keeps ``np.sum(axis=1)``'s
    order, so every bit matches.
    """
    cols = logits.T.copy()
    m = cols.max(axis=0)
    cols -= m
    np.exp(cols, out=cols)
    total = _pairwise_sum(cols)
    losses = np.log(total)
    losses += m
    losses -= logits[np.arange(logits.shape[0]), labels]
    return losses, cols.T, total[:, None]


def _pairwise_sum(rows):
    """Sum over axis 0 of a (C, n) array, in the order numpy's pairwise
    summation adds a contiguous run of C values: in sequence below 8; up to
    128 into eight interleaved partial sums, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover rows in
    sequence; above 128 as two halves split at a multiple of 8."""
    c = rows.shape[0]
    if c < 8:
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return total
    if c <= 128:
        r = rows[:8].copy()
        full = c - c % 8
        for i in range(8, full, 8):
            r += rows[i:i + 8]
        for step in (1, 2, 4):
            r[::2 * step] += r[step::2 * step]
        total = r[0]
        for row in rows[full:]:
            total += row
        return total
    half = c // 2 - c // 2 % 8
    total = _pairwise_sum(rows[:half])
    total += _pairwise_sum(rows[half:])
    return total
