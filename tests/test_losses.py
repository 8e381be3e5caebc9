"""Tests for the classification losses and their gradients."""

import numpy as np
import pytest
from scipy.special import logsumexp

from lddg.linalg import finite_diff_grad
from lddg.losses import _row_losses, batch_mean, cross_entropy_softmax


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        for c in (2, 4, 7):
            value, _ = cross_entropy_softmax(np.zeros(c), 0)
            np.testing.assert_allclose(value, np.log(c), atol=1e-12)

    def test_value_is_lse_minus_true_logit(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            logits = rng.uniform(-4.0, 4.0, 5)
            label = int(rng.integers(5))
            value, _ = cross_entropy_softmax(logits, label)
            np.testing.assert_allclose(
                value, logsumexp(logits) - logits[label], atol=1e-12
            )

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-3.0, 3.0, 6)
        _, grad = cross_entropy_softmax(logits, 2)
        p = np.exp(logits - logsumexp(logits))
        expected = p.copy()
        expected[2] -= 1.0
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-3.0, 3.0, 4)
        fd = finite_diff_grad(
            lambda row: cross_entropy_softmax(row[0], 1)[0],
            logits[None, :],
        )
        _, grad = cross_entropy_softmax(logits, 1)
        np.testing.assert_allclose(grad, fd[0], atol=1e-7)

    def test_extreme_logits_stay_finite(self):
        value, grad = cross_entropy_softmax(np.array([1000.0, -1000.0]), 1)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_softmax(np.zeros(3), 3)
        with pytest.raises(ValueError):
            cross_entropy_softmax(np.zeros(3), -1)

    def test_bool_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            cross_entropy_softmax(np.zeros(3), True)

    def test_logits_of_several_rows_rejected(self):
        with pytest.raises(ValueError, match="expects 1-D logits"):
            cross_entropy_softmax(np.zeros((2, 3)), 0)


class TestBatchMean:
    def test_matches_per_sample_average(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-3.0, 3.0, (8, 4))
        labels = rng.integers(0, 4, 8)
        value, grad = batch_mean(logits, labels)
        lse = logsumexp(logits, axis=1, keepdims=True)
        singles = lse[:, 0] - logits[np.arange(8), labels]
        expected = np.exp(logits - lse)
        expected[np.arange(8), labels] -= 1.0
        np.testing.assert_allclose(value, np.mean(singles), atol=1e-12)
        np.testing.assert_allclose(grad, expected / 8.0, atol=1e-12)

    def test_labels_out_of_range_rejected(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        for label in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                batch_mean(logits, [label])

    @pytest.mark.parametrize("labels", [[True, False], [1.0, 0.0], np.array([1, 0], dtype=object)])
    def test_labels_that_are_not_integers_rejected(self, labels):
        # boolean labels would index a mask, scoring class 0 for both rows
        with pytest.raises(ValueError, match="labels"):
            batch_mean([[1.0, 2.0], [0.5, -1.0]], labels)

    def test_unsigned_labels_score_as_signed_ones(self):
        logits = np.array([[1.0, 2.0], [0.5, -1.0]])
        want = batch_mean(logits, np.array([1, 0]))
        got = batch_mean(logits, np.array([1, 0], dtype=np.uint8))
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_mean(np.zeros((3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            batch_mean(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3, 4)])
    def test_logits_neither_matrix_nor_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D logits matrix"):
            batch_mean(np.zeros(shape), np.zeros(shape[:-1], dtype=int))


def _reference_row_losses(logits, labels):
    """Softmax cross-entropy with numpy's row reductions, which the
    column-wise kernel must match bit for bit."""
    m = np.max(logits, axis=1, keepdims=True)
    exps = np.exp(logits - m)
    total = np.sum(exps, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(total[:, 0])
    return lse - logits[np.arange(logits.shape[0]), labels], exps, total


def _logits(rng, c):
    """40 rows of C logits: ordinary values, rows with tied maxima (two
    tied columns, and all columns equal) and rows of magnitude 1e3."""
    logits = rng.standard_normal((40, c)) * 3.0
    logits[10:20, c // 2] = np.max(logits[10:20], axis=1)
    logits[20:25] = rng.standard_normal((5, 1))
    logits[25:] *= 1e3 / 3.0
    return logits


class TestRowKernel:
    @pytest.mark.parametrize("label_kind", ["scalar", "array"])
    def test_matches_row_reductions_bit_for_bit(self, label_kind):
        rng = np.random.default_rng(11)
        for c in [*range(1, 131), 300]:
            logits = _logits(rng, c)
            labels = (c - 1 if label_kind == "scalar"
                      else rng.integers(0, c, logits.shape[0]))
            # all 40 rows, then one ordinary row, one row with a tied maximum
            # and two rows: one all-equal, one of magnitude 1e3
            for rows in (slice(None), slice(0, 1), slice(10, 11), slice(24, 26)):
                sub = labels if label_kind == "scalar" else labels[rows]
                got = _row_losses(logits[rows], sub)
                want = _reference_row_losses(logits[rows], sub)
                for name, g, w in zip(("losses", "exps", "total"), got, want):
                    assert g.shape == w.shape, (c, rows, name)
                    assert g.tobytes() == w.tobytes(), f"{name} differs at C = {c}, rows {rows}"

    def test_batch_mean_matches_row_reductions_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for c in (1, 2, 4, 7, 8, 9, 16, 129, 300):
            logits = _logits(rng, c)
            labels = rng.integers(0, c, logits.shape[0])
            losses, exps, total = _reference_row_losses(logits, labels)
            grad = exps / total
            grad[np.arange(logits.shape[0]), labels] -= 1.0
            value, got = batch_mean(logits, labels)
            assert value == float(np.mean(losses))
            assert got.flags.c_contiguous
            assert got.tobytes() == (grad / logits.shape[0]).tobytes(), c

    def test_leaves_the_logits_untouched(self):
        for shape in ((1, 5), (5, 1), (6, 3), (4, 9)):
            logits = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
            before = logits.copy()
            _row_losses(logits, 0)
            assert np.array_equal(logits, before)
