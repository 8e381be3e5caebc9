"""Tests for the rank penalty, nuclear norm, KL divergence, and reparameterization."""

import logging

import numpy as np
import pytest

from lddg.linalg import finite_diff_grad, svd
from lddg.regularizers import (
    GaussianPosterior,
    kl_standard_normal,
    nuclear_norm,
    rank_loss,
    reparameterize,
)


def separated_matrix(rng, rows, cols, num_classes, gap=1e-2):
    """Draw matrices until the singular values around index ``num_classes``
    are separated, so the subgradient is the unique derivative."""
    while True:
        z = rng.standard_normal((rows, cols))
        s = svd(z).sigma
        if (
            s[num_classes - 1] - s[num_classes] > gap
            and s[num_classes] - s[num_classes + 1] > gap
        ):
            return z


class TestRankLoss:
    def test_picks_sigma_just_below_class_count(self):
        # Singular values 5 >= 4 >= 3 >= 2 >= 1: with two classes the loss is
        # the third singular value.
        z = np.zeros((6, 5))
        z[:5, :5] = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        res = rank_loss(z, num_classes=2)
        np.testing.assert_allclose(res.value, 3.0, atol=1e-12)

    def test_subgradient_unit_frobenius_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = separated_matrix(rng, 9, 7, 3)
            res = rank_loss(z, num_classes=3)
            np.testing.assert_allclose(
                np.linalg.norm(res.subgradient), 1.0, atol=1e-10
            )

    def test_subgradient_is_the_returned_pair_at_training_shape(self):
        # A default training step's latent batch: 48 rows, 16 dims, 4 classes.
        z = np.random.default_rng(3).standard_normal((48, 16))
        res = rank_loss(z, num_classes=4)
        factors = svd(z)
        assert res.value == factors.sigma[4]
        np.testing.assert_array_equal(
            res.subgradient, np.outer(factors.u[:, 4], factors.v[:, 4])
        )
        np.testing.assert_allclose(np.linalg.norm(res.subgradient), 1.0, atol=1e-12)

    def test_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = separated_matrix(rng, 8, 6, 2)
            res = rank_loss(z, num_classes=2)
            fd = finite_diff_grad(lambda m: rank_loss(m, num_classes=2).value, z)
            np.testing.assert_allclose(res.subgradient, fd, atol=1e-6)

    def test_degenerate_batch_is_inert(self, caplog):
        z = np.random.default_rng(2).standard_normal((3, 8))
        with caplog.at_level(logging.WARNING):
            res = rank_loss(z, num_classes=4)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.subgradient, np.zeros((3, 8)))
        assert res.sigma.size == 3
        assert not caplog.records  # train, not rank_loss, reports inert steps

    def test_boundary_dimension_is_inert(self):
        # min(n, d) == num_classes leaves no singular value to penalize.
        z = np.random.default_rng(3).standard_normal((4, 8))
        res = rank_loss(z, num_classes=4)
        assert res.value == 0.0

    def test_invalid_class_count(self):
        z = np.eye(3)
        with pytest.raises(ValueError):
            rank_loss(z, num_classes=0)
        with pytest.raises(ValueError):
            rank_loss(z, num_classes=-2)

    def test_zero_on_exact_low_rank(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 9))
        res = rank_loss(z, num_classes=3)
        assert res.value < 1e-10


class TestNuclearNorm:
    def test_value_is_sum_of_singular_values(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((7, 5))
        res = nuclear_norm(z)
        np.testing.assert_allclose(res.value, np.sum(svd(z).sigma), atol=1e-10)

    def test_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = rng.standard_normal((6, 4)) + np.eye(6, 4)
            res = nuclear_norm(z)
            fd = finite_diff_grad(lambda m: nuclear_norm(m).value, z)
            np.testing.assert_allclose(res.subgradient, fd, atol=1e-6)

    def test_diagonal_example(self):
        res = nuclear_norm(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(res.value, 6.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(48, 16), (600, 16)])
def test_penalties_do_not_depend_on_the_factors_signs(shape):
    # Flipping a matched (u_k, v_k) pair leaves every product u_k v_k^T, and
    # so U V^T, exactly as it was: both subgradients come out bit for bit.
    rng = np.random.default_rng(shape[0])
    z = rng.standard_normal(shape)
    u, _, vt = np.linalg.svd(z, full_matrices=False)
    signs = np.where(rng.random(shape[1]) < 0.5, -1.0, 1.0)
    assert (signs < 0).any() and (signs > 0).any()
    u, vt = u * signs, vt * signs[:, None]
    np.testing.assert_array_equal(rank_loss(z, num_classes=4).subgradient, np.outer(u[:, 4], vt[4]))
    np.testing.assert_array_equal(nuclear_norm(z).subgradient, u @ vt)


class TestKlStandardNormal:
    def test_zero_at_standard_posterior(self):
        post = GaussianPosterior(np.zeros((4, 3)), np.zeros((4, 3)))
        value, grad_mu, grad_log_var = kl_standard_normal(post)
        assert value == 0.0
        np.testing.assert_array_equal(grad_mu, np.zeros((4, 3)))
        np.testing.assert_array_equal(grad_log_var, np.zeros((4, 3)))

    def test_closed_form(self):
        rng = np.random.default_rng(7)
        mu = rng.standard_normal((5, 2))
        log_var = rng.uniform(-1.0, 1.0, (5, 2))
        value, _, _ = kl_standard_normal(GaussianPosterior(mu, log_var))
        var = np.exp(log_var)
        expected = 0.5 * np.mean(np.sum(mu**2 + var - log_var - 1.0, axis=1))
        np.testing.assert_allclose(value, expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        mu = rng.standard_normal((3, 4))
        log_var = rng.uniform(-0.5, 0.5, (3, 4))
        _, grad_mu, grad_log_var = kl_standard_normal(
            GaussianPosterior(mu, log_var)
        )
        fd_mu = finite_diff_grad(
            lambda m: kl_standard_normal(GaussianPosterior(m, log_var))[0], mu
        )
        fd_lv = finite_diff_grad(
            lambda lv: kl_standard_normal(GaussianPosterior(mu, lv))[0], log_var
        )
        np.testing.assert_allclose(grad_mu, fd_mu, atol=1e-8)
        np.testing.assert_allclose(grad_log_var, fd_lv, atol=1e-8)

    def test_matches_monte_carlo(self):
        # Estimate E_q[log q(z) - log p(z)] by sampling from the posterior.
        rng = np.random.default_rng(9)
        mu = rng.uniform(-2.0, 2.0, (1, 3))
        log_var = rng.uniform(-1.0, 1.0, (1, 3))
        value, _, _ = kl_standard_normal(GaussianPosterior(mu, log_var))
        std = np.exp(0.5 * log_var)
        draws = mu + std * rng.standard_normal((200_000, 3))
        log_q = -0.5 * np.sum(
            ((draws - mu) / std) ** 2 + log_var + np.log(2.0 * np.pi), axis=1
        )
        log_p = -0.5 * np.sum(draws**2 + np.log(2.0 * np.pi), axis=1)
        np.testing.assert_allclose(value, np.mean(log_q - log_p), atol=2e-2)


class TestGaussianPosterior:
    def test_log_var_is_clamped(self):
        post = GaussianPosterior(np.zeros((1, 2)), np.array([[50.0, -50.0]]))
        np.testing.assert_array_equal(post.log_var, [[30.0, -30.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianPosterior(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GaussianPosterior(np.array([[np.nan]]), np.zeros((1, 1)))


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        rng = np.random.default_rng(10)
        mu = rng.standard_normal((4, 2))
        post = GaussianPosterior(mu, rng.standard_normal((4, 2)))
        np.testing.assert_array_equal(reparameterize(post, np.zeros((4, 2))), mu)

    def test_formula(self):
        rng = np.random.default_rng(11)
        mu = rng.standard_normal((3, 3))
        log_var = rng.uniform(-1.0, 1.0, (3, 3))
        noise = rng.standard_normal((3, 3))
        z = reparameterize(GaussianPosterior(mu, log_var), noise)
        np.testing.assert_allclose(
            z, mu + np.exp(0.5 * log_var) * noise, atol=1e-14
        )

    def test_noise_shape_checked(self):
        post = GaussianPosterior(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            reparameterize(post, np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, value):
        post = GaussianPosterior(np.zeros((2, 2)), np.zeros((2, 2)))
        noise = np.zeros((2, 2))
        noise[1, 0] = value
        with pytest.raises(ValueError, match="noise contains non-finite entries"):
            reparameterize(post, noise)
