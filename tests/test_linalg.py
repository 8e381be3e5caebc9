"""Tests for the thin SVD and the finite-difference helper."""

import numpy as np
import pytest

from lddg.linalg import SvdResult, finite_diff_grad, svd


def gram_singular_values(z):
    """Independent oracle: singular values via eigenvalues of z^T z."""
    evals = np.linalg.eigvalsh(z.T @ z if z.shape[0] >= z.shape[1] else z @ z.T)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


def test_identity_singular_values():
    res = svd(np.eye(3))
    np.testing.assert_allclose(res.sigma, [1.0, 1.0, 1.0], atol=1e-14)


def test_zero_matrix():
    res = svd(np.zeros((4, 2)))
    np.testing.assert_allclose(res.sigma, [0.0, 0.0], atol=0.0)
    # u must still be orthonormal even though every sigma vanishes
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(2), atol=1e-12)


def test_gram_oracle_6x4():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 4))
    res = svd(z)
    np.testing.assert_allclose(res.sigma, gram_singular_values(z), atol=1e-8)


# The last three shapes are the ones training uses: a default mini-batch
# step's 48x16 latent batch, a full-batch step's 600x16, and a wide 16x48.
@pytest.mark.parametrize(
    "shape",
    [(3, 3), (6, 4), (4, 6), (32, 16), (16, 32), (1, 5), (5, 1), (2, 2),
     (48, 16), (600, 16), (16, 48)],
)
def test_reconstruction_and_orthonormality(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    z = rng.standard_normal(shape)
    res = svd(z)
    r = min(shape)
    assert res.u.shape == (shape[0], r)
    assert res.sigma.shape == (r,)
    assert res.v.shape == (shape[1], r)
    scale = max(1.0, np.linalg.norm(z))
    np.testing.assert_allclose(
        res.u @ np.diag(res.sigma) @ res.v.T, z, atol=1e-8 * scale
    )
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(r), atol=1e-8)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(r), atol=1e-8)
    # descending, non-negative
    assert np.all(res.sigma[:-1] >= res.sigma[1:] - 1e-15)
    assert np.all(res.sigma >= 0.0)
    np.testing.assert_allclose(res.sigma, gram_singular_values(z), atol=1e-8)
    again = svd(z)
    assert np.array_equal(res.u, again.u)
    assert np.array_equal(res.sigma, again.sigma)
    assert np.array_equal(res.v, again.v)


def test_seeded_shapes_match_gram_oracle():
    rng = np.random.default_rng(123)
    for _ in range(50):
        rows = int(rng.integers(2, 20))
        cols = int(rng.integers(2, 20))
        z = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 10.0)
        res = svd(z)
        np.testing.assert_allclose(res.sigma, gram_singular_values(z), atol=1e-8)


def test_rank_deficient_matrix():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 5))
    res = svd(z)
    assert res.sigma[2] < 1e-12 * res.sigma[0]
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(5), atol=1e-10)
    scale = max(1.0, np.linalg.norm(z))
    np.testing.assert_allclose(
        res.u @ np.diag(res.sigma) @ res.v.T, z, atol=1e-8 * scale
    )


def test_deep_rank_deficiency_keeps_u_orthonormal():
    # Near-square matrices with many null directions: the zero-sigma columns
    # of u must still be orthonormal.
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(6, 17))
        keep = int(rng.integers(1, n - 2))
        z = rng.standard_normal((n, keep)) @ rng.standard_normal((keep, n))
        res = svd(z)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(n), atol=1e-10)
        scale = max(1.0, float(np.linalg.norm(z)))
        np.testing.assert_allclose(
            res.u @ np.diag(res.sigma) @ res.v.T, z, atol=1e-8 * scale
        )
        assert res.sigma[keep] < 1e-10 * max(res.sigma[0], 1.0)


def test_repeated_singular_values():
    res = svd(np.diag([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(res.sigma, [2.0, 2.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-12)


def test_determinism():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((10, 6))
    a, b = svd(z), svd(z.copy())
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.v, b.v)


def test_input_validation():
    with pytest.raises(ValueError):
        svd(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))


def test_result_type():
    res = svd(np.eye(2))
    assert isinstance(res, SvdResult)


def test_finite_diff_grad_quadratic():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 3))
    grad = finite_diff_grad(lambda m: float(np.sum(m * m)), z)
    np.testing.assert_allclose(grad, 2.0 * z, atol=1e-7)


def test_finite_diff_grad_linear():
    z = np.zeros((2, 2))
    grad = finite_diff_grad(lambda m: float(np.sum(3.0 * m)), z, h=1e-4)
    np.testing.assert_allclose(grad, np.full((2, 2), 3.0), atol=1e-9)
