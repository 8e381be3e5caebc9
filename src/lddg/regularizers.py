"""Latent-space regularizers: rank penalty, nuclear norm, KL, reparameterization.

The rank penalty treats a latent batch ``z`` (one row per sample) as a matrix
and penalizes its (C+1)-th singular value, C being the number of classes.
Driving that value to zero pushes the batch toward rank <= C, i.e. toward one
latent direction per class.  The penalty's subgradient is the rank-one outer
product of the corresponding singular vector pair, which always has unit
Frobenius norm when the value is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, svd

__all__ = [
    "GaussianPosterior",
    "RankLossResult",
    "rank_loss",
    "nuclear_norm",
    "kl_standard_normal",
    "reparameterize",
]

LOG_VAR_MIN = -30.0
LOG_VAR_MAX = 30.0


@dataclass
class GaussianPosterior:
    """Diagonal Gaussian over latents, one row per sample.

    ``log_var`` is clamped to [-30, 30] on construction so that
    ``exp(log_var)`` can neither overflow nor collapse to an exact zero;
    the clamp writes a copy, so a caller's array is never changed.  A
    model's posterior (see ``model.forward``) may hold stacked members on a
    leading axis, one (n, d) batch each.
    """

    mu: np.ndarray
    log_var: np.ndarray

    @classmethod
    def _of_heads(cls, mu, log_var):
        """The posterior of arrays its caller owns and knows to be finite
        float64 matrices: a model's mean and log-variance head outputs, or
        a theory trial's drawn components.  ``log_var`` is clamped in
        place, in its own buffer, and neither array is copied or checked."""
        post = cls.__new__(cls)
        post.mu = mu
        post.log_var = np.clip(log_var, LOG_VAR_MIN, LOG_VAR_MAX, out=log_var)
        return post

    def __post_init__(self):
        self.mu = as_matrix(self.mu)
        self.log_var = as_matrix(self.log_var).clip(LOG_VAR_MIN, LOG_VAR_MAX)
        if self.mu.shape != self.log_var.shape:
            raise ValueError(
                f"mu shape {self.mu.shape} != log_var shape {self.log_var.shape}"
            )


@dataclass
class RankLossResult:
    """A low-rank penalty's value, its subgradient, and the singular values
    of the latent batch it was taken over (descending)."""

    value: float
    subgradient: np.ndarray
    sigma: np.ndarray


def rank_loss(z, num_classes: int) -> RankLossResult:
    """Singular value sigma_{C+1} of the latent batch and its subgradient.

    z           : (n, d) latent batch
    num_classes : C >= 1

    Returns value ``sigma_{C+1}`` (1-indexed, i.e. the first singular value
    beyond a rank-C fit), subgradient ``u_{C+1} v_{C+1}^T`` and all of
    sigma, from one SVD of z.  When ``min(n, d) <= C`` the batch can never
    exceed rank C, so the penalty is inert: the value is 0 with a zero
    subgradient, and sigma is still returned.  Nothing is logged here;
    ``train`` warns once per run.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    res = svd(z)
    if res.sigma.size <= num_classes:
        shape = (res.u.shape[0], res.v.shape[0])
        return RankLossResult(value=0.0, subgradient=np.zeros(shape), sigma=res.sigma)
    value = float(res.sigma[num_classes])
    sub = res.u[:, num_classes, None] * res.v[:, num_classes]
    return RankLossResult(value=value, subgradient=sub, sigma=res.sigma)


def nuclear_norm(z) -> RankLossResult:
    """Sum of singular values and its subgradient ``U V^T``.

    Used as the low-rank baseline in ablations.  Unlike the sigma_{C+1}
    penalty its subgradient has Frobenius norm sqrt(rank), not 1.
    """
    res = svd(z)
    return RankLossResult(
        value=float(res.sigma.sum()), subgradient=res.u @ res.v.T, sigma=res.sigma
    )


def kl_standard_normal(posterior: GaussianPosterior):
    """KL(q || N(0, I)) averaged over the batch, with gradients.

    Per sample the diagonal-Gaussian KL is
    ``0.5 * sum_d (mu^2 + exp(log_var) - log_var - 1)``; the returned value
    is the mean over the n rows.  Gradients:

        d/d mu      = mu / n
        d/d log_var = (exp(log_var) - 1) / (2 n)

    Returns ``(value, grad_mu, grad_log_var)``.  For members stacked on a
    leading axis the value is an array with one mean per member.
    """
    mu, log_var = posterior.mu, posterior.log_var
    n = mu.shape[-2]
    var = np.exp(log_var)
    terms = mu * mu
    terms += var
    terms -= log_var
    terms -= 1.0
    # each member's whole (n, d) block, summed as numpy sums one matrix
    value = terms.reshape(*terms.shape[:-2], -1).sum(axis=-1) / (2.0 * n)
    grad_log_var = var  # (var - 1) / (2 n), in var's buffer
    grad_log_var -= 1.0
    grad_log_var /= 2.0 * n
    return (float(value) if value.ndim == 0 else value), mu / n, grad_log_var


def reparameterize(posterior: GaussianPosterior, noise) -> np.ndarray:
    """Sample ``z = mu + exp(0.5 log_var) * noise`` (pathwise estimator).

    ``noise`` must already have the posterior's shape; passing zeros gives
    the posterior mean.
    """
    eps = np.asarray(noise, dtype=np.float64)
    if eps.shape != posterior.mu.shape:
        raise ValueError(
            f"noise shape {eps.shape} != posterior shape {posterior.mu.shape}"
        )
    if not np.isfinite(eps).all():
        raise ValueError("noise contains non-finite entries")
    z = posterior.log_var * 0.5
    np.exp(z, out=z)
    z *= eps
    z += posterior.mu
    return z
