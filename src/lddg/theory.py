"""Numerical verification of the two generalization bounds.

Both checks are constructive: a trial builder draws a random instance
satisfying the assumptions (a mixture latent posterior for the KL bound, a
set of source posteriors plus a linear classifier for the risk bound), and a
verifier measures both sides of the inequality with an explicit numerical
tolerance — composite-Simpson quadrature with a refinement error estimate
for the KL bound, Monte-Carlo standard errors for the risk bound.

Everything here is one-dimensional or small-and-dense on purpose: the point
is to make the inequalities checkable to tight tolerances, not to scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import svd
from .losses import _row_losses
from .regularizers import GaussianPosterior

__all__ = [
    "TheoremTrial",
    "BoundReport",
    "gaussian_kl_to_standard",
    "make_mixture_kl_trial",
    "verify_mixture_kl_bound",
    "make_risk_bound_trial",
    "verify_risk_bound",
    "singular_spectrum",
]


@dataclass
class TheoremTrial:
    """One randomized instance of a bound's hypotheses.

    betas             : non-negative combination weights over the K sources
    norm_bound        : M with ||betas||_1 <= M
    num_classes       : C
    label             : the class shared by the combined posteriors
    source_posteriors : one single-sample GaussianPosterior per source
    epsilon           : max measured per-source risk (risk bound only)
    classifier        : (weight, bias) of the affine scorer (risk bound only)
    """

    betas: np.ndarray
    norm_bound: float
    num_classes: int
    label: int
    source_posteriors: list
    epsilon: float | None = None
    epsilon_se: float = 0.0
    classifier: tuple | None = None


@dataclass
class BoundReport:
    """Outcome of checking lhs <= rhs once, with its numeric tolerance."""

    theorem: str
    lhs: float
    rhs: float
    tolerance: float
    satisfied: bool
    detail: dict = field(default_factory=dict)


def gaussian_kl_to_standard(mu: float, var: float) -> float:
    """Closed-form KL( N(mu, var) || N(0, 1) )."""
    return 0.5 * (mu * mu + var - np.log(var) - 1.0)


# ---------------------------------------------------------------------------
# mixture KL bound:  KL(sum_j beta_j q_j || N(0,1)) <= sum_j beta_j KL(q_j || N(0,1))
# ---------------------------------------------------------------------------

_GRID_HALF_WIDTH = 16.0
_GRID_POINTS = 8193  # 2**13 intervals; refinement halves this for the error estimate
# the quadrature grid, its step and the prior's log-density on it, shared
# read-only by every trial
_GRID = np.linspace(-_GRID_HALF_WIDTH, _GRID_HALF_WIDTH, _GRID_POINTS)
_GRID_STEP = _GRID[1] - _GRID[0]
_GRID_LOG_PRIOR = -0.5 * _GRID * _GRID - 0.5 * np.log(2.0 * np.pi)
_GRID.flags.writeable = _GRID_LOG_PRIOR.flags.writeable = False


def make_mixture_kl_trial(seed: int, index: int = 0, num_sources: int = 3) -> TheoremTrial:
    """Random mixture instance: K 1-D Gaussians with simplex weights.

    Means and standard deviations are kept inside [-3, 3] x [0.3, 2.0] so the
    quadrature window [-16, 16] holds all but ~1e-12 of every component's
    mass.  The degenerate all-prior case (every source N(0, 1), mixture KL
    exactly zero) is a ``TheoremTrial`` built by hand.
    """
    rng = np.random.default_rng([seed, 41, index])
    k = num_sources
    betas = rng.uniform(0.05, 1.0, size=k)
    betas = betas / np.sum(betas)
    mus = rng.uniform(-3.0, 3.0, size=k)
    sigmas = rng.uniform(0.3, 2.0, size=k)
    posts = [
        GaussianPosterior(
            mu=np.array([[m]]), log_var=np.array([[2.0 * np.log(s)]])
        )
        for m, s in zip(mus, sigmas)
    ]
    return TheoremTrial(
        betas=betas,
        norm_bound=1.0,
        num_classes=2,
        label=0,
        source_posteriors=posts,
    )


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson on an odd-length uniformly spaced sample."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])))


def verify_mixture_kl_bound(trial: TheoremTrial) -> BoundReport:
    """Check the mixture KL inequality by quadrature.

    lhs: KL of the beta-mixture against N(0,1), integrated on [-16, 16] with
    composite Simpson; the reported tolerance combines the Simpson refinement
    estimate with a constant floor for the truncated tails.  rhs: the
    beta-weighted closed-form KLs.
    """
    betas = np.asarray(trial.betas, dtype=np.float64)
    if np.any(betas < 0.0):
        raise ValueError("mixture weights must be non-negative")
    if abs(float(np.sum(betas)) - 1.0) > 1e-9:
        raise ValueError("mixture weights must sum to 1 for the KL bound")
    mus = np.array([float(p.mu[0, 0]) for p in trial.source_posteriors])
    vars_ = np.array([float(np.exp(p.log_var[0, 0])) for p in trial.source_posteriors])

    x, h = _GRID, _GRID_STEP
    # mixture density on the grid
    q = np.zeros_like(x)
    for b, m, v in zip(betas, mus, vars_):
        q += b * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
    safe_q = np.maximum(q, 1e-300)
    integrand = np.where(q > 0.0, q * (np.log(safe_q) - _GRID_LOG_PRIOR), 0.0)

    fine = _simpson(integrand, h)
    coarse = _simpson(integrand[::2], 2.0 * h)
    quad_err = abs(fine - coarse) / 15.0
    lhs = fine
    rhs = float(np.sum(betas * [gaussian_kl_to_standard(m, v) for m, v in zip(mus, vars_)]))
    tolerance = 1e-8 + 16.0 * quad_err
    return BoundReport(
        theorem="mixture-kl",
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        satisfied=lhs <= rhs + tolerance,
        detail={"quadrature_error": quad_err, "betas": betas.tolist()},
    )


# ---------------------------------------------------------------------------
# risk bound:  E[CE of beta-combined scores] <= M * eps + log C
# ---------------------------------------------------------------------------


_RISK_SOURCES = 3  # source posteriors per risk-bound trial
_RISK_LATENT_DIM = 6
_RISK_SAMPLES = 3000  # Monte-Carlo draws per source for epsilon
_RISK_MAX_RETRIES = 50


def make_risk_bound_trial(seed: int, num_classes: int, index: int = 0) -> TheoremTrial:
    """Random risk-bound instance with its epsilon measured by Monte Carlo.

    Draws class prototypes, per-source same-class posteriors around the
    label's prototype, and an affine classifier; measures every source's
    expected cross-entropy and sets epsilon to the largest.  Redraws when
    the classifier is so bad that epsilon exceeds 4 nats (the bound would
    still hold, but such trials test nothing interesting).  Fewer than 2
    classes raise ``ValueError``.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    for attempt in range(_RISK_MAX_RETRIES):
        rng = np.random.default_rng([seed, 43, index, attempt])
        c, k, d = num_classes, _RISK_SOURCES, _RISK_LATENT_DIM
        label = int(rng.integers(c))
        protos = rng.standard_normal((c, d))
        weight = protos + 0.1 * rng.standard_normal((c, d))  # roughly aligned scorer
        bias = 0.1 * rng.standard_normal(c)
        betas = rng.uniform(0.1, 1.0, size=k)
        betas = betas * rng.uniform(0.8, 1.3) / np.sum(betas)
        posts, risks, ses = [], [], []
        for _ in range(k):
            mu = protos[label] + 0.15 * rng.standard_normal(d)
            sigma = rng.uniform(0.2, 0.5)
            posts.append(
                GaussianPosterior(
                    mu=mu.reshape(1, d),
                    log_var=np.full((1, d), 2.0 * np.log(sigma)),
                )
            )
            z = mu + sigma * rng.standard_normal((_RISK_SAMPLES, d))
            logits = z @ weight.T + bias
            losses = _row_losses(logits, label)[0]
            risks.append(float(np.mean(losses)))
            ses.append(float(np.std(losses) / np.sqrt(_RISK_SAMPLES)))
        epsilon = max(risks)
        if epsilon <= 4.0:
            return TheoremTrial(
                betas=betas,
                norm_bound=float(np.sum(betas)),
                num_classes=c,
                label=label,
                source_posteriors=posts,
                epsilon=epsilon,
                epsilon_se=max(ses),
                classifier=(weight, bias),
            )
    raise RuntimeError(
        f"could not draw an acceptable risk-bound trial in {_RISK_MAX_RETRIES} attempts"
    )


def verify_risk_bound(
    trial: TheoremTrial, samples: int = 4000, seed: int = 0, index: int = 0
) -> BoundReport:
    """Monte-Carlo check of E[CE(combined scores)] <= M * eps + log C.

    Draws one latent per source per round, combines the resulting score
    vectors with the beta weights, and averages the cross-entropy.  The
    tolerance is three combined standard errors (lhs estimate plus the
    epsilon measurement scaled by M).  ``samples < 1`` raises ``ValueError``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if trial.epsilon is None or trial.classifier is None:
        raise ValueError("risk-bound trial must carry epsilon and a classifier")
    weight, bias = trial.classifier
    betas = np.asarray(trial.betas, dtype=np.float64)
    rng = np.random.default_rng([seed, 47, index])
    combined = np.zeros((samples, trial.num_classes))
    for b, post in zip(betas, trial.source_posteriors):
        mu = post.mu[0]
        std = np.exp(0.5 * post.log_var[0])
        z = mu + std * rng.standard_normal((samples, mu.size))
        combined += b * (z @ weight.T + bias)
    losses = _row_losses(combined, trial.label)[0]
    lhs = float(np.mean(losses))
    lhs_se = float(np.std(losses) / np.sqrt(samples))
    eps_se = trial.epsilon_se
    rhs = float(trial.norm_bound * trial.epsilon + np.log(trial.num_classes))
    tolerance = 3.0 * (lhs_se + trial.norm_bound * eps_se)
    return BoundReport(
        theorem="risk-bound",
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        satisfied=lhs <= rhs + tolerance,
        detail={
            "epsilon": trial.epsilon,
            "norm_bound": trial.norm_bound,
            "num_classes": trial.num_classes,
            "lhs_se": lhs_se,
        },
    )


def singular_spectrum(z, top_k: int | None = None) -> np.ndarray:
    """Singular values of a matrix in descending order (optionally top_k)."""
    sigma = svd(z).sigma
    return sigma[:top_k] if top_k is not None else sigma
