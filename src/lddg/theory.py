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

import math
import threading
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
    """Closed-form KL( N(mu, var) || N(0, 1) ).

    A ``var`` that is not positive and finite raises ``ValueError``.
    """
    if not 0.0 < var < np.inf:
        raise ValueError(f"var must be positive and finite, got {var!r}")
    return 0.5 * (mu * mu + var - np.log(var) - 1.0)


def _weights(trial, dim):
    """``trial.betas`` as an array, one weight per source posterior, each
    posterior one sample of ``dim`` latents; otherwise ``ValueError``."""
    betas = np.asarray(trial.betas, dtype=np.float64)
    posts = trial.source_posteriors
    if betas.shape != (len(posts),):
        raise ValueError(
            f"trial has betas of shape {betas.shape} for {len(posts)} source posteriors"
        )
    for post in posts:
        if post.mu.shape != (1, dim):
            raise ValueError(
                f"source posterior has shape {post.mu.shape}, expected {(1, dim)}"
            )
    return betas


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


_KL_SOURCES = 3  # mixture components per mixture-KL trial


def make_mixture_kl_trial(seed: int, index: int = 0) -> TheoremTrial:
    """Random mixture instance: three 1-D Gaussians with simplex weights.

    Means and standard deviations are kept inside [-3, 3] x [0.3, 2.0] so the
    quadrature window [-16, 16] holds all but ~1e-12 of every component's
    mass.  The degenerate all-prior case (every source N(0, 1), mixture KL
    exactly zero) is a ``TheoremTrial`` built by hand.
    """
    rng = np.random.default_rng([seed, 41, index])
    k = _KL_SOURCES
    betas = rng.uniform(0.05, 1.0, size=k)
    betas = betas / np.sum(betas)
    mus = rng.uniform(-3.0, 3.0, size=k)
    log = np.log(rng.uniform(0.3, 2.0, size=k))
    # finite by construction, so no checks and no copies
    posts = [
        GaussianPosterior._of_heads(np.array([[m]]), np.array([[2.0 * ls]]))
        for m, ls in zip(mus, log)
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
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def verify_mixture_kl_bound(trial: TheoremTrial) -> BoundReport:
    """Check the mixture KL inequality by quadrature.

    lhs: KL of the beta-mixture against N(0,1), integrated on [-16, 16] with
    composite Simpson; the reported tolerance combines the Simpson refinement
    estimate with a constant floor for the truncated tails.  rhs: the
    beta-weighted closed-form KLs.  The trial needs one weight per source
    posterior and 1 x 1 posteriors, else ``ValueError``.

    The K component densities are built in one (K, grid) array, in place,
    and summed over the component axis, which adds them in component order
    as a per-component loop would: the result is that loop's, bit for bit.
    """
    betas = _weights(trial, 1)
    if not (betas >= 0.0).all():  # a NaN weight fails this too
        raise ValueError("mixture weights must be non-negative")
    if abs(float(betas.sum()) - 1.0) > 1e-9:
        raise ValueError("mixture weights must sum to 1 for the KL bound")
    mus = np.array([float(p.mu[0, 0]) for p in trial.source_posteriors])
    vars_ = np.array([float(np.exp(p.log_var[0, 0])) for p in trial.source_posteriors])

    # t[j] = beta_j * exp(-0.5 * (x - m_j)**2 / v_j) / sqrt(2 pi v_j), and the
    # mixture density q is their sum
    t = np.subtract(_GRID, mus[:, None])
    np.square(t, out=t)
    t *= -0.5
    t /= vars_[:, None]
    np.exp(t, out=t)
    t *= betas[:, None]
    t /= np.sqrt(2.0 * np.pi * vars_)[:, None]
    q = t.sum(axis=0)
    # q * (log q - log p) in the spent first row, and +0.0 where q is not
    # positive, as np.where would give; a plain product there can be -0.0
    integrand = t[0]
    np.maximum(q, 1e-300, out=integrand)
    np.log(integrand, out=integrand)
    integrand -= _GRID_LOG_PRIOR
    integrand *= q
    np.copyto(integrand, 0.0, where=~(q > 0.0))

    fine = _simpson(integrand, _GRID_STEP)
    coarse = _simpson(integrand[::2], 2.0 * _GRID_STEP)
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
_LONG_ROW = 100  # a short row is tiled over up to this many rows, see _apply_rows

# The latent block, the score block and the combined scores of a risk-bound
# trial, one flat float64 buffer each per thread, shared by both functions
# below and grown to the largest size asked for until ``_free_scratch``; a
# result never holds them.
_scratch = threading.local()


def _scratch_array(name: str, shape: tuple) -> np.ndarray:
    """A C-ordered array of ``shape`` in this thread's buffer ``name``, with
    whatever values the buffer held.  Growing the buffer allocates an array
    of ``shape`` itself, so a size too large to allocate fails with numpy's
    message for that shape."""
    size = math.prod(shape)
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(shape).reshape(-1)
        setattr(_scratch, name, buf)
    return buf[:size].reshape(shape)


def _free_scratch() -> None:
    """Drop this thread's buffers; the next risk-bound trial allocates its own."""
    vars(_scratch).clear()


def _apply_rows(op, a: np.ndarray, rows) -> None:
    """``op(a[j], rows[j], out=a[j])`` for every block j of a C-contiguous
    ``a`` (K, n, w), with ``rows`` (K, w), or one (w,) row for all blocks.

    numpy broadcasts a short row over many rows slowly, so each block is
    taken as n / m long rows against the row tiled m times, m the largest
    divisor of n that divides ``_LONG_ROW``.  Each element meets the same
    operand as in a row-by-row broadcast."""
    k, n, w = a.shape
    m = math.gcd(n, _LONG_ROW)
    long = a.reshape(k, n // m, m * w)
    op(long, np.tile(np.asarray(rows).reshape(-1, 1, w), m), out=long)


def _scores(z: np.ndarray, weight: np.ndarray, bias, out: np.ndarray) -> None:
    """``z @ weight.T + bias`` of a (K, n, d) latent block into ``out``
    (K, n, C), as one product against a contiguous copy of ``weight.T``."""
    k, n, d = z.shape
    np.matmul(z.reshape(k * n, d), np.ascontiguousarray(weight.T),
              out=out.reshape(k * n, out.shape[-1]))
    _apply_rows(np.add, out, bias)


def make_risk_bound_trial(seed: int, num_classes: int, index: int = 0) -> TheoremTrial:
    """Random risk-bound instance with its epsilon measured by Monte Carlo.

    Draws class prototypes, per-source same-class posteriors around the
    label's prototype, and an affine classifier; measures every source's
    expected cross-entropy and sets epsilon to the largest.  Redraws when
    the classifier is so bad that epsilon exceeds 4 nats (the bound would
    still hold, but such trials test nothing interesting).  Fewer than 2
    classes raise ``ValueError``.

    Each source's mean, sigma and normals are drawn in turn, as one source
    at a time would draw them, and the K sources' samples, scores and
    losses are then taken as one (K, n, ...) block: every number is the
    per-source computation's, bit for bit.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    c, k, d, n = num_classes, _RISK_SOURCES, _RISK_LATENT_DIM, _RISK_SAMPLES
    z = _scratch_array("z", (k, n, d))
    logits = _scratch_array("scores", (k, n, c))
    for attempt in range(_RISK_MAX_RETRIES):
        rng = np.random.default_rng([seed, 43, index, attempt])
        label = int(rng.integers(c))
        protos = rng.standard_normal((c, d))
        weight = protos + 0.1 * rng.standard_normal((c, d))  # roughly aligned scorer
        bias = 0.1 * rng.standard_normal(c)
        betas = rng.uniform(0.1, 1.0, size=k)
        betas = betas * rng.uniform(0.8, 1.3) / np.sum(betas)
        mus, sigmas = [], []
        for j in range(k):
            mus.append(protos[label] + 0.15 * rng.standard_normal(d))
            sigmas.append(rng.uniform(0.2, 0.5))
            rng.standard_normal(out=z[j])
        # z = mu + sigma * N(0, I) and its scores, in place
        z *= np.array(sigmas)[:, None, None]
        _apply_rows(np.add, z, mus)
        _scores(z, weight, bias, logits)
        losses = _row_losses(logits, label)[0]
        risks = losses.mean(axis=-1)
        epsilon = float(risks.max())
        if epsilon <= 4.0:
            ses = losses.std(axis=-1) / np.sqrt(n)
            # finite by construction, so no checks and no copies
            posts = [
                GaussianPosterior._of_heads(mu.reshape(1, d), np.full((1, d), 2.0 * np.log(sigma)))
                for mu, sigma in zip(mus, sigmas)
            ]
            return TheoremTrial(
                betas=betas,
                norm_bound=float(np.sum(betas)),
                num_classes=c,
                label=label,
                source_posteriors=posts,
                epsilon=epsilon,
                epsilon_se=float(ses.max()),
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
    epsilon measurement scaled by M).  A standard error needs at least two
    draws, so ``samples < 2`` raises ``ValueError``; so does a trial outside
    the theorem's hypotheses: a classifier that does not score
    ``num_classes`` classes, a posterior that is not one sample of the
    classifier's input width, other than one weight per source posterior,
    a negative weight, weights whose L1 norm exceeds ``norm_bound``, or a
    label that is not one of the classes.

    The K sources' normals are one (K, samples, d) draw, the same stream as
    K draws in turn; their scores are one (K, samples, C) block, and the
    weighted blocks are added into the combined scores in source order,
    starting from 0, as a per-source loop would add them.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if trial.epsilon is None or trial.classifier is None:
        raise ValueError("risk-bound trial must carry epsilon and a classifier")
    weight, bias = trial.classifier
    c = trial.num_classes
    if np.ndim(weight) != 2 or np.shape(weight)[0] != c or np.shape(bias) != (c,):
        raise ValueError(f"classifier has weight {np.shape(weight)} and bias {np.shape(bias)}, "
                         f"expected ({c}, d) and ({c},) for {c} classes")
    d = weight.shape[1]
    betas = _weights(trial, d)
    if not (betas >= 0.0).all():
        raise ValueError("combination weights must be non-negative")
    if not betas.sum() <= trial.norm_bound:
        raise ValueError(f"combination weights have L1 norm {float(betas.sum())}, "
                         f"above norm_bound {trial.norm_bound}")
    if not (isinstance(trial.label, (int, np.integer)) and 0 <= trial.label < c):
        raise ValueError(f"label {trial.label!r} is not a class in [0, {c})")
    posts = trial.source_posteriors
    rng = np.random.default_rng([seed, 47, index])
    combined = _scratch_array("combined", (samples, trial.num_classes))
    scores = _scratch_array("scores", (len(posts), samples, trial.num_classes))
    z = _scratch_array("z", (len(posts), samples, d))
    # combined = sum_j beta_j * ((mu_j + std_j * N(0, I)) @ weight.T + bias)
    rng.standard_normal(out=z)
    _apply_rows(np.multiply, z, [np.exp(0.5 * post.log_var[0]) for post in posts])
    _apply_rows(np.add, z, [post.mu[0] for post in posts])
    _scores(z, weight, bias, scores)
    scores *= betas[:, None, None]
    combined.fill(0.0)
    for block in scores:
        combined += block
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


def singular_spectrum(z) -> np.ndarray:
    """Singular values of a matrix in descending order."""
    return svd(z).sigma
