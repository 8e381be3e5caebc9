"""Tests for the numerical verification of the two generalization bounds."""

import sys
import threading

import numpy as np
import pytest

from lddg import theory
from lddg.linalg import svd
from lddg.regularizers import GaussianPosterior
from lddg.theory import (
    BoundReport,
    TheoremTrial,
    gaussian_kl_to_standard,
    make_mixture_kl_trial,
    make_risk_bound_trial,
    singular_spectrum,
    verify_mixture_kl_bound,
    verify_risk_bound,
)


class TestGaussianKl:
    def test_prior_has_zero_kl(self):
        assert gaussian_kl_to_standard(0.0, 1.0) == 0.0

    def test_known_values(self):
        # KL(N(1,1) || N(0,1)) = 1/2; KL(N(0,v) || N(0,1)) = (v - log v - 1)/2
        np.testing.assert_allclose(gaussian_kl_to_standard(1.0, 1.0), 0.5)
        for v in (0.25, 0.5, 2.0, 4.0):
            np.testing.assert_allclose(
                gaussian_kl_to_standard(0.0, v), 0.5 * (v - np.log(v) - 1.0)
            )

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu = rng.uniform(-5.0, 5.0)
            var = rng.uniform(0.01, 10.0)
            assert gaussian_kl_to_standard(mu, var) >= 0.0


    @pytest.mark.parametrize("var", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_a_variance_that_is_not_positive_and_finite(self, var):
        with pytest.raises(ValueError, match=f"var must be positive and finite, got {var}"):
            gaussian_kl_to_standard(0.0, var)


def _posterior(*mu):
    return GaussianPosterior(np.array([mu]), np.zeros((1, len(mu))))


class TestMixtureKlBound:
    def test_trials_satisfy_bound(self):
        for i in range(50):
            trial = make_mixture_kl_trial(seed=0, index=i)
            rep = verify_mixture_kl_bound(trial)
            assert rep.satisfied, f"trial {i}: lhs={rep.lhs} rhs={rep.rhs}"
            assert rep.lhs <= rep.rhs + rep.tolerance

    def test_single_component_is_tight(self):
        # With one source the mixture IS the component, so quadrature must
        # reproduce the closed form: lhs == rhs within tolerance.  Each source
        # is drawn from make_mixture_kl_trial's ranges.
        rng = np.random.default_rng(1)
        for _ in range(10):
            mu, std = rng.uniform(-3.0, 3.0), rng.uniform(0.3, 2.0)
            trial = TheoremTrial(
                betas=np.array([1.0]),
                norm_bound=1.0,
                num_classes=2,
                label=0,
                source_posteriors=[
                    GaussianPosterior(np.array([[mu]]), np.array([[2.0 * np.log(std)]]))
                ],
            )
            rep = verify_mixture_kl_bound(trial)
            assert abs(rep.lhs - rep.rhs) <= rep.tolerance + 1e-8

    def test_all_prior_sources_give_zero_lhs(self):
        # every source IS the prior, so the mixture KL is exactly zero
        prior = GaussianPosterior(np.zeros((1, 1)), np.zeros((1, 1)))
        trial = TheoremTrial(
            betas=make_mixture_kl_trial(seed=2).betas,
            norm_bound=1.0,
            num_classes=2,
            label=0,
            source_posteriors=[prior] * 3,
        )
        rep = verify_mixture_kl_bound(trial)
        assert rep.satisfied
        assert abs(rep.lhs) < 1e-8
        assert abs(rep.rhs) < 1e-12

    def test_distinct_components_are_strict(self):
        # Jensen gap: mixing genuinely different components must make the
        # mixture KL strictly smaller than the weighted KLs.
        post = lambda m, s: GaussianPosterior(
            np.array([[m]]), np.array([[2.0 * np.log(s)]])
        )
        trial = TheoremTrial(
            betas=np.array([0.5, 0.5]),
            norm_bound=1.0,
            num_classes=2,
            label=0,
            source_posteriors=[post(-2.0, 0.5), post(2.0, 0.5)],
        )
        rep = verify_mixture_kl_bound(trial)
        assert rep.satisfied
        assert rep.rhs - rep.lhs > 0.5  # far from tight for well-separated means

    def test_quadrature_matches_independent_integrator(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        trial = make_mixture_kl_trial(seed=3)
        rep = verify_mixture_kl_bound(trial)
        mus = [float(p.mu[0, 0]) for p in trial.source_posteriors]
        sig = [float(np.exp(0.5 * p.log_var[0, 0])) for p in trial.source_posteriors]

        def integrand(x):
            q = sum(
                b * np.exp(-0.5 * (x - m) ** 2 / s**2) / (s * np.sqrt(2 * np.pi))
                for b, m, s in zip(trial.betas, mus, sig)
            )
            log_p = -0.5 * x * x - 0.5 * np.log(2 * np.pi)
            return q * (np.log(q) - log_p)

        ref, _ = scipy_integrate.quad(integrand, -16.0, 16.0, limit=200)
        np.testing.assert_allclose(rep.lhs, ref, atol=1e-8)

    def test_weights_validated(self):
        trial = make_mixture_kl_trial(seed=4)
        trial.betas = np.array([0.5, 0.5, 0.5])  # not a simplex
        with pytest.raises(ValueError):
            verify_mixture_kl_bound(trial)
        trial.betas = np.array([-0.5, 1.0, 0.5])
        with pytest.raises(ValueError):
            verify_mixture_kl_bound(trial)
        # a NaN weight used to give a report with a NaN rhs
        trial.betas = np.array([np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            verify_mixture_kl_bound(trial)

    def test_one_weight_per_posterior(self):
        # one weight for three posteriors used to check a one-component mixture
        trial = make_mixture_kl_trial(seed=4)
        trial.betas = np.array([1.0])
        with pytest.raises(ValueError, match=r"betas of shape \(1,\) for 3 source posteriors"):
            verify_mixture_kl_bound(trial)

    def test_posteriors_are_one_by_one(self):
        # a 1 x 2 posterior used to be read at [0, 0] alone
        trial = make_mixture_kl_trial(seed=4)
        trial.source_posteriors[1] = _posterior(0.5, -0.5)
        with pytest.raises(ValueError, match=r"shape \(1, 2\), expected \(1, 1\)"):
            verify_mixture_kl_bound(trial)

    def test_trial_builder_deterministic(self):
        a = make_mixture_kl_trial(seed=5, index=7)
        b = make_mixture_kl_trial(seed=5, index=7)
        np.testing.assert_array_equal(a.betas, b.betas)
        for pa, pb in zip(a.source_posteriors, b.source_posteriors):
            np.testing.assert_array_equal(pa.mu, pb.mu)


class TestRiskBound:
    def test_trials_satisfy_bound(self):
        for i in range(20):
            c = 2 if i % 2 == 0 else 7
            trial = make_risk_bound_trial(seed=0, num_classes=c, index=i)
            rep = verify_risk_bound(trial, samples=2000, seed=0, index=i)
            assert rep.satisfied, f"trial {i}: lhs={rep.lhs} rhs={rep.rhs}"

    def test_rhs_structure(self):
        trial = make_risk_bound_trial(seed=1, num_classes=4)
        rep = verify_risk_bound(trial, samples=500)
        np.testing.assert_allclose(
            rep.rhs, trial.norm_bound * trial.epsilon + np.log(4), atol=1e-12
        )

    def test_epsilon_positive_and_bounded(self):
        for i in range(10):
            trial = make_risk_bound_trial(seed=2, num_classes=3, index=i)
            assert 0.0 < trial.epsilon <= 4.0
            assert np.sum(trial.betas) == pytest.approx(trial.norm_bound)

    def test_norm_bound_allows_non_simplex_weights(self):
        # The combination weights only need ||beta||_1 <= M, not sum to 1.
        seen_above_one = False
        for i in range(20):
            trial = make_risk_bound_trial(seed=3, num_classes=2, index=i)
            if np.sum(trial.betas) > 1.0:
                seen_above_one = True
        assert seen_above_one

    @pytest.mark.parametrize("num_classes", [-1, 0, 1])
    def test_fewer_than_two_classes_rejected(self, num_classes):
        with pytest.raises(ValueError, match="num_classes"):
            make_risk_bound_trial(seed=0, num_classes=num_classes)

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_no_samples_rejected(self, samples):
        trial = make_risk_bound_trial(seed=0, num_classes=2)
        with pytest.raises(ValueError, match="samples"):
            verify_risk_bound(trial, samples=samples)

    def test_missing_epsilon_rejected(self):
        trial = make_mixture_kl_trial(seed=4)
        with pytest.raises(ValueError):
            verify_risk_bound(trial)

    def test_one_weight_per_posterior(self):
        # a fourth weight for three posteriors used to be ignored
        trial = make_risk_bound_trial(seed=5, num_classes=3)
        trial.betas = np.append(trial.betas, 0.5)
        with pytest.raises(ValueError, match=r"betas of shape \(4,\) for 3 source posteriors"):
            verify_risk_bound(trial, samples=100)

    @pytest.mark.parametrize("label", [-1, 3, 7, 1.0, None])
    def test_label_is_one_of_the_classes(self, label):
        # label -1 used to score the last class, and label 3 of 3 to raise IndexError
        trial = make_risk_bound_trial(seed=5, num_classes=3)
        trial.label = label
        with pytest.raises(ValueError, match=r"^label .* is not a class in \[0, 3\)$"):
            verify_risk_bound(trial, samples=100)

    @pytest.mark.parametrize("other", [(2, 3), (4, 3), (3, 2), (3, 4), ("1-D", 3)])
    def test_classifier_scores_the_trial_s_classes(self, other):
        # a classifier for other classes used to fail in numpy's matmul or reshape
        trial = make_risk_bound_trial(seed=5, num_classes=3)
        rows, biases = other
        weight = np.ones(6) if rows == "1-D" else np.ones((rows, 6))
        trial.classifier = (weight, np.zeros(biases))
        with pytest.raises(ValueError, match=r"expected \(3, d\) and \(3,\) for 3 classes$"):
            verify_risk_bound(trial, samples=100)

    @pytest.mark.parametrize("sign", [-1.0, np.nan])
    def test_weights_are_non_negative(self, sign):
        trial = make_risk_bound_trial(seed=5, num_classes=3)
        trial.betas = trial.betas * [1.0, sign, 1.0]
        with pytest.raises(ValueError, match="^combination weights must be non-negative$"):
            verify_risk_bound(trial, samples=100)

    @pytest.mark.parametrize("scale", [0.5, np.nextafter(1.0, 0.0), np.nan])
    def test_weights_are_within_the_norm_bound(self, scale):
        trial = make_risk_bound_trial(seed=5, num_classes=3)
        trial.norm_bound *= scale
        with pytest.raises(ValueError, match=r"^combination weights have L1 norm .* above norm_bound"):
            verify_risk_bound(trial, samples=100)

    def test_posteriors_are_one_sample_of_the_classifier_s_width(self):
        trial = make_risk_bound_trial(seed=5, num_classes=3)
        trial.source_posteriors[0] = _posterior(*([0.0] * 5))
        with pytest.raises(ValueError, match=r"shape \(1, 5\), expected \(1, 6\)"):
            verify_risk_bound(trial, samples=100)

    def test_verifier_deterministic(self):
        trial = make_risk_bound_trial(seed=5, num_classes=3)
        a = verify_risk_bound(trial, samples=1000, seed=9, index=1)
        b = verify_risk_bound(trial, samples=1000, seed=9, index=1)
        assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_report_fields(self):
        trial = make_risk_bound_trial(seed=6, num_classes=2)
        rep = verify_risk_bound(trial, samples=500)
        assert isinstance(rep, BoundReport)
        assert rep.theorem == "risk-bound"
        assert {"epsilon", "norm_bound", "num_classes", "lhs_se"} <= set(rep.detail)


def _reference_ce(logits, label):
    """Cross-entropy of every row against one label, by numpy's row reductions."""
    m = np.max(logits, axis=1, keepdims=True)
    total = np.sum(np.exp(logits - m), axis=1, keepdims=True)
    return m[:, 0] + np.log(total[:, 0]) - logits[:, label]


def _reference_risk_trial(seed, c, index):
    """``make_risk_bound_trial`` written with a fresh array per expression:
    (label, betas, weight, bias, source (mu, log_var) pairs, epsilon, its se)."""
    k, d, n = theory._RISK_SOURCES, theory._RISK_LATENT_DIM, theory._RISK_SAMPLES
    for attempt in range(theory._RISK_MAX_RETRIES):
        rng = np.random.default_rng([seed, 43, index, attempt])
        label = int(rng.integers(c))
        protos = rng.standard_normal((c, d))
        weight = protos + 0.1 * rng.standard_normal((c, d))
        bias = 0.1 * rng.standard_normal(c)
        betas = rng.uniform(0.1, 1.0, size=k)
        betas = betas * rng.uniform(0.8, 1.3) / np.sum(betas)
        posts, risks, ses = [], [], []
        for _ in range(k):
            mu = protos[label] + 0.15 * rng.standard_normal(d)
            sigma = rng.uniform(0.2, 0.5)
            posts.append((mu, np.full(d, 2.0 * np.log(sigma))))
            z = mu + sigma * rng.standard_normal((n, d))
            losses = _reference_ce(z @ weight.T + bias, label)
            risks.append(float(np.mean(losses)))
            ses.append(float(np.std(losses) / np.sqrt(n)))
        if max(risks) <= 4.0:
            return label, betas, weight, bias, posts, max(risks), max(ses)
    raise AssertionError("no acceptable reference trial")


def _reference_risk_lhs(trial, samples, seed, index):
    """``verify_risk_bound``'s lhs and its standard error, one fresh array
    per expression."""
    weight, bias = trial.classifier
    rng = np.random.default_rng([seed, 47, index])
    combined = np.zeros((samples, trial.num_classes))
    for b, post in zip(trial.betas, trial.source_posteriors):
        mu = post.mu[0]
        std = np.exp(0.5 * post.log_var[0])
        z = mu + std * rng.standard_normal((samples, mu.size))
        combined += b * (z @ weight.T + bias)
    losses = _reference_ce(combined, trial.label)
    return float(np.mean(losses)), float(np.std(losses) / np.sqrt(samples))


def _assert_reference_risk_bits(trial, rep, seed, c, index, samples):
    """``trial`` and its report ``rep`` equal the fresh-array references bit for bit."""
    label, betas, weight, bias, posts, eps, eps_se = _reference_risk_trial(seed, c, index)
    assert trial.label == label
    assert trial.betas.tobytes() == betas.tobytes()
    assert trial.classifier[0].tobytes() == weight.tobytes()
    assert trial.classifier[1].tobytes() == bias.tobytes()
    for post, (mu, log_var) in zip(trial.source_posteriors, posts, strict=True):
        assert post.mu[0].tobytes() == mu.tobytes()
        assert post.log_var[0].tobytes() == log_var.tobytes()
    assert (trial.epsilon, trial.epsilon_se) == (eps, eps_se)
    assert (rep.lhs, rep.detail["lhs_se"]) == _reference_risk_lhs(trial, samples, seed, index)


def _trial_arrays(trial):
    return [trial.betas, *trial.classifier,
            *(a for post in trial.source_posteriors for a in (post.mu, post.log_var))]


class TestRiskBoundBits:
    @pytest.mark.parametrize("c", [2, 3, 7, 8, 9, 16, 129])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_in_place_monte_carlo_matches_fresh_arrays(self, c, seed):
        trial = make_risk_bound_trial(seed, c, index=c)
        rep = verify_risk_bound(trial, samples=1500, seed=seed, index=c)
        _assert_reference_risk_bits(trial, rep, seed, c, c, 1500)

    def test_results_hold_no_reused_buffer(self):
        # every pairing of a class count and a sample count, in an order that
        # makes each call reuse buffers that the call before grew or left
        # larger than it needs
        results = []
        for i, (c, samples) in enumerate(zip([2, 7, 3, 129] * 3, [2, 333, 4000] * 4)):
            trial = make_risk_bound_trial(11, c, index=i)
            rep = verify_risk_bound(trial, samples=samples, seed=11, index=i)
            _assert_reference_risk_bits(trial, rep, 11, c, i, samples)
            buffers = [theory._scratch.z, theory._scratch.scores, theory._scratch.combined]
            assert not any(np.shares_memory(a, b) for a in _trial_arrays(trial) for b in buffers)
            numbers = [rep.lhs, rep.rhs, rep.tolerance,
                       *(v for key, v in rep.detail.items() if key != "num_classes")]
            assert all(type(v) is float for v in numbers)  # no view of a buffer
            results.append((trial, [a.copy() for a in _trial_arrays(trial)],
                            (trial.epsilon, trial.epsilon_se), rep, repr(vars(rep))))
        for trial, arrays, eps, rep, printed in results:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(_trial_arrays(trial), arrays))
            assert (trial.epsilon, trial.epsilon_se) == eps
            assert repr(vars(rep)) == printed

    def test_threads_draw_into_buffers_of_their_own(self):
        # four threads on two cores, switching every microsecond: a buffer
        # shared between threads would mix their draws
        cases = [(c, i) for i in range(6) for c in (2, 7)]

        def run(c, i):
            trial = make_risk_bound_trial(5, c, index=i)
            return repr(vars(verify_risk_bound(trial, samples=700, seed=5, index=i)))

        expected = [run(c, i) for c, i in cases]
        got = [[None] * len(cases) for _ in range(4)]

        def worker(out):
            for j, case in enumerate(cases):
                out[j] = run(*case)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(out,)) for out in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected] * 4


def _reference_mixture_kl(trial):
    """``verify_mixture_kl_bound``'s numbers as a per-component loop, one
    fresh array per expression: (lhs, rhs, tolerance, quadrature error) and
    the mixture density on the grid."""
    betas = np.asarray(trial.betas, dtype=np.float64)
    mus = [float(p.mu[0, 0]) for p in trial.source_posteriors]
    vars_ = [float(np.exp(p.log_var[0, 0])) for p in trial.source_posteriors]
    x = np.linspace(-16.0, 16.0, 8193)
    h = x[1] - x[0]
    q = np.zeros_like(x)
    for b, m, v in zip(betas, mus, vars_):
        q = q + b * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
    log_prior = -0.5 * x * x - 0.5 * np.log(2.0 * np.pi)
    integrand = np.where(q > 0.0, q * (np.log(np.maximum(q, 1e-300)) - log_prior), 0.0)

    def simpson(y, h):
        return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])))

    fine = simpson(integrand, h)
    quad_err = abs(fine - simpson(integrand[::2], 2.0 * h)) / 15.0
    rhs = float(np.sum(betas * [gaussian_kl_to_standard(m, v) for m, v in zip(mus, vars_)]))
    return (fine, rhs, 1e-8 + 16.0 * quad_err, quad_err), q


def _hand_built_kl_trial(betas, mus, sigmas):
    return TheoremTrial(
        betas=np.array(betas),
        norm_bound=1.0,
        num_classes=2,
        label=0,
        source_posteriors=[
            GaussianPosterior(np.array([[m]]), np.array([[2.0 * np.log(s)]]))
            for m, s in zip(mus, sigmas)
        ],
    )


_HAND_BUILT_KL_TRIALS = {
    "one-component": _hand_built_kl_trial([1.0], [1.3], [0.7]),
    "all-prior": _hand_built_kl_trial(make_mixture_kl_trial(seed=2).betas, [0.0] * 3, [1.0] * 3),
    "five-components": _hand_built_kl_trial(
        [0.1, 0.3, 0.2, 0.25, 0.15], [-2.5, -1.0, 0.2, 1.7, 2.9], [0.4, 1.9, 0.8, 1.1, 0.35]
    ),
    # far from +-3 both densities underflow to 0, so the integrand's zeroing runs
    "underflow": _hand_built_kl_trial([0.5, 0.5], [-3.0, 3.0], [0.3, 0.3]),
}


def _numbers(rep):
    return rep.lhs, rep.rhs, rep.tolerance, rep.detail["quadrature_error"]


class TestMixtureKlBits:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_pass_matches_the_per_component_loop(self, seed):
        for i in range(200):
            trial = make_mixture_kl_trial(seed, i)
            expected, _ = _reference_mixture_kl(trial)
            assert _numbers(verify_mixture_kl_bound(trial)) == expected, f"trial {i}"

    @pytest.mark.parametrize("name", list(_HAND_BUILT_KL_TRIALS))
    def test_hand_built_trials_match_the_per_component_loop(self, name):
        trial = _HAND_BUILT_KL_TRIALS[name]
        expected, q = _reference_mixture_kl(trial)
        if name == "underflow":
            assert q[0] == q[-1] == 0.0
        assert _numbers(verify_mixture_kl_bound(trial)) == expected

    @pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (11, 599)])
    def test_trial_posteriors_are_the_public_constructor_s(self, seed, index):
        rng = np.random.default_rng([seed, 41, index])
        rng.uniform(0.05, 1.0, size=3)
        mus = rng.uniform(-3.0, 3.0, size=3)
        sigmas = rng.uniform(0.3, 2.0, size=3)
        posts = make_mixture_kl_trial(seed, index).source_posteriors
        for post, m, s in zip(posts, mus, sigmas, strict=True):
            public = GaussianPosterior(mu=np.array([[m]]), log_var=np.array([[2.0 * np.log(s)]]))
            for got, want in ((post.mu, public.mu), (post.log_var, public.log_var)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                assert got.flags.owndata and got.flags.writeable and want.flags.owndata
        arrays = [a for post in posts for a in (post.mu, post.log_var)]
        for j, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[j + 1:])


class TestLogInequalityFacts:
    def test_log1p_below_identity(self):
        # log(1 + x) <= x on (-1, inf), the elementary fact both bounds use.
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.99, 10.0, 1000)
        assert np.all(np.log1p(x) <= x + 1e-15)

    def test_uniform_score_loss_is_log_num_classes(self):
        # A zero score vector is the worst informative case: its softmax
        # cross-entropy equals log C for every label.
        from lddg.losses import cross_entropy_softmax

        value, _ = cross_entropy_softmax(np.zeros(7), 3)
        np.testing.assert_allclose(value, np.log(7.0), atol=1e-15)
        np.testing.assert_allclose(value, 1.9459, atol=1e-4)


class TestSingularSpectrum:
    def test_matches_svd(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((10, 6))
        full = singular_spectrum(z)
        assert full.shape == (6,)
        assert np.all(np.diff(full) <= 1e-15)
        np.testing.assert_array_equal(full, svd(z).sigma)
