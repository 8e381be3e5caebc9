"""Tests for the numerical verification of the two generalization bounds."""

import numpy as np
import pytest

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


class TestMixtureKlBound:
    def test_trials_satisfy_bound(self):
        for i in range(50):
            trial = make_mixture_kl_trial(seed=0, index=i)
            rep = verify_mixture_kl_bound(trial)
            assert rep.satisfied, f"trial {i}: lhs={rep.lhs} rhs={rep.rhs}"
            assert rep.lhs <= rep.rhs + rep.tolerance

    def test_single_component_is_tight(self):
        # With one source the mixture IS the component, so quadrature must
        # reproduce the closed form: lhs == rhs within tolerance.
        for i in range(10):
            trial = make_mixture_kl_trial(seed=1, index=i, num_sources=1)
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

    @pytest.mark.parametrize("samples", [-1, 0])
    def test_no_samples_rejected(self, samples):
        trial = make_risk_bound_trial(seed=0, num_classes=2)
        with pytest.raises(ValueError, match="samples"):
            verify_risk_bound(trial, samples=samples)

    def test_missing_epsilon_rejected(self):
        trial = make_mixture_kl_trial(seed=4)
        with pytest.raises(ValueError):
            verify_risk_bound(trial)

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
    def test_matches_svd_and_slices(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((10, 6))
        full = singular_spectrum(z)
        assert full.shape == (6,)
        assert np.all(np.diff(full) <= 1e-15)
        np.testing.assert_array_equal(singular_spectrum(z, top_k=3), full[:3])
