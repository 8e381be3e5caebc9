"""Tests for the variational classifier: forward, hand-written backward,
Adam, and checkpointing."""

import copy

import numpy as np
import pytest

from lddg.linalg import finite_diff_grad
from lddg.losses import batch_mean
from lddg.model import (
    _LEAKY_SLOPE,
    AdamState,
    Layer,
    ModelParams,
    TrainConfig,
    _activate,
    _activate_grad,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    total_loss,
)
from lddg.regularizers import kl_standard_normal, nuclear_norm, rank_loss

SMALL = TrainConfig(
    lambda1=0.1,
    lambda2=0.3,
    latent_dim=5,
    encoder_dims=(8,),
    head_hidden_dim=8,
)


def small_setup(seed=0, n=7, input_dim=6, num_classes=3, cfg=SMALL):
    rng = np.random.default_rng(seed)
    params = init_params(input_dim, num_classes, cfg, rng)
    x = rng.standard_normal((n, input_dim))
    labels = rng.integers(0, num_classes, n)
    noise = rng.standard_normal((n, cfg.latent_dim))
    return params, x, labels, noise


def loss_value(params, x, labels, cfg, noise):
    trace = forward(params, x, noise)
    value, _ = total_loss(trace, labels, cfg)
    return value


class TestInitAndForward:
    def test_init_shapes_and_ranges(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig(latent_dim=4, encoder_dims=(10, 6), head_hidden_dim=5)
        params = init_params(7, 3, cfg, rng)
        shapes = [layer.weight.shape for layer in params.layers()]
        assert shapes == [(10, 7), (6, 10), (5, 6), (4, 5), (4, 5), (3, 4)]
        for layer in params.layers():
            fan_in = layer.weight.shape[1]
            assert np.all(np.abs(layer.weight) <= 1.0 / np.sqrt(fan_in))
            np.testing.assert_array_equal(layer.bias, 0.0)

    def test_init_deterministic(self):
        a = init_params(5, 2, SMALL, np.random.default_rng(3))
        b = init_params(5, 2, SMALL, np.random.default_rng(3))
        for pa, pb in zip(a.flat(), b.flat()):
            np.testing.assert_array_equal(pa, pb)

    def test_none_noise_evaluates_at_posterior_mean(self):
        params, x, _, _ = small_setup()
        t0 = forward(params, x)
        t1 = forward(params, x, np.zeros_like(t0.posterior.mu))
        np.testing.assert_array_equal(t0.z, t0.posterior.mu)
        np.testing.assert_array_equal(t0.logits, t1.logits)

    def test_noise_of_another_shape_is_rejected(self):
        params, x, _, _ = small_setup()
        with pytest.raises(ValueError, match="noise shape"):
            forward(params, x, np.ones(SMALL.latent_dim))

    def test_logits_are_affine_in_latent(self):
        params, x, _, noise = small_setup()
        trace = forward(params, x, noise)
        expected = trace.z @ params.classifier.weight.T + params.classifier.bias
        np.testing.assert_array_equal(trace.logits, expected)

    def test_input_validation(self):
        params, _, _, _ = small_setup()
        with pytest.raises(ValueError):
            forward(params, np.zeros(6))
        with pytest.raises(ValueError):
            forward(params, np.full((2, 6), np.nan))


class TestLeakyRelu:
    def test_matches_the_np_where_form_bit_for_bit(self):
        rng = np.random.default_rng(9)
        pre = np.concatenate([
            [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300],
            rng.standard_normal(200) * 10.0,
        ]).reshape(8, 26)
        want = np.where(pre > 0.0, pre, _LEAKY_SLOPE * pre)
        want_grad = np.where(pre > 0.0, 1.0, _LEAKY_SLOPE)
        got = _activate(pre, "leaky_relu")
        got_grad = _activate_grad(pre, "leaky_relu")
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_grad, want_grad)
        # assert_array_equal treats -0.0 == 0.0; the signs must agree too
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        np.testing.assert_array_equal(np.signbit(got_grad), np.signbit(want_grad))
        assert got.dtype == got_grad.dtype == np.float64


class TestTotalLoss:
    def test_decomposition_is_exact(self):
        params, x, labels, noise = small_setup()
        trace = forward(params, x, noise)
        value, parts = total_loss(trace, labels, SMALL)
        assert value == parts["total"]
        assert parts["total"] == (
            parts["cls"] + SMALL.lambda1 * parts["rank"] + SMALL.lambda2 * parts["kl"]
        )

    def test_parts_match_component_modules(self):
        params, x, labels, noise = small_setup()
        trace = forward(params, x, noise)
        _, parts = total_loss(trace, labels, SMALL)
        cls_value, _ = batch_mean(trace.logits, labels)
        kl_value, _, _ = kl_standard_normal(trace.posterior)
        assert parts["cls"] == cls_value
        assert parts["kl"] == kl_value
        assert parts["rank"] == rank_loss(trace.z, 3).value

    def test_rank_target_overrides_class_count(self):
        params, x, labels, noise = small_setup()
        cfg = TrainConfig(
            lambda1=0.1, lambda2=0.3, latent_dim=5, encoder_dims=(8,),
            head_hidden_dim=8, rank_target=2,
        )
        trace = forward(params, x, noise)
        _, parts = total_loss(trace, labels, cfg)
        assert parts["rank"] == rank_loss(trace.z, 2).value

    def test_nuclear_regularizer(self):
        params, x, labels, noise = small_setup()
        cfg = TrainConfig(
            lambda1=0.1, lambda2=0.3, latent_dim=5, encoder_dims=(8,),
            head_hidden_dim=8, regularizer="nuclear",
        )
        trace = forward(params, x, noise)
        _, parts = total_loss(trace, labels, cfg)
        assert parts["rank"] == nuclear_norm(trace.z).value


class TestBackward:
    @pytest.mark.parametrize("lam1,lam2", [(0.0, 0.0), (0.1, 0.3), (0.4, 0.001)])
    def test_gradients_match_finite_differences(self, lam1, lam2):
        cfg = TrainConfig(
            lambda1=lam1, lambda2=lam2, latent_dim=5, encoder_dims=(8,),
            head_hidden_dim=8,
        )
        params, x, labels, noise = small_setup(seed=4, cfg=cfg)
        trace = forward(params, x, noise)
        total_loss(trace, labels, cfg)
        grads = backward(params, trace, labels, cfg)
        for p_arr, g_arr in zip(params.flat(), grads.flat()):
            def f(arr, target=p_arr):
                saved = target.copy()
                target[...] = arr
                try:
                    return loss_value(params, x, labels, cfg, noise)
                finally:
                    target[...] = saved

            fd = finite_diff_grad(f, p_arr, h=1e-6)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(g_arr - fd) / denom < 1e-5

    def test_gradient_shapes_mirror_parameters(self):
        params, x, labels, noise = small_setup()
        trace = forward(params, x, noise)
        grads = backward(params, trace, labels, SMALL)
        for p_arr, g_arr in zip(params.flat(), grads.flat()):
            assert p_arr.shape == g_arr.shape

    def test_cached_loss_gradients_follow_labels_and_config(self):
        # the gradients total_loss caches are only reused for the labels and
        # config objects they came from
        params, x, labels, noise = small_setup(n=12)
        other = TrainConfig(
            lambda1=0.1, lambda2=0.3, latent_dim=5, encoder_dims=(8,),
            head_hidden_dim=8, regularizer="nuclear",
        )
        flipped = (labels + 1) % 3
        for cfg, y in ((other, labels), (SMALL, flipped)):
            trace = forward(params, x, noise)
            total_loss(trace, labels, SMALL)
            stale = backward(params, trace, y, cfg)
            fresh = backward(params, forward(params, x, noise), y, cfg)
            for a, b in zip(stale.flat(), fresh.flat()):
                np.testing.assert_array_equal(a, b)

    def test_clamped_log_var_gets_zero_gradient(self):
        params, x, labels, noise = small_setup()
        params.head_log_var.bias[:] = 40.0  # raw log-var far above the clamp
        trace = forward(params, x, noise)
        total_loss(trace, labels, SMALL)
        grads = backward(params, trace, labels, SMALL)
        np.testing.assert_array_equal(grads.head_log_var.weight, 0.0)
        np.testing.assert_array_equal(grads.head_log_var.bias, 0.0)


class TestAdam:
    def test_first_step_oracle(self):
        # With bias correction at t=1, m_hat = g and v_hat = g^2, so the step
        # is -lr * g / (|g| + eps) after the decoupled decay on weights.
        params = ModelParams(
            encoder=[Layer(np.array([[2.0, -1.0]]), np.array([0.5]), "leaky_relu")],
            head_hidden=Layer(np.eye(1), np.zeros(1), "relu"),
            head_mu=Layer(np.eye(1), np.zeros(1)),
            head_log_var=Layer(np.eye(1), np.zeros(1)),
            classifier=Layer(np.eye(1), np.zeros(1)),
        )
        grads = copy.deepcopy(params)
        for arr in grads.flat():
            arr[...] = 1.0
        expected = []
        lr, wd, eps = 0.01, 0.1, 1e-8
        for arr in params.flat():
            decayed = arr * (1.0 - lr * wd) if arr.ndim == 2 else arr.copy()
            expected.append(decayed - lr * 1.0 / (1.0 + eps))
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=lr, weight_decay=wd)
        for arr, want in zip(params.flat(), expected):
            np.testing.assert_allclose(arr, want, atol=1e-12)
        assert state.t == 1

    def test_matches_reference_implementation_over_steps(self):
        rng = np.random.default_rng(6)
        params, x, labels, noise = small_setup(seed=7)
        reference = [a.copy() for a in params.flat()]
        m = [np.zeros_like(a) for a in reference]
        v = [np.zeros_like(a) for a in reference]
        state = AdamState.for_params(params)
        lr, wd, b1, b2, eps = 3e-3, 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            gs = [rng.standard_normal(a.shape) for a in reference]
            grads = copy.deepcopy(params)
            for arr, g in zip(grads.flat(), gs):
                arr[...] = g
            adam_step(params, grads, state, lr=lr, weight_decay=wd)
            for i, g in enumerate(gs):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                if reference[i].ndim == 2:
                    reference[i] *= 1.0 - lr * wd
                reference[i] -= (
                    lr * (m[i] / (1 - b1**t)) / (np.sqrt(v[i] / (1 - b2**t)) + eps)
                )
            for arr, want in zip(params.flat(), reference):
                np.testing.assert_allclose(arr, want, atol=1e-12)

    def test_biases_never_decayed(self):
        params, _, _, _ = small_setup()
        params.head_mu.bias[:] = 1.0
        before_w = params.head_mu.weight.copy()
        grads = copy.deepcopy(params)
        for arr in grads.flat():
            arr[...] = 0.0
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.1, weight_decay=0.5)
        np.testing.assert_array_equal(params.head_mu.bias, 1.0)
        np.testing.assert_allclose(
            params.head_mu.weight, before_w * (1.0 - 0.1 * 0.5), atol=1e-15
        )


    def test_params_not_backed_by_the_state_are_rejected(self):
        params, _, _, _ = small_setup()
        state = AdamState.for_params(params)
        grads = copy.deepcopy(params)
        with pytest.raises(ValueError, match="not backed"):
            adam_step(copy.deepcopy(params), grads, state, lr=0.1)
        params.classifier.bias = params.classifier.bias.copy()
        with pytest.raises(ValueError, match="not backed"):
            adam_step(params, grads, state, lr=0.1)
        assert state.t == 0

    def test_layers_are_views_of_one_vector(self):
        params, _, _, _ = small_setup()
        before = [a.copy() for a in params.flat()]
        state = AdamState.for_params(params)
        for a, want in zip(params.flat(), before):
            assert a.base is state.vector
            np.testing.assert_array_equal(a, want)
        n_w = sum(layer.weight.size for layer in params.layers())
        assert state.n_weights == n_w
        np.testing.assert_array_equal(
            state.vector[:n_w],
            np.concatenate([layer.weight.ravel() for layer in params.layers()]),
        )


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        params, _, _, _ = small_setup(seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        for a, b in zip(params.flat(), loaded.flat()):
            np.testing.assert_array_equal(a, b)
        for la, lb in zip(params.layers(), loaded.layers()):
            assert la.activation == lb.activation
        assert len(loaded.encoder) == len(params.encoder)

    def test_truncated_file_rejected(self, tmp_path):
        params, _, _, _ = small_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "weird.ckpt"
        path.write_bytes(b"NOT-A-MODEL 1\nDATA\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_missing_data_marker_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"LDDG-MODEL 1\n2\n")
        with pytest.raises(ValueError, match="DATA"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        params, _, _, _ = small_setup()
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, params)
        blob = good.read_bytes().replace(b"LDDG-MODEL 1", b"LDDG-MODEL 9", 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(bad)


    @pytest.mark.parametrize(
        "header, message",
        [
            (b"LDDG-MODEL 1\n", "line 2: bad header line ''"),
            (b"LDDG-MODEL\n", "line 1: bad header line 'LDDG-MODEL': expected 2 fields"),
            (b"LDDG-MODEL one\n5\n", "line 1: .*invalid literal"),
            (b"LDDG-MODEL 1\nfive\n", "line 2: .*invalid literal"),
            (b"LDDG-MODEL 1\n5\nlinear 3\n", "line 3: bad header line 'linear 3': expected 3"),
            (b"LDDG-MODEL 1\n5\n" + b"linear 0 2\n" * 5, "line 3: .*must be >= 1"),
        ],
    )
    def test_defective_header_names_the_line(self, tmp_path, header, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + b"DATA\n")
        with pytest.raises(ValueError, match=f"bad.ckpt: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "layer, shape, message",
        [
            ("head_hidden", (4, 16), "head_hidden takes 16 inputs, but encoder"),
            ("head_log_var", (8, 5), "head_log_var has shape"),
            ("classifier", (5, 3), "classifier takes 3 inputs"),
        ],
    )
    def test_broken_layer_chain_rejected(self, tmp_path, layer, shape, message):
        params, _, _, _ = small_setup()
        bad = getattr(params, layer)
        bad.weight = bad.weight.reshape(shape)
        bad.bias = np.zeros(shape[0])
        path = tmp_path / "chain.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)


class TestTrainConfig:
    def test_rejects_bad_enumerations(self):
        with pytest.raises(ValueError):
            TrainConfig(regularizer="l2")
        with pytest.raises(ValueError):
            TrainConfig(lambda1=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(rank_target=0)

    def test_rejects_epochs_below_one(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda1", "0.1"), ("epochs", 2.5), ("seed", True), ("rank_target", "3"),
            ("encoder_dims", 32), ("encoder_dims", [8]), ("encoder_dims", (8, True)),
            ("log_singular_values", "false"), ("log_singular_values", 1),
            # widths below 1 and an encoder without layers build no usable model
            ("encoder_dims", ()), ("encoder_dims", (8, 0)), ("head_hidden_dim", 0),
            ("latent_dim", 0), ("lr_decay_every", 0), ("batch_per_domain", 0),
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})
