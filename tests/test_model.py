"""Tests for the variational classifier: forward, hand-written backward,
Adam, and checkpointing."""

import copy
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from lddg.linalg import finite_diff_grad
from lddg.losses import batch_mean
from lddg.model import (
    _LEAKY_SLOPE,
    Layer,
    ModelParams,
    TrainConfig,
    _activate,
    _activate_grad,
    _flat_vector,
    _member,
    _stack,
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

    def test_overflowing_head_outputs_are_rejected(self):
        params, x, _, noise = small_setup()
        params.head_mu.weight *= 1e300
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="matrix contains non-finite entries"
        ):
            forward(params, x * 1e300, noise)


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
        got_grad = _activate_grad(np.ones_like(pre), pre, "leaky_relu", np.empty_like(pre))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_grad, want_grad)
        # the gradient scales d_act in place, as d_act * want_grad would
        d_act = rng.standard_normal(pre.shape)
        scaled = d_act.copy()
        assert _activate_grad(scaled, pre, "leaky_relu", np.empty_like(pre)) is scaled
        np.testing.assert_array_equal(scaled, d_act * want_grad)
        np.testing.assert_array_equal(np.signbit(scaled), np.signbit(d_act * want_grad))
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

    @pytest.mark.parametrize("regularizer", ["rank", "nuclear"])
    def test_unweighted_penalty_is_not_computed(self, regularizer):
        cfg = TrainConfig(
            lambda1=0.0, lambda2=0.3, latent_dim=5, encoder_dims=(8,),
            head_hidden_dim=8, regularizer=regularizer,
        )
        params, x, labels, noise = small_setup(cfg=cfg)
        trace = forward(params, x, noise)
        value, parts = total_loss(trace, labels, cfg)
        assert parts["rank"] is None
        assert trace.rank_sub is None and trace.sigma is None
        assert value == parts["total"] == parts["cls"] + cfg.lambda2 * parts["kl"]
        # the same bits as the weighted form's cls + 0.0 * rank + lambda2 * kl
        weighted = forward(params, x, noise)
        _, with_rank = total_loss(weighted, labels, SMALL)
        assert value == (with_rank["cls"] + 0.0 * with_rank["rank"]
                         + cfg.lambda2 * with_rank["kl"])
        # backpropagating 0.0 times the penalty's subgradient changes no bit
        grads = backward(params, trace, labels, cfg)
        padded = forward(params, x, noise)
        total_loss(padded, labels, cfg)
        penalty = rank_loss(padded.z, 3) if regularizer == "rank" else nuclear_norm(padded.z)
        padded.rank_sub = penalty.subgradient
        for a, b in zip(grads.flat(), backward(params, padded, labels, cfg).flat()):
            assert a.tobytes() == b.tobytes()


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

    def test_linear_trunk_layer_gradients_match_finite_differences(self):
        # init_params builds no linear trunk layer; a hand-built model does
        params, x, labels, noise = small_setup(seed=5)
        first = params.encoder[0]
        params = ModelParams([Layer(first.weight, first.bias, "linear")], params.head_hidden,
                             params.head_mu, params.head_log_var, params.classifier)
        trace = forward(params, x, noise)
        total_loss(trace, labels, SMALL)
        grads = backward(params, trace, labels, SMALL)
        for p_arr, g_arr in zip(params.flat(), grads.flat()):
            def f(arr, target=p_arr):
                saved = target.copy()
                target[...] = arr
                try:
                    return loss_value(params, x, labels, SMALL, noise)
                finally:
                    target[...] = saved

            fd = finite_diff_grad(f, p_arr, h=1e-6)
            assert np.linalg.norm(g_arr - fd) / max(np.linalg.norm(fd), 1e-8) < 1e-5

    def test_gradient_shapes_mirror_parameters(self):
        params, x, labels, noise = small_setup()
        trace = forward(params, x, noise)
        total_loss(trace, labels, SMALL)
        grads = backward(params, trace, labels, SMALL)
        for p_arr, g_arr in zip(params.flat(), grads.flat()):
            assert p_arr.shape == g_arr.shape

    @pytest.mark.parametrize("case", ["fresh trace", "other labels", "other cfg", "list labels"])
    def test_backward_reads_what_total_loss_stored(self, case):
        # backward backpropagates what total_loss stored for the same labels
        # and cfg objects; a trace without it, or with it for others, raises
        params, x, labels, noise = small_setup(n=12)
        y = labels.tolist() if case == "list labels" else labels
        trace = forward(params, x, noise)
        if case != "fresh trace":
            total_loss(trace, y, SMALL)
        if case == "list labels":
            reference = forward(params, x, noise)
            total_loss(reference, labels, SMALL)
            expected = backward(params, reference, labels, SMALL)
            for a, b in zip(backward(params, trace, y, SMALL).flat(), expected.flat()):
                assert a.tobytes() == b.tobytes()
            return
        if case == "other labels":
            y = (labels + 1) % 3
        cfg = copy.copy(SMALL) if case == "other cfg" else SMALL
        with pytest.raises(ValueError, match="total_loss"):
            backward(params, trace, y, cfg)

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
        lone = ModelParams(
            encoder=[Layer(np.array([[2.0, -1.0]]), np.array([0.5]), "leaky_relu")],
            head_hidden=Layer(np.eye(1), np.zeros(1), "relu"),
            head_mu=Layer(np.eye(1), np.zeros(1)),
            head_log_var=Layer(np.eye(1), np.zeros(1)),
            classifier=Layer(np.eye(1), np.zeros(1)),
        )
        params = _stack([lone], 1)
        grads = params.buffers.grads
        grads.vector[...] = 1.0
        expected = []
        lr, wd, eps = 0.01, 0.1, 1e-8
        for arr in lone.flat():
            decayed = arr * (1.0 - lr * wd) if arr.ndim == 2 else arr.copy()
            expected.append(decayed - lr * 1.0 / (1.0 + eps))
        adam_step(params, grads, lr=lr, weight_decay=wd)
        for arr, want in zip(_member(params, 0).flat(), expected):
            np.testing.assert_allclose(arr, want, atol=1e-12)
        assert params.t == 1

    def test_matches_reference_implementation_over_steps(self):
        # two members, each with gradients of its own; only weights decay
        rng = np.random.default_rng(6)
        members = [small_setup(seed=seed)[0] for seed in (7, 8)]
        params = _stack(members, 7)
        reference = [[a.copy() for a in p.flat()] for p in members]
        m = [[np.zeros_like(a) for a in ref] for ref in reference]
        v = [[np.zeros_like(a) for a in ref] for ref in reference]
        lr, wd, b1, b2, eps = 3e-3, 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            gs = [[rng.standard_normal(a.shape) for a in ref] for ref in reference]
            grads = params.buffers.grads
            for k, arrays in enumerate(gs):
                for arr, g in zip(_member(grads, k).flat(), arrays):
                    arr[...] = g
            adam_step(params, grads, lr=lr, weight_decay=wd)
            for k, ref in enumerate(reference):
                for i, g in enumerate(gs[k]):
                    m[k][i] = b1 * m[k][i] + (1 - b1) * g
                    v[k][i] = b2 * v[k][i] + (1 - b2) * g * g
                    if ref[i].ndim == 2:
                        ref[i] *= 1.0 - lr * wd
                    ref[i] -= lr * (m[k][i] / (1 - b1**t)) / (np.sqrt(v[k][i] / (1 - b2**t)) + eps)
                for arr, want in zip(_member(params, k).flat(), ref):
                    np.testing.assert_allclose(arr, want, atol=1e-12)
        assert params.t == 3

    def test_biases_never_decayed(self):
        lone, _, _, _ = small_setup()
        lone.head_mu.bias[:] = 1.0
        params = _stack([lone], 7)
        grads = params.buffers.grads
        grads.vector[...] = 0.0
        adam_step(params, grads, lr=0.1, weight_decay=0.5)
        np.testing.assert_array_equal(params.head_mu.bias, 1.0)
        np.testing.assert_allclose(
            params.head_mu.weight[0], lone.head_mu.weight * (1.0 - 0.1 * 0.5), atol=1e-15
        )

    def test_lone_params_are_rejected(self):
        params, _, _, _ = small_setup()
        before = [a.copy() for a in params.flat()]
        with pytest.raises(ValueError, match="stacked group"):
            adam_step(params, copy.deepcopy(params), lr=0.1)
        for arr, want in zip(params.flat(), before):
            np.testing.assert_array_equal(arr, want)

    def test_layers_are_views_of_one_vector(self):
        members = [small_setup(seed=seed)[0] for seed in (0, 1)]
        params = _stack(members, 7)
        for a in params.flat():
            assert a.base is params.vector
        for k, member in enumerate(members):
            for a, want in zip(_member(params, k).flat(), member.flat()):
                np.testing.assert_array_equal(a, want)
        np.testing.assert_array_equal(
            params.vector, [np.concatenate([a.ravel() for a in p.flat()]) for p in members])
        for moment in (params.m, params.v):
            assert moment.shape == params.vector.shape
            assert not moment.any()
        assert params.t == 0


class TestStackedSteps:
    """Members stacked by ``_stack`` step in the group's buffers, each as it
    would alone (its update as in a group of one); trunk widths 12 and 8
    view the gradients' two alternating arrays at both widths."""

    CFGS = [replace(SMALL, encoder_dims=(12,)),
            replace(SMALL, encoder_dims=(12,), lambda1=0.05, lambda2=0.0, regularizer="nuclear")]

    def _group(self):
        members = [init_params(6, 3, cfg, np.random.default_rng(seed))
                   for seed, cfg in enumerate(self.CFGS)]
        return members, _stack(members, 48)

    @staticmethod
    def _batch(rng, n):
        return (rng.standard_normal((2, n, 6)), rng.standard_normal((2, n, 5)),
                rng.integers(0, 3, (2, n)))

    def test_steps_of_48_24_and_48_rows_match_lone_calls_in_one_set_of_buffers(self):
        members, params = self._group()
        lone = [_stack([p], 48) for p in members]
        buffers, rng = params.buffers, np.random.default_rng(3)
        for step, n in enumerate((48, 24, 48)):
            x, noise, labels = self._batch(rng, n)
            trace = forward(params, x, noise)
            assert np.shares_memory(trace.logits, buffers["logits"])
            value, parts = total_loss(trace, labels, self.CFGS)
            grads = backward(params, trace, labels, self.CFGS)
            for m, (cfg, y) in enumerate(zip(self.CFGS, labels)):
                one = _member(lone[m], 0)
                alone = forward(one, x[m], noise[m])
                alone_value, alone_parts = total_loss(alone, y, cfg)
                alone_grads = backward(one, alone, y, cfg)
                assert trace.logits[m].tobytes() == alone.logits.tobytes()
                assert (value[m], parts["cls"][m], parts["kl"][m]) == (
                    alone_value, alone_parts["cls"], alone_parts["kl"])
                assert [a.tobytes() for a in _member(grads, m).flat()] == [
                    a.tobytes() for a in alone_grads.flat()]
                group_grads = lone[m].buffers.grads
                group_grads.vector[0] = _flat_vector(alone_grads)
                adam_step(lone[m], group_grads, 1e-2, cfg.weight_decay)
            adam_step(params, grads, 1e-2, SMALL.weight_decay)
            for m in range(2):
                assert params.vector[m].tobytes() == lone[m].vector[0].tobytes()
            arrays = {**buffers, "grads": buffers.grads.vector, "scratch": buffers.scratch}
            if step == 0:
                first = arrays
        assert arrays.keys() == first.keys()
        assert all(arrays[name] is first[name] for name in first)

    def test_a_group_s_buffers_are_freed_by_reference_counting(self):
        _, params = self._group()
        x, noise, labels = self._batch(np.random.default_rng(0), 48)
        gc.disable()
        try:
            buffers = weakref.ref(params.buffers)
            trace = forward(params, x, noise)
            total_loss(trace, labels, self.CFGS)
            grads = backward(params, trace, labels, self.CFGS)
            adam_step(params, grads, 1e-2)
            assert buffers() is not None
            del params, trace, grads
            assert buffers() is None
        finally:
            gc.enable()


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

    def test_loaded_layers_view_one_vector_holding_the_data_section(self, tmp_path):
        params, _, _, _ = small_setup(seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        vector = loaded.encoder[0].weight.base
        assert vector is not None and vector.ndim == 1
        for a in loaded.flat():
            assert a.base is vector and a.flags.writeable
        data = path.read_bytes().partition(b"DATA\n")[2]
        assert vector.astype("<f8").tobytes() == data

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
            (b"LDDG-MODEL \xff1\n5\n", r"line 1: bad header line 'LDDG-MODEL \\\\xff1': 'utf-8'"),
            (b"LDDG-MODEL 1\n5\n" + b"foo 4 4\n" + b"linear 4 4\n" * 4,
             "line 3: bad header line 'foo 4 4': unknown activation 'foo'"),
            (b"LDDG-MODEL 1\n4\n" + b"linear 4 4\n" * 4, "checkpoint needs >= 5 layers, found 4"),
            # a header that declares more layers than it lists misses a line
            (b"LDDG-MODEL 1\n6\n" + b"linear 4 4\n" * 5, "line 8: bad header line ''"),
            (b"LDDG-MODEL 1\n5\n" + b"linear 4 4\n" * 6, "header declares 5 layers, found 6"),
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
            ("head_hidden", (4, 16), "line 4: layer 'relu 4 16' does not fit the model, "
                                     "expected 'relu 4 8'"),
            ("head_log_var", (8, 5), "line 6: layer 'linear 8 5' does not fit the model, "
                                     "expected 'linear 5 8'"),
            ("classifier", (5, 3), "line 7: layer 'linear 5 3' does not fit the model, "
                                   "expected 'linear 5 5'"),
        ],
        ids=["head_hidden", "head_log_var", "classifier"],
    )
    def test_broken_layer_chain_rejected(self, tmp_path, layer, shape, message):
        params, _, _, _ = small_setup()
        bad = getattr(params, layer)
        bad.weight = bad.weight.reshape(shape)
        bad.bias = np.zeros(shape[0])
        path = tmp_path / "chain.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(ValueError, match=f"chain.ckpt: {message}"):
            load_checkpoint(path)

    # SMALL's header lines 3-7: encoder[0], head_hidden, head_mu, head_log_var,
    # classifier; each retag is a known activation on a line that never has it
    @pytest.mark.parametrize(
        "number, line",
        [(3, b"linear 8 6"), (4, b"leaky_relu 8 8"), (5, b"relu 5 8"),
         (6, b"leaky_relu 5 8"), (7, b"relu 3 5")],
        ids=["encoder", "head_hidden", "head_mu", "head_log_var", "classifier"],
    )
    def test_retagged_layer_rejected(self, tmp_path, number, line):
        params, _, _, _ = small_setup()
        path = tmp_path / "retag.ckpt"
        save_checkpoint(path, params)
        head, _, data = path.read_bytes().partition(b"DATA\n")
        lines = head.splitlines()
        assert lines[number - 1].split()[1:] == line.split()[1:]
        lines[number - 1] = line
        path.write_bytes(b"\n".join(lines) + b"\nDATA\n" + data)
        with pytest.raises(ValueError, match=f"retag.ckpt: line {number}: layer {line.decode()!r}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        params, _, _, _ = small_setup()
        params.classifier.bias[1] = value
        path = tmp_path / "inf.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(ValueError, match="inf.ckpt: parameters hold non-finite"):
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

    def test_rejects_lr_decay_beyond_float_range(self):
        # the last epoch divides the learning rate by 10 ** ((epochs - 1) // lr_decay_every)
        TrainConfig(epochs=309, lr_decay_every=1)
        with pytest.raises(ValueError, match="lr_decay_every"):
            TrainConfig(epochs=310, lr_decay_every=1)
        with pytest.raises(ValueError, match="lr_decay_every"):
            TrainConfig(epochs=320 * 309 + 1, lr_decay_every=320)

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
            ("seed", -1),
            # NaN and inf pass every range check, so the type check rejects them
            ("weight_decay", float("nan")), ("lambda1", float("inf")),
            ("learning_rate", float("nan")),
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})
