"""Tests for the training harness, evaluation, and the study harnesses."""

import contextlib
import itertools
import logging
import os
import pickle
import signal
import threading
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import lddg.experiments
import lddg.linalg
import lddg.model
import lddg.regularizers
import lddg.theory
from lddg.data import DomainDataset, SyntheticConfig, generate_synthetic, sample_batches
from lddg.experiments import (
    _LR_DECAY_FACTOR,
    ABLATION_CELLS,
    ablate_components,
    evaluate,
    sweep_rank,
    train,
)
from lddg.model import TrainConfig, forward

TINY_DATA = SyntheticConfig(
    num_domains=2,
    num_classes=2,
    feature_dim=8,
    latent_dim_true=4,
    samples_per_domain_class=8,
    target_samples_per_class=10,
    domain_scales=(1.0, 1.2),
    target_mixture=(0.6, 0.4),
)

TINY_TRAIN = TrainConfig(
    epochs=3,
    batch_per_domain=4,
    latent_dim=6,
    encoder_dims=(8,),
    head_hidden_dim=8,
    lr_decay_every=2,
)


@pytest.fixture(scope="module")
def tiny():
    sources, target = generate_synthetic(TINY_DATA)
    return sources, target


class TestTrain:
    def test_epoch_records_and_lr_schedule(self, tiny):
        sources, _ = tiny
        params, result = train(TINY_TRAIN, sources)
        assert len(result.epochs) == 3
        assert [r.epoch for r in result.epochs] == [0, 1, 2]
        lr0 = TINY_TRAIN.learning_rate
        expected_lr = [lr0, lr0, lr0 / _LR_DECAY_FACTOR]
        np.testing.assert_allclose([r.lr for r in result.epochs], expected_lr)
        assert result.wall_time_s > 0.0
        assert [f.name for f in fields(result)] == ["config", "epochs", "wall_time_s"]
        assert result.config == asdict(TINY_TRAIN)

    def test_record_totals_decompose(self, tiny):
        sources, _ = tiny
        cfg = TINY_TRAIN
        _, result = train(cfg, sources)
        for rec in result.epochs:
            np.testing.assert_allclose(
                rec.total,
                rec.cls + cfg.lambda1 * rec.rank + cfg.lambda2 * rec.kl,
                atol=1e-12,
            )

    def test_deterministic_under_seed(self, tiny):
        sources, _ = tiny
        p1, r1 = train(TINY_TRAIN, sources)
        p2, r2 = train(TINY_TRAIN, sources)
        for a, b in zip(p1.flat(), p2.flat()):
            np.testing.assert_array_equal(a, b)
        for ra, rb in zip(r1.epochs, r2.epochs):
            assert asdict(ra) == asdict(rb)

    def test_seed_changes_trajectory(self, tiny):
        sources, _ = tiny
        _, r1 = train(TINY_TRAIN, sources)
        _, r2 = train(replace(TINY_TRAIN, seed=1), sources)
        assert r1.epochs[-1].total != r2.epochs[-1].total

    def test_singular_values_logged_on_request(self, tiny):
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, log_singular_values=True)
        _, result = train(cfg, sources)
        for rec in result.epochs:
            sv = rec.singular_values
            assert sv is not None
            assert len(sv) <= 8
            assert all(a >= b - 1e-12 for a, b in zip(sv, sv[1:]))
        _, plain = train(TINY_TRAIN, sources)
        assert all(rec.singular_values is None for rec in plain.epochs)

    def test_inert_penalty_warns_once_per_run(self, caplog):
        # default data, one row per domain: every 3-row batch is inert at C = 4
        sources, _ = generate_synthetic(SyntheticConfig())
        with caplog.at_level(logging.WARNING):
            train(TrainConfig(epochs=5, batch_per_domain=1), sources)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "epoch 0, batch 0" in message and "(3, 16)" in message

    @pytest.mark.parametrize("regularizer", ["rank", "nuclear"])
    def test_unweighted_penalty_is_not_computed(self, tiny, regularizer):
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, lambda1=0.0, regularizer=regularizer)
        _, result = train(cfg, sources)
        for rec in result.epochs:
            assert rec.rank is None
            np.testing.assert_allclose(rec.total, rec.cls + cfg.lambda2 * rec.kl, atol=1e-12)

    def test_unweighted_inert_penalty_does_not_warn(self, caplog):
        # the batches of test_inert_penalty_warns_once_per_run, at lambda1 = 0
        sources, _ = generate_synthetic(SyntheticConfig())
        with caplog.at_level(logging.WARNING):
            train(TrainConfig(epochs=2, batch_per_domain=1, lambda1=0.0), sources)
        assert not caplog.records

    def test_non_finite_loss_aborts_with_location(self, tiny):
        sources, _ = tiny
        huge = DomainDataset(
            num_domains=sources.num_domains,
            num_classes=sources.num_classes,
            feature_dim=sources.feature_dim,
            features=sources.features * 1e160,
            labels=sources.labels,
            domain_ids=sources.domain_ids,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match="epoch 0"
        ):
            train(replace(TINY_TRAIN, epochs=1), huge)

    def test_diverging_run_names_epoch_and_batch(self, tiny):
        # Adam's first step at this rate makes the next batch's activations
        # non-finite, before any loss is taken of them
        sources, _ = tiny
        with pytest.warns(RuntimeWarning), pytest.raises(
            RuntimeError, match=r"^training diverged at epoch 0, batch 1: "
        ):
            train(replace(TINY_TRAIN, learning_rate=1e200), sources)


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestCallsPerStep:
    def test_each_loss_term_runs_once_per_step(self, tiny, monkeypatch):
        sources, _ = tiny
        counts = {}
        for name in ("batch_mean", "kl_standard_normal", "rank_loss"):
            _count_calls(monkeypatch, lddg.model, name, counts)
        _count_calls(monkeypatch, lddg.experiments, "adam_step", counts)
        _count_calls(monkeypatch, lddg.experiments, "evaluate", counts)
        train(TINY_TRAIN, sources)
        steps = counts["adam_step"]
        assert steps == TINY_TRAIN.epochs * 4  # 16 rows per domain, 4 per batch
        assert counts["batch_mean"] == steps
        assert counts["kl_standard_normal"] == steps
        assert counts["rank_loss"] == steps
        assert "evaluate" not in counts

    def test_one_svd_per_step_when_logging_the_spectrum(self, tiny, monkeypatch):
        # the epoch's spectrum is read off the penalty's SVD of the last batch
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, log_singular_values=True)
        counts = {}
        for module in (lddg.linalg, lddg.regularizers, lddg.theory):
            _count_calls(monkeypatch, module, "svd", counts)
        _count_calls(monkeypatch, lddg.model, "rank_loss", counts)
        _count_calls(monkeypatch, lddg.experiments, "adam_step", counts)
        _, result = train(cfg, sources)
        steps = counts["adam_step"]
        assert steps == cfg.epochs * 4
        assert counts["svd"] == steps
        assert counts["rank_loss"] == steps
        assert all(len(rec.singular_values) == 6 for rec in result.epochs)

    @pytest.mark.parametrize("regularizer", ["rank", "nuclear"])
    @pytest.mark.parametrize("log_spectrum", [False, True])
    def test_no_penalty_svd_when_lambda1_is_zero(self, tiny, monkeypatch, regularizer,
                                                 log_spectrum):
        # at lambda1 = 0 the penalty is not computed; the spectrum, when
        # logged, costs one SVD of each epoch's last latent batch
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, lambda1=0.0, regularizer=regularizer,
                      log_singular_values=log_spectrum)
        counts = {}
        for module in (lddg.linalg, lddg.regularizers, lddg.theory, lddg.experiments):
            _count_calls(monkeypatch, module, "svd", counts)
        for name in ("rank_loss", "nuclear_norm"):
            _count_calls(monkeypatch, lddg.model, name, counts)
        _count_calls(monkeypatch, lddg.experiments, "adam_step", counts)
        _, result = train(cfg, sources)
        assert counts.pop("adam_step") == cfg.epochs * 4
        assert counts == ({"svd": cfg.epochs} if log_spectrum else {})
        assert all((rec.singular_values is not None) == log_spectrum for rec in result.epochs)

    @pytest.mark.parametrize("lambda1", [0.0, 0.01])
    def test_spectrum_is_the_last_svd_of_each_epoch(self, tiny, monkeypatch, lambda1):
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, lambda1=lambda1, log_singular_values=True)
        calls = []
        original = lddg.linalg.svd

        def spy(z):
            res = original(z)
            calls.append(res.sigma.copy())
            return res

        for module in (lddg.linalg, lddg.regularizers, lddg.experiments):
            monkeypatch.setattr(module, "svd", spy)
        _, result = train(cfg, sources)
        per_epoch = len(calls) // cfg.epochs
        assert per_epoch == (4 if lambda1 else 1)
        for rec, sigma in zip(result.epochs, calls[per_epoch - 1::per_epoch]):
            assert rec.singular_values == [float(s) for s in sigma]

    @pytest.mark.parametrize("lambda1", [0.0, 0.5])
    def test_spectrum_is_that_of_the_last_batch(self, tiny, monkeypatch, lambda1):
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, lambda1=lambda1, log_singular_values=True)
        latents = []
        original = lddg.experiments.forward

        def recording(params, x, noise=None):
            trace = original(params, x, noise)
            latents.append(trace.z[0].copy())  # the one member's latent batch
            return trace

        monkeypatch.setattr(lddg.experiments, "forward", recording)
        _, result = train(cfg, sources)
        assert len(latents) == cfg.epochs * 4
        for rec, z in zip(result.epochs, latents[3::4]):
            assert rec.singular_values == [float(s) for s in lddg.linalg.svd(z).sigma]

    def test_inert_penalty_still_records_the_spectrum(self, tiny):
        # one row per domain: 2-row batches never exceed rank C = 2
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, batch_per_domain=1, log_singular_values=True)
        _, result = train(cfg, sources)
        for rec in result.epochs:
            assert rec.rank == 0.0
            sv = rec.singular_values
            assert len(sv) == 2 and sv[0] >= sv[1] > 0.0

    def test_study_scores_each_member_once(self, tiny, monkeypatch, tmp_path):
        sources, target = tiny
        counts = {}
        _count_calls(monkeypatch, lddg.experiments, "evaluate", counts)
        calls = _record_trains(monkeypatch, tmp_path)
        ablate_components(
            replace(TINY_TRAIN, epochs=1), sources, target, seeds=(0, 1),
            cells=("none", "rank+kl"),
        )
        assert counts["evaluate"] == len(_trained_configs(calls)) == 4
        counts.clear()
        sweep_rank(replace(TINY_TRAIN, epochs=1), sources, target, ranks=(1, 2, 3), seeds=(0,))
        assert counts["evaluate"] == len(_trained_configs(calls)) == 3


def _record_trains(monkeypatch, tmp_path):
    """Record every ``train`` call from now on, in this process and in a
    study's forked child alike: each process appends its calls to a file
    of its own.  The returned function gives, and forgets, the calls made
    since it was last called, each as ``(labels, cfgs, pid, blas)``: the
    member labels (None for a lone run), the configs trained, the process
    and its OpenBLAS thread count (None without the symbol).  Read after
    each study, they come in group order: this process's calls and the
    child's interleaved, as ``_train_groups`` deals the groups out."""
    original = lddg.experiments.train
    blas = lddg.experiments._openblas()

    def recording(cfg, data, members=None):
        call = (None if members is None else list(members),
                [cfg] if members is None else list(members.values()),
                os.getpid(), blas and blas[0]())
        with open(tmp_path / f"train-calls-{os.getpid()}", "ab") as fh:
            pickle.dump(call, fh)
        return original(cfg, data, members)

    def calls():
        ours, theirs = [], []
        for path in tmp_path.glob("train-calls-*"):
            side = ours if path.name == f"train-calls-{os.getpid()}" else theirs
            with open(path, "rb") as fh, contextlib.suppress(EOFError):
                while True:
                    side.append(pickle.load(fh))
            path.unlink()
        return [c for pair in itertools.zip_longest(ours, theirs) for c in pair if c is not None]

    monkeypatch.setattr(lddg.experiments, "train", recording)
    return calls


def _trained_configs(calls):
    """Every config the recorded ``calls`` trained, in order."""
    return [cfg for _, cfgs, _, _ in calls() for cfg in cfgs]


def _posterior_mean_predictions(params, features):
    """Argmax of the classifier at the posterior mean, in plain numpy."""
    h = features
    for layer in [*params.encoder, params.head_hidden]:
        pre = h @ layer.weight.T + layer.bias
        slope = 0.01 if layer.activation == "leaky_relu" else 0.0
        h = np.where(pre > 0.0, pre, slope * pre)
    mu = h @ params.head_mu.weight.T + params.head_mu.bias
    return np.argmax(mu @ params.classifier.weight.T + params.classifier.bias, axis=1)


class TestEvaluate:
    def test_matches_manual_forward_argmax(self, tiny):
        sources, target = tiny
        params, _ = train(TINY_TRAIN, sources)
        report = evaluate(params, target)
        trace = forward(params, target.features, None)
        pred = np.argmax(trace.logits, axis=1)
        np.testing.assert_allclose(
            report.accuracy, np.mean(pred == target.labels), atol=1e-15
        )
        assert len(report.per_domain) == 1
        np.testing.assert_allclose(report.per_domain[0], report.accuracy)

    def test_per_domain_breakdown(self, tiny):
        sources, _ = tiny
        params, _ = train(TINY_TRAIN, sources)
        report = evaluate(params, sources)
        trace = forward(params, sources.features, None)
        correct = np.argmax(trace.logits, axis=1) == sources.labels
        for k in range(sources.num_domains):
            np.testing.assert_allclose(
                report.per_domain[k], np.mean(correct[sources.domain_ids == k])
            )
        np.testing.assert_allclose(report.accuracy, np.mean(correct))


    @pytest.mark.parametrize("case", ["random", "saturated_log_var", "dead_relu"])
    def test_equals_a_plain_numpy_posterior_mean_argmax(self, case):
        sources, target = generate_synthetic(SyntheticConfig(offset_scale=0.6))
        rng = np.random.default_rng(7)
        params = lddg.model.init_params(16, 4, TrainConfig(), rng)
        for layer in params.layers():
            layer.weight = rng.standard_normal(layer.weight.shape)
            layer.bias = rng.standard_normal(layer.bias.shape)
        if case == "saturated_log_var":  # every log-variance far outside +-30
            params.head_log_var.bias = np.where(np.arange(16) % 2, 1e3, -1e3)
        if case == "dead_relu":  # half of the shared ReLU units never fire
            params.head_hidden.bias[::2] = -1e3
        for ds in (sources, target):
            pred = np.argmax(forward(params, ds.features, None).logits, axis=1)
            oracle = _posterior_mean_predictions(params, ds.features)
            np.testing.assert_array_equal(pred, oracle)
            assert evaluate(params, ds).accuracy == float(np.mean(oracle == ds.labels))

    def test_non_finite_logits_raise(self, tiny):
        sources, target = tiny
        params, _ = train(TINY_TRAIN, sources)
        params.head_mu.bias = params.head_mu.bias + 1e300  # the latents overflow the logits
        params.classifier.weight = params.classifier.weight * 1e300
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="logits hold non-finite values"
        ):
            evaluate(params, target)

    def test_rejects_a_dataset_the_model_does_not_fit(self, tiny):
        sources, target = tiny
        params, _ = train(TINY_TRAIN, sources)
        wide = DomainDataset(
            num_domains=1, num_classes=2, feature_dim=9,
            features=np.zeros((1, 9)), labels=[0], domain_ids=[0],
        )
        with pytest.raises(ValueError, match="8-dim inputs.*feature_dim=9"):
            evaluate(params, wide)
        more_classes = replace(target, num_classes=3)
        with pytest.raises(ValueError, match="3 classes.*only 2"):
            evaluate(params, more_classes)


class TestAblation:
    def test_cells_and_shapes(self, tiny):
        sources, target = tiny
        rows = ablate_components(TINY_TRAIN, sources, target, seeds=(0,))
        assert [r.cell for r in rows] == list(ABLATION_CELLS)
        for row in rows:
            assert len(row.accuracies) == 1
            assert 0.0 <= row.mean <= 1.0
            assert row.std == 0.0

    def test_cell_subset_and_unknown_cell(self, tiny):
        sources, target = tiny
        rows = ablate_components(
            TINY_TRAIN, sources, target, seeds=(0,), cells=("none", "rank+kl")
        )
        assert [r.cell for r in rows] == ["none", "rank+kl"]
        with pytest.raises(ValueError, match="unknown"):
            ablate_components(TINY_TRAIN, sources, target, cells=("bogus",))

    def test_empty_target_raises(self, tiny, monkeypatch):
        sources, _ = tiny
        empty = DomainDataset(
            num_domains=1, num_classes=2, feature_dim=8,
            features=np.zeros((0, 8)), labels=[], domain_ids=[],
        )
        counts = {}
        _count_calls(monkeypatch, lddg.experiments, "train", counts)
        with pytest.raises(ValueError, match="no records"):
            ablate_components(TINY_TRAIN, sources, empty, seeds=(0,), cells=("none",))
        with pytest.raises(ValueError, match="no records"):
            sweep_rank(TINY_TRAIN, sources, empty, ranks=(1,), seeds=(0,))
        assert "train" not in counts  # rejected before the first member trains

    @pytest.mark.parametrize(
        "feature_dim, num_classes, message",
        [(9, 2, "8-dim inputs.*feature_dim=9"), (8, 3, "3 classes.*only 2")],
    )
    def test_mismatched_target_raises_before_training(
        self, tiny, monkeypatch, feature_dim, num_classes, message
    ):
        sources, _ = tiny
        bad = DomainDataset(
            num_domains=1, num_classes=num_classes, feature_dim=feature_dim,
            features=np.zeros((1, feature_dim)), labels=[0], domain_ids=[0],
        )
        counts = {}
        _count_calls(monkeypatch, lddg.experiments, "train", counts)
        with pytest.raises(ValueError, match=message):
            ablate_components(TINY_TRAIN, sources, bad, seeds=(0,), cells=("none",))
        with pytest.raises(ValueError, match=message):
            sweep_rank(TINY_TRAIN, sources, bad, ranks=(1,), seeds=(0,))
        assert "train" not in counts

    @pytest.mark.parametrize(
        "study, members, seeds, message",
        [
            (ablate_components, {"cells": ()}, (0,), "no cell values"),
            (ablate_components, {"cells": ("rank", "rank")}, (0,), "duplicate cell values"),
            (ablate_components, {"cells": ("none",)}, (), "no seed values"),
            (ablate_components, {"cells": ("none",)}, (0, 0), "duplicate seed values"),
            (sweep_rank, {"ranks": ()}, (0,), "no rank values"),
            (sweep_rank, {"ranks": (1,)}, (), "no seed values"),
            (sweep_rank, {"ranks": (1,)}, (2, 1, 2), "duplicate seed values"),
        ],
    )
    def test_empty_or_repeated_members_or_seeds_rejected_before_training(
        self, tiny, monkeypatch, study, members, seeds, message
    ):
        sources, target = tiny
        counts = {}
        _count_calls(monkeypatch, lddg.experiments, "train", counts)
        with pytest.raises(ValueError, match=message):
            study(TINY_TRAIN, sources, target, seeds=seeds, **members)
        assert "train" not in counts

    def test_members_train_cell_by_cell_then_seed(self, tiny, monkeypatch, tmp_path):
        sources, target = tiny
        calls = _record_trains(monkeypatch, tmp_path)
        base = replace(TINY_TRAIN, epochs=1)
        ablate_components(base, sources, target, seeds=(3, 1), cells=("kl", "nuclear"))
        assert _trained_configs(calls) == [
            replace(base, lambda1=0.0, seed=3),
            replace(base, lambda1=0.0, seed=1),
            replace(base, lambda2=0.0, regularizer="nuclear", seed=3),
            replace(base, lambda2=0.0, regularizer="nuclear", seed=1),
        ]

    def test_none_cell_ignores_base_lambdas(self, tiny):
        # The 'none' cell zeroes both penalty weights, so the base config's
        # lambdas must not influence it.
        sources, target = tiny
        a = ablate_components(TINY_TRAIN, sources, target, seeds=(0,), cells=("none",))
        hot = replace(TINY_TRAIN, lambda1=5.0, lambda2=5.0)
        b = ablate_components(hot, sources, target, seeds=(0,), cells=("none",))
        assert a[0].accuracies == b[0].accuracies


class TestSweepRank:
    def test_single_rank_equals_train_eval_pair(self, tiny):
        sources, target = tiny
        rows = sweep_rank(TINY_TRAIN, sources, target, ranks=(3,), seeds=(0,))
        params, _ = train(replace(TINY_TRAIN, rank_target=3, seed=0), sources)
        direct = evaluate(params, target).accuracy
        assert rows[0].rank == 3
        assert rows[0].accuracies == [direct]
        assert rows[0].mean == direct

    def test_row_per_rank_with_stats(self, tiny):
        sources, target = tiny
        rows = sweep_rank(TINY_TRAIN, sources, target, ranks=(1, 2, 4), seeds=(0, 1))
        assert [r.rank for r in rows] == [1, 2, 4]
        for row in rows:
            assert len(row.accuracies) == 2
            np.testing.assert_allclose(row.mean, np.mean(row.accuracies))
            np.testing.assert_allclose(row.std, np.std(row.accuracies))

    def test_duplicate_ranks_rejected(self, tiny):
        sources, target = tiny
        with pytest.raises(ValueError, match="duplicate"):
            sweep_rank(TINY_TRAIN, sources, target, ranks=(2, 2), seeds=(0,))

    def test_out_of_range_ranks_rejected(self, tiny):
        sources, target = tiny
        # latent_dim=6 caps usable rank targets at 5
        with pytest.raises(ValueError, match="outside"):
            sweep_rank(TINY_TRAIN, sources, target, ranks=(6,), seeds=(0,))
        with pytest.raises(ValueError, match="outside"):
            sweep_rank(TINY_TRAIN, sources, target, ranks=(0,), seeds=(0,))


# criterion 09's data and training settings, for 3 epochs: one 600-row step each
FULL_BATCH_DATA = SyntheticConfig(offset_scale=0.6)
FULL_BATCH_TRAIN = TrainConfig(
    lambda1=0.5, lambda2=0.01, learning_rate=1e-2, weight_decay=0.0, epochs=3,
    batch_per_domain=200, lr_decay_every=300,
)


class TestGroups:
    """A study's members train together; each must come out as it would alone."""

    def _assert_each_as_alone(self, base, members, sources, target):
        group = train(base, sources, members)
        assert len(group) == len(members)
        for (params, result), cfg in zip(group, members.values()):
            alone_params, alone = train(cfg, sources)
            assert [a.tobytes() for a in params.flat()] == [
                a.tobytes() for a in alone_params.flat()]
            assert [asdict(r) for r in result.epochs] == [asdict(r) for r in alone.epochs]
            assert result.config == asdict(cfg)
            assert evaluate(params, target).accuracy == evaluate(alone_params, target).accuracy

    def test_six_cells_two_seeds_at_48_rows_match_lone_runs(self):
        # default data: 12 batches of 48 rows, then a ragged one of 24
        sources, target = generate_synthetic(SyntheticConfig())
        base = TrainConfig(epochs=2, log_singular_values=True)
        assert [b.size for b in sample_batches(sources, 16, 0, 0)] == [48] * 12 + [24]
        members = {f"{cell} {seed}": replace(base, seed=seed, **overrides)
                   for cell, overrides in ABLATION_CELLS.items() for seed in (0, 1)}
        self._assert_each_as_alone(base, members, sources, target)

    def test_trunk_layers_of_three_widths_match_lone_runs(self):
        # the gradients' two alternating arrays are viewed at widths 8, 40 and 24
        sources, target = generate_synthetic(SyntheticConfig())
        base = TrainConfig(epochs=2, encoder_dims=(24, 40), head_hidden_dim=8, latent_dim=12)
        members = {cell: replace(base, seed=i % 2, **overrides)
                   for i, (cell, overrides) in enumerate(ABLATION_CELLS.items())}
        self._assert_each_as_alone(base, members, sources, target)

    @pytest.mark.parametrize("shared_seed", [False, True])
    def test_two_ranks_at_600_rows_match_lone_runs(self, shared_seed):
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        members = {rank: replace(FULL_BATCH_TRAIN, rank_target=rank,
                                 seed=0 if shared_seed else rank)
                   for rank in (2, 5)}
        self._assert_each_as_alone(FULL_BATCH_TRAIN, members, sources, target)

    def test_study_accuracies_are_those_of_lone_runs(self, tiny):
        sources, target = tiny
        rows = ablate_components(TINY_TRAIN, sources, target, seeds=(2, 0))
        for row in rows:
            for seed, acc in zip((2, 0), row.accuracies):
                cfg = replace(TINY_TRAIN, seed=seed, **ABLATION_CELLS[row.cell])
                assert acc == evaluate(train(cfg, sources)[0], target).accuracy

    def test_600_row_studies_train_two_members_a_step(self, monkeypatch, tmp_path):
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        calls = _record_trains(monkeypatch, tmp_path)
        sweep_rank(replace(FULL_BATCH_TRAIN, epochs=1), sources, target,
                   ranks=(1, 2, 3), seeds=(0, 1, 2))
        labels = [f"rank {r}, seed {s}" for r in (1, 2, 3) for s in (0, 1, 2)]
        assert [members for members, *_ in calls()] == [
            labels[0:2], labels[2:4], labels[4:6], labels[6:8], labels[8:]]

    def test_members_may_differ_only_in_their_own_fields(self, tiny):
        sources, _ = tiny
        with pytest.raises(ValueError, match="member b differs"):
            train(TINY_TRAIN, sources, {"a": TINY_TRAIN, "b": replace(TINY_TRAIN, epochs=2)})

    def test_an_empty_group_is_rejected(self, tiny):
        # it used to end in a bare IndexError when the group was stacked
        sources, _ = tiny
        with pytest.raises(ValueError, match="members is empty"):
            train(TINY_TRAIN, sources, {})

    def test_a_diverging_cell_is_named(self, tiny):
        # the nuclear norm of the first batch, times lambda1, overflows the loss
        sources, target = tiny
        hot = replace(TINY_TRAIN, lambda1=1e308)
        with np.errstate(over="ignore"), pytest.raises(
            RuntimeError,
            match=r"^training diverged at epoch 0, batch 0 \(cell nuclear, seed 1\): "
                  r"non-finite loss, parts=",
        ):
            ablate_components(hot, sources, target, seeds=(1, 0), cells=("kl", "nuclear"))

    def test_an_unpenalised_member_whose_loss_diverges_is_named(self, tiny):
        # features this large leave the heads finite but overflow the KL; at
        # lambda1 = 0 the penalty is not computed, so 'rank' reads None
        sources, target = tiny
        huge = DomainDataset(
            num_domains=sources.num_domains,
            num_classes=sources.num_classes,
            feature_dim=sources.feature_dim,
            features=sources.features * 1e160,
            labels=sources.labels,
            domain_ids=sources.domain_ids,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError,
            match=r"^training diverged at epoch 0, batch 0 \(cell kl, seed 1\): "
                  r"non-finite loss, parts=\{'cls': .*, 'rank': None, 'kl': inf, ",
        ):
            ablate_components(TINY_TRAIN, huge, target, seeds=(1,), cells=("kl", "rank+kl"))

    def test_a_diverging_rank_is_named(self, tiny):
        # Adam's first step at this rate makes the next batch's activations
        # non-finite in every member; the first one is named
        sources, target = tiny
        with pytest.warns(RuntimeWarning), pytest.raises(
            RuntimeError,
            match=r"^training diverged at epoch 0, batch 1 \(rank 3, seed 4\): "
                  r"matrix contains non-finite",
        ):
            sweep_rank(replace(TINY_TRAIN, learning_rate=1e200), sources, target,
                       ranks=(3, 2), seeds=(4,))


@pytest.fixture
def two_cpus(monkeypatch):
    """A study of several groups forks its child process, on any host."""
    if lddg.experiments._openblas() is None or not hasattr(os, "fork"):
        pytest.skip("this platform has no os.fork or this numpy no OpenBLAS thread count")
    monkeypatch.setattr(lddg.experiments, "_cpus", lambda: 2)


def _inline(monkeypatch):
    """Studies from now on train every group in this process, as without
    the OpenBLAS symbol."""
    monkeypatch.setattr(lddg.experiments, "_openblas", lambda: None)


class TestProcesses:
    """A study's odd groups train in a forked child, with one process's results and errors."""

    @pytest.fixture(autouse=True)
    def no_child_is_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_rows_are_those_of_one_process(self, two_cpus, monkeypatch, tmp_path):
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        get, _ = lddg.experiments._openblas()
        before = get()
        calls = _record_trains(monkeypatch, tmp_path)
        rows = sweep_rank(FULL_BATCH_TRAIN, sources, target, ranks=(2, 4, 5), seeds=(0, 1))
        forked = calls()
        assert [labels for labels, *_ in forked] == [
            [f"rank {r}, seed {s}" for s in (0, 1)] for r in (2, 4, 5)]
        assert [pid == os.getpid() for _, _, pid, _ in forked] == [True, False, True]
        assert {count for *_, count in forked} == {1}
        assert get() == before

        _inline(monkeypatch)
        assert sweep_rank(FULL_BATCH_TRAIN, sources, target, ranks=(2, 4, 5),
                          seeds=(0, 1)) == rows
        assert {pid for _, _, pid, _ in calls()} == {os.getpid()}

    def test_members_that_fit_one_group_train_as_two(self, two_cpus, monkeypatch, tmp_path,
                                                      tiny):
        sources, target = tiny
        calls = _record_trains(monkeypatch, tmp_path)
        study = dict(seeds=(0, 1, 2), cells=("none", "rank", "kl"))
        rows = ablate_components(replace(TINY_TRAIN, epochs=1), sources, target, **study)
        labels = [f"cell {c}, seed {s}" for c in study["cells"] for s in study["seeds"]]
        assert [(members, pid == os.getpid()) for members, _, pid, _ in calls()] == [
            (labels[:5], True), (labels[5:], False)]
        _inline(monkeypatch)
        assert ablate_components(replace(TINY_TRAIN, epochs=1), sources, target, **study) == rows
        assert [members for members, *_ in calls()] == [labels]

    def test_a_process_running_another_thread_trains_inline(self, two_cpus, monkeypatch,
                                                             tmp_path):
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        calls = _record_trains(monkeypatch, tmp_path)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            sweep_rank(replace(FULL_BATCH_TRAIN, epochs=1), sources, target, ranks=(2, 4),
                       seeds=(0, 1))
        finally:
            stop.set()
            other.join(10)
        assert not other.is_alive()
        assert [(len(members), pid) for members, _, pid, _ in calls()] == [(2, os.getpid())] * 2

    def test_the_childs_params_view_one_vector_per_group(self, two_cpus, monkeypatch):
        sources, _ = generate_synthetic(FULL_BATCH_DATA)
        groups = [{f"{g} {s}": replace(FULL_BATCH_TRAIN, seed=s, rank_target=g + 2)
                   for s in (0, 1)} for g in range(2)]
        forked = lddg.experiments._train_groups(FULL_BATCH_TRAIN, sources, groups)
        _inline(monkeypatch)
        alone = lddg.experiments._train_groups(FULL_BATCH_TRAIN, sources, groups)
        for pairs, inline in zip(forked, alone):
            assert len({id(a.base) for params, _ in pairs for a in params.flat()}) == 1
            for (params, result), (want, expected) in zip(pairs, inline):
                assert all(a.tobytes() == b.tobytes()
                           for a, b in zip(params.flat(), want.flat()))
                assert result.epochs == expected.epochs and result.config == expected.config

    def test_blas_count_is_restored_after_an_error(self, two_cpus, monkeypatch):
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        counts = []
        monkeypatch.setattr(lddg.experiments, "_openblas", lambda: (lambda: 3, counts.append))
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="cell nuclear"):
            ablate_components(replace(FULL_BATCH_TRAIN, lambda1=1e308), sources, target,
                              seeds=(0,), cells=("none", "kl", "nuclear"))
        assert counts == [1, 3]

    @pytest.mark.parametrize("cells", [
        ("none", "kl", "nuclear"),  # only the child's group diverges
        ("none", "kl", "nuclear", "rank", "nuclear+kl"),  # groups 1 and 2 diverge
        ("nuclear", "none", "nuclear+kl", "kl"),  # groups 0 and 1 diverge
    ])
    def test_the_first_diverging_group_is_named(self, two_cpus, monkeypatch, cells):
        # the nuclear norm of the first batch, times lambda1, overflows the loss;
        # the child must inherit the caller's errstate, or it warns instead
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        hot = replace(FULL_BATCH_TRAIN, lambda1=1e308)

        def error():
            with np.errstate(over="ignore"), pytest.raises(RuntimeError) as exc:
                ablate_components(hot, sources, target, seeds=(0,), cells=cells)
            return str(exc.value)

        forked = error()
        _inline(monkeypatch)
        assert forked == error()
        assert forked.startswith("training diverged at epoch 0, batch 0 (cell nuclear, seed 0): ")

    @pytest.mark.parametrize("cells", [
        ("none", "kl", "nuclear"),  # only the child's group warns
        ("none", "kl", "nuclear", "rank", "nuclear+kl"),  # groups 1 and 2 warn; 1 raises first
    ])
    def test_numpy_warnings_are_those_of_one_process(self, two_cpus, monkeypatch, cells):
        # unsilenced, the overflow of a diverging group warns before it raises
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        hot = replace(FULL_BATCH_TRAIN, lambda1=1e308)

        def warned():
            with warnings.catch_warnings(record=True) as shown, pytest.raises(RuntimeError):
                warnings.simplefilter("always")
                ablate_components(hot, sources, target, seeds=(0,), cells=cells)
            return [(w.category, str(w.message), w.filename, w.lineno) for w in shown]

        forked = warned()
        _inline(monkeypatch)
        inline = warned()
        assert forked and forked == inline

    def test_log_records_come_in_group_order(self, two_cpus, monkeypatch, tmp_path, caplog):
        # at rank target 16 every 16-wide latent batch is inert; the groups
        # are [rank 0, 1], [rank 2, rank+kl 0] (the child's), [rank+kl 1, 2]
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        cfg = replace(FULL_BATCH_TRAIN, epochs=1, rank_target=16)
        calls = _record_trains(monkeypatch, tmp_path)

        def warned():
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="lddg.experiments"):
                ablate_components(cfg, sources, target, seeds=(0, 1, 2), cells=("rank", "rank+kl"))
            return [record.getMessage() for record in caplog.records]

        forked = warned()
        assert [pid == os.getpid() for _, _, pid, _ in calls()] == [True, False, True]
        assert [m.split("(")[1].split(")")[0] for m in forked] == [
            f"cell {c}, seed {s}" for c in ("rank", "rank+kl") for s in (0, 1, 2)]
        _inline(monkeypatch)
        assert warned() == forked

    def test_a_child_that_dies_is_reported(self, two_cpus, monkeypatch):
        sources, target = generate_synthetic(FULL_BATCH_DATA)
        get, _ = lddg.experiments._openblas()
        before = get()
        parent, original = os.getpid(), lddg.experiments.train

        def dying(cfg, data, members=None):
            if os.getpid() != parent:
                os._exit(9)
            return original(cfg, data, members)

        def hung(signum, frame):
            raise TimeoutError("the study hung after its child died")

        monkeypatch.setattr(lddg.experiments, "train", dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            with pytest.raises(RuntimeError, match="exited with status 9 before sending"):
                sweep_rank(FULL_BATCH_TRAIN, sources, target, ranks=(2, 4), seeds=(0,))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert get() == before
