"""Tests for the training harness, evaluation, and the study harnesses."""

import logging
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import lddg.experiments
import lddg.linalg
import lddg.model
import lddg.regularizers
import lddg.theory
from lddg.data import DomainDataset, SyntheticConfig, generate_synthetic
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

    def test_inert_penalty_still_records_the_spectrum(self, tiny):
        # one row per domain: 2-row batches never exceed rank C = 2
        sources, _ = tiny
        cfg = replace(TINY_TRAIN, batch_per_domain=1, log_singular_values=True)
        _, result = train(cfg, sources)
        for rec in result.epochs:
            assert rec.rank == 0.0
            sv = rec.singular_values
            assert len(sv) == 2 and sv[0] >= sv[1] > 0.0

    def test_study_scores_each_member_once(self, tiny, monkeypatch):
        sources, target = tiny
        counts = {}
        _count_calls(monkeypatch, lddg.experiments, "evaluate", counts)
        ablate_components(
            replace(TINY_TRAIN, epochs=1), sources, target, seeds=(0, 1),
            cells=("none", "rank+kl"),
        )
        assert counts["evaluate"] == 4
        counts.clear()
        sweep_rank(replace(TINY_TRAIN, epochs=1), sources, target, ranks=(1, 2, 3), seeds=(0,))
        assert counts["evaluate"] == 3


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
        assert [r.cell for r in rows] == [c[0] for c in ABLATION_CELLS]
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

    def test_members_train_cell_by_cell_then_seed(self, tiny, monkeypatch):
        sources, target = tiny
        trained = []
        original = lddg.experiments.train

        def recording(cfg, data):
            trained.append(cfg)
            return original(cfg, data)

        monkeypatch.setattr(lddg.experiments, "train", recording)
        base = replace(TINY_TRAIN, epochs=1)
        ablate_components(base, sources, target, seeds=(3, 1), cells=("kl", "nuclear"))
        assert trained == [
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
