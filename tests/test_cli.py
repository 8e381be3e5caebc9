"""End-to-end tests of the command-line interface (in-process)."""

import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import lddg.cli
import lddg.theory
from lddg.cli import build_parser, main
from lddg.data import load_dataset, save_dataset
from lddg.experiments import ABLATION_CELLS, evaluate
from lddg.model import load_checkpoint, save_checkpoint
from lddg.theory import BoundReport, make_mixture_kl_trial, verify_mixture_kl_bound

ROOT = Path(__file__).resolve().parents[1]

TINY_SYNTH = {
    "num_domains": 2,
    "num_classes": 2,
    "feature_dim": 8,
    "latent_dim_true": 4,
    "samples_per_domain_class": 6,
    "target_samples_per_class": 6,
    "domain_scales": [1.0, 1.2],
    "target_mixture": [0.6, 0.4],
}

TINY_TRAIN = {
    "epochs": 2,
    "batch_per_domain": 4,
    "latent_dim": 6,
    "encoder_dims": [8],
    "head_hidden_dim": 8,
}


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not allow."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


def _config_with(tmp_path, section, **values):
    """The workspace's config with ``values`` set in ``section``, as a file."""
    raw = {"synthetic": TINY_SYNTH, "train": TINY_TRAIN}
    raw[section] = {**raw[section], **values}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _domain_0_only(workspace, path):
    """The sources file cut down to domain 0's rows, still declaring 2 domains."""
    ds = load_dataset(workspace["sources"])
    keep = ds.domain_ids == 0
    save_dataset(path, dataclasses.replace(
        ds, features=ds.features[keep], labels=ds.labels[keep], domain_ids=ds.domain_ids[keep],
    ))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file plus generated datasets, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({"synthetic": TINY_SYNTH, "train": TINY_TRAIN}))
    src, tgt = root / "sources.txt", root / "target.txt"
    rc = main([
        "gen-data", "--config", str(config),
        "--out-sources", str(src), "--out-target", str(tgt),
    ])
    assert rc == 0
    return {"root": root, "config": config, "sources": src, "target": tgt}


class TestGenData:
    def test_outputs_parse_and_match_counts(self, workspace, capsys):
        sources = load_dataset(workspace["sources"])
        target = load_dataset(workspace["target"])
        assert len(sources) == 2 * 2 * 6
        assert len(target) == 2 * 6
        assert sources.num_domains == 2

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        src2, tgt2 = tmp_path / "s.txt", tmp_path / "t.txt"
        rc = main([
            "gen-data", "--config", str(workspace["config"]),
            "--out-sources", str(src2), "--out-target", str(tgt2),
        ])
        assert rc == 0
        assert src2.read_bytes() == workspace["sources"].read_bytes()
        assert tgt2.read_bytes() == workspace["target"].read_bytes()

    def test_missing_output_path_is_usage_error(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--config", str(workspace["config"])])
        assert exc.value.code == 2
        assert "--out-sources" in capsys.readouterr().err

    def test_one_file_for_both_outputs_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "both.txt"
        (tmp_path / "link").symlink_to(tmp_path)
        rc = main(["gen-data", "--config", str(workspace["config"]),
                   "--out-sources", str(out), "--out-target", str(tmp_path / "link" / "both.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--out-sources" in err and "--out-target" in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for section, key in (
            ("synthetic", "num_classez"),
            ("synthetic", "norm_bound"),
            ("train", "rank_mode"),
            ("train", "lr_decay_factor"),
        ):
            bad.write_text(json.dumps({section: {key: 3}}))
            rc = main(["gen-data", "--config", str(bad),
                       "--out-sources", str(tmp_path / "s"),
                       "--out-target", str(tmp_path / "t")])
            assert rc == 2
            assert key in capsys.readouterr().err

    def test_unknown_config_section_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for raw in ({"synth": {}}, {"loss": {}}, {"outputs": {}}):
            bad.write_text(json.dumps(raw))
            assert main(["gen-data", "--config", str(bad),
                         "--out-sources", str(tmp_path / "s"),
                         "--out-target", str(tmp_path / "t")]) == 2

    def test_non_numeric_config_value_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synthetic": {**TINY_SYNTH, "num_classes": "3"}}))
        rc = main(["gen-data", "--config", str(bad),
                   "--out-sources", str(tmp_path / "s"),
                   "--out-target", str(tmp_path / "t")])
        assert rc == 1
        assert "num_classes" in capsys.readouterr().err

    def test_negative_seed_names_the_seed(self, tmp_path, capsys):
        rc = main([
            "gen-data", "--config", str(_config_with(tmp_path, "synthetic", seed=-1)),
            "--out-sources", str(tmp_path / "s.txt"), "--out-target", str(tmp_path / "t.txt"),
        ])
        assert rc == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["gen-data", "--config", str(bad),
                     "--out-sources", str(tmp_path / "s"),
                     "--out-target", str(tmp_path / "t")]) == 2

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config {path}: "),
        ("[1, 2]", "{path}: config must be a JSON object"),
        ('{"train": [1]}', "{path}: section 'train' must be an object"),
    ], ids=["unreadable", "not an object", "section not an object"])
    def test_unusable_config_file_names_it(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        if text is not None:  # otherwise the file does not exist
            bad.write_text(text)
        rc = main(["gen-data", "--config", str(bad),
                   "--out-sources", str(tmp_path / "s"), "--out-target", str(tmp_path / "t")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(path=bad))
        assert not (tmp_path / "s").exists()


class TestTrain:
    def test_writes_metrics_and_checkpoint(self, workspace, tmp_path, capsys):
        model, metrics = tmp_path / "m.ckpt", tmp_path / "metrics.jsonl"
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--model-out", str(model), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        lines = [json.loads(ln) for ln in metrics.read_text().splitlines()]
        epochs = [ln for ln in lines if ln["kind"] == "epoch"]
        finals = [ln for ln in lines if ln["kind"] == "final"]
        assert len(epochs) == TINY_TRAIN["epochs"]
        assert len(finals) == 1
        # every epoch line decomposes: total = cls + l1 * rank + l2 * kl
        for rec in epochs:
            np.testing.assert_allclose(
                rec["total"],
                rec["cls"] + 0.01 * rec["rank"] + 0.4 * rec["kl"],
                atol=1e-12,
            )
        assert finals[0]["target_accuracy"] is not None
        params = load_checkpoint(model)
        assert params.classifier.weight.shape == (2, 6)
        # the library's train leaves source scoring to the CLI
        sources = load_dataset(workspace["sources"])
        source_accuracy = evaluate(params, sources).per_domain
        assert len(source_accuracy) == sources.num_domains == 2
        assert finals[0]["source_accuracy"] == source_accuracy
        out = capsys.readouterr().out
        accs = " ".join(f"{a:.4f}" for a in source_accuracy)
        assert f"source accuracy per domain: {accs}" in out
        assert "target accuracy" in out

    def test_domain_without_rows_is_null_not_nan(self, workspace, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--sources", str(_domain_0_only(workspace, tmp_path / "d0.txt")),
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        final = _strict_json(metrics.read_text().splitlines()[-1])
        assert final["kind"] == "final"
        acc0, acc1 = final["source_accuracy"]
        assert acc1 is None
        assert f"source accuracy per domain: {acc0:.4f} n/a" in capsys.readouterr().out

    def test_unweighted_penalty_reads_not_computed(self, workspace, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        rc = main([
            "train", "--config", str(_config_with(tmp_path, "train", lambda1=0)),
            "--sources", str(workspace["sources"]), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        lines = [_strict_json(ln) for ln in metrics.read_text().splitlines()]
        epochs = [ln for ln in lines if ln["kind"] == "epoch"]
        assert len(epochs) == TINY_TRAIN["epochs"]
        for rec in epochs:
            assert list(rec) == ["kind", "epoch", "total", "cls", "rank", "kl", "lr",
                                 "singular_values"]
            assert rec["rank"] is None
            np.testing.assert_allclose(rec["total"], rec["cls"] + 0.4 * rec["kl"], atol=1e-12)
        assert "rank not computed, kl" in capsys.readouterr().out

    def test_zero_epochs_is_rejected(self, workspace, tmp_path, capsys):
        rc = main([
            "train", "--config", str(_config_with(tmp_path, "train", epochs=0)),
            "--sources", str(workspace["sources"]),
        ])
        assert rc == 1
        assert "epochs must be >= 1" in capsys.readouterr().err

    def test_lr_decay_beyond_float_range_is_rejected_before_training(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def unreachable(*args):
            raise AssertionError("train ran with a learning rate past float range")

        monkeypatch.setattr(lddg.cli, "train", unreachable)
        config = _config_with(tmp_path, "train", epochs=320, lr_decay_every=1, batch_per_domain=200)
        rc = main(["train", "--config", str(config), "--sources", str(workspace["sources"])])
        assert rc == 1
        assert "lr_decay_every 1" in capsys.readouterr().err

    def test_negative_seed_names_the_seed(self, workspace, tmp_path, capsys):
        rc = main([
            "train", "--config", str(_config_with(tmp_path, "train", seed=-1)),
            "--sources", str(workspace["sources"]),
        ])
        assert rc == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_non_numeric_config_value_names_the_key(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {**TINY_TRAIN, "lambda1": "0.1"}}))
        rc = main([
            "train", "--config", str(config),
            "--sources", str(workspace["sources"]),
        ])
        assert rc == 1
        assert "lambda1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "encoder_dims", 32),
            ("synthetic", "domain_scales", 1.0),
            ("train", "log_singular_values", "false"),
            ("train", "encoder_dims", [0]),
            ("train", "head_hidden_dim", 0),
            ("train", "latent_dim", 0),
            ("train", "encoder_dims", []),
            # json.dumps writes these as NaN and Infinity, which json.load accepts
            ("train", "weight_decay", float("nan")),
            ("synthetic", "target_mixture", [float("nan"), 0.4]),
        ],
    )
    def test_config_value_of_the_wrong_shape_names_the_key(
        self, workspace, tmp_path, capsys, section, key, value
    ):
        config = tmp_path / "config.json"
        base = TINY_SYNTH if section == "synthetic" else TINY_TRAIN
        config.write_text(json.dumps({section: {**base, key: value}}))
        if section == "synthetic":
            argv = ["gen-data", "--out-sources", str(tmp_path / "s"),
                    "--out-target", str(tmp_path / "t")]
        else:
            argv = ["train", "--sources", str(workspace["sources"]),
                    "--model-out", str(tmp_path / "m.ckpt")]
        rc = main(argv + ["--config", str(config)])
        assert rc == 1
        assert key in capsys.readouterr().err

    def test_missing_sources_file(self, workspace, capsys):
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--sources", str(workspace["root"] / "nope.txt"),
        ])
        assert rc == 1

    def test_empty_sources_is_contract_failure(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("LDDG-DS 1 1 2 8 0\n")
        rc = main(["train", "--config", str(workspace["config"]),
                   "--sources", str(empty)])
        assert rc == 1
        assert "no records" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, message",
        [("wide", "8-dim inputs but dataset has feature_dim=3"), ("nope.txt", "nope.txt")],
    )
    def test_target_is_checked_before_training(
        self, workspace, tmp_path, capsys, monkeypatch, target, message
    ):
        wide = tmp_path / "wide"
        wide.write_text("LDDG-DS 1 1 2 3 1\n0 0 1.0 2.0 3.0\n")

        def unreachable(*args):
            raise AssertionError("train ran before the target was checked")

        monkeypatch.setattr(lddg.cli, "train", unreachable)
        rc = main(["train", "--config", str(workspace["config"]),
                   "--sources", str(workspace["sources"]),
                   "--target", str(tmp_path / target), "--model-out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_one_file_for_both_outputs_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def unreachable(*args):
            raise AssertionError("ran before the output paths were checked")

        monkeypatch.setattr(lddg.cli, "load_dataset", unreachable)
        monkeypatch.setattr(lddg.cli, "train", unreachable)
        out = tmp_path / "out"
        rc = main(["train", "--config", str(workspace["config"]),
                   "--sources", str(workspace["sources"]),
                   "--model-out", str(out), "--metrics-out", f"{tmp_path}/./out"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--model-out" in err and "--metrics-out" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--rank-mode", "per_batch"), ("--loss-kind", "cross_entropy")]
    )
    def test_removed_flags_are_usage_errors(self, workspace, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--sources", str(workspace["sources"]), flag, value])
        assert exc.value.code == 2


_STUDY_OVERRIDES = ("--epochs", "--lambda1", "--lambda2", "--learning-rate", "--weight-decay",
                    "--batch-per-domain")
_REMOVED_FLAGS = {
    "gen-data": ("--seed",),
    "train": ("--seed", *_STUDY_OVERRIDES, "--rank-target", "--regularizer",
              "--log-singular-values"),
    "sweep-rank": _STUDY_OVERRIDES,
    "ablate": _STUDY_OVERRIDES,
}
_REQUIRED_PATHS = {"gen-data": ("--out-sources", "--out-target"), "train": ("--sources",),
                   "sweep-rank": ("--sources", "--target"), "ablate": ("--sources", "--target")}


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in _REMOVED_FLAGS.items() for f in flags]
)
def test_removed_override_flag_is_usage_error(tmp_path, capsys, command, flag):
    """A config value is set in --config only; its old flag is unknown."""
    paths = [arg for p in _REQUIRED_PATHS[command] for arg in (p, str(tmp_path / p[2:]))]
    value = [] if flag == "--log-singular-values" else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([command, *paths, flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["ablate", "--sources", "s", "--target", "t", "--seed", "3"], "--seed"),
    (["sweep-rank", "--sources", "s", "--target", "t", "--seed", "3"], "--seed"),
    (["train", "--sources", "s", "--conf", "c.json"], "--conf"),
    (["verify", "--theorem", "1", "--trial", "5"], "--trial"),
])
def test_abbreviated_flag_is_usage_error(capsys, argv, flag):
    """A flag has one spelling: a prefix of a longer flag is an unknown flag."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


@pytest.fixture(scope="module")
def model(workspace, tmp_path_factory):
    path = tmp_path_factory.mktemp("eval") / "m.ckpt"
    rc = main([
        "train", "--config", str(workspace["config"]),
        "--sources", str(workspace["sources"]), "--model-out", str(path),
    ])
    assert rc == 0
    return path


class TestEval:
    def test_matches_library_evaluate(self, workspace, model, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["eval", "--model", str(model),
                   "--data", str(workspace["target"]), "--out", str(out)])
        assert rc == 0
        record = json.loads(out.read_text())
        params = load_checkpoint(model)
        expected = evaluate(params, load_dataset(workspace["target"]))
        assert record["accuracy"] == expected.accuracy
        assert record["per_domain"] == expected.per_domain
        assert "overall accuracy" in capsys.readouterr().out

    def test_domain_without_rows_is_null_not_nan(self, workspace, model, tmp_path, capsys):
        out = tmp_path / "report.json"
        data = _domain_0_only(workspace, tmp_path / "d0.txt")
        rc = main(["eval", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert rc == 0
        record = _strict_json(out.read_text())
        assert record["per_domain"][1] is None
        assert record["per_domain"][0] is not None
        assert "domain 1 accuracy: n/a" in capsys.readouterr().out

    def test_empty_dataset_is_contract_failure(self, model, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("LDDG-DS 1 1 2 8 0\n")
        rc = main(["eval", "--model", str(model), "--data", str(empty)])
        assert rc == 1
        assert "no records" in capsys.readouterr().err

    def test_incompatible_dims_rejected(self, model, tmp_path, capsys):
        narrow = tmp_path / "narrow.txt"
        narrow.write_text("LDDG-DS 1 1 2 3 1\n0 0 1.0 2.0 3.0\n")
        rc = main(["eval", "--model", str(model), "--data", str(narrow)])
        assert rc == 1
        assert "feature_dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, line",
        [(b"LDDG-MODEL 1\n", "line 2"), (b"LDDG-MODEL 1\n5\nlinear 3\n", "line 3"),
         (b"LDDG-MODEL \xff1\n5\n", "line 1"), (b"LDDG-MODEL 1\n5\nfoo 4 4\n", "line 3")],
    )
    def test_defective_checkpoint_header_names_the_line(
        self, workspace, tmp_path, capsys, header, line
    ):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(header + b"DATA\n")
        rc = main(["eval", "--model", str(bad), "--data", str(workspace["target"])])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad) in err and line in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, workspace, model, tmp_path, capsys, value):
        params = load_checkpoint(model)
        params.classifier.weight[0, 0] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params)
        rc = main(["eval", "--model", str(bad), "--data", str(workspace["target"])])
        assert rc == 1
        # the message alone: no numpy overflow warning reaches stderr either
        err = capsys.readouterr().err
        assert err == f"error: {bad}: parameters hold non-finite values (NaN or inf)\n"


class TestVerify:
    def test_theorem_1_all_trials_satisfied(self, tmp_path, capsys):
        report = tmp_path / "t1.jsonl"
        rc = main(["verify", "--theorem", "1", "--trials", "25",
                   "--seed", "0", "--report", str(report)])
        assert rc == 0
        assert "25/25 trials satisfied" in capsys.readouterr().out
        records = [json.loads(ln) for ln in report.read_text().splitlines()]
        assert len(records) == 25
        assert all(r["satisfied"] for r in records)
        assert all(r["lhs"] <= r["rhs"] + r["tolerance"] for r in records)

    def test_theorem_2_keeps_no_scratch_buffers(self, capsys):
        assert main(["verify", "--theorem", "2", "--trials", "2", "--classes", "7"]) == 0
        assert not vars(lddg.theory._scratch)

    def test_removed_all_prior_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "1", "--trials", "5", "--all-prior"])
        assert exc.value.code == 2

    def test_records_are_the_bound_reports(self, capsys):
        assert main(["verify", "--theorem", "1", "--trials", "2", "--seed", "4"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
        for i, line in enumerate(lines):
            rep = verify_mixture_kl_bound(make_mixture_kl_trial(4, i))
            assert line == json.dumps({"trial": i, **dataclasses.asdict(rep)})

    @pytest.mark.parametrize(
        "flags, name",
        [(["--samples", "0"], "samples"), (["--classes", "0"], "num_classes"),
         (["--classes", "1"], "num_classes"), (["--samples", "1"], "samples")],
    )
    def test_theorem_2_edge_inputs_name_the_argument(self, tmp_path, capsys, flags, name):
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "1", "--report", str(report),
                   *flags])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not report.exists()

    def test_allocation_failure_is_a_message(self, tmp_path, capsys):
        # more samples than any address space holds: the allocation fails at once
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "1", "--report", str(report),
                   "--samples", "100000000000000000"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not report.exists()

    @pytest.mark.parametrize("flags", [["--classes", str(10**12)], ["--classes", str(10**17)],
                                       ["--samples", str(10**17)], ["--samples", str(10**18)]])
    def test_count_too_large_to_allocate_is_a_message(self, tmp_path, capsys, flags):
        # numpy says "Unable to allocate" or, past the largest array size,
        # "array is too big"; either is one line, not a traceback
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "2", "--report", str(report), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not report.exists()

    def test_theorem_2_cycles_class_counts(self, tmp_path, capsys):
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "4",
                   "--samples", "500", "--report", str(report)])
        assert rc == 0
        records = [json.loads(ln) for ln in report.read_text().splitlines()]
        assert [r["detail"]["num_classes"] for r in records] == [2, 7, 2, 7]
        assert all(r["satisfied"] for r in records)

    def test_trial_that_cannot_be_drawn_is_a_failure_record(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lddg.theory, "_RISK_MAX_RETRIES", 0)
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "2", "--report", str(report)])
        assert rc == 1
        error = "could not draw an acceptable risk-bound trial in 0 attempts"
        assert [json.loads(ln) for ln in report.read_text().splitlines()] == [
            {"trial": i, "satisfied": False, "error": error} for i in range(2)
        ]
        assert "theorem 2: 0/2 trials satisfied" in capsys.readouterr().out

    def test_violated_bound_counts_as_failed(self, capsys, monkeypatch):
        violated = BoundReport("mixture-kl", lhs=1.0, rhs=0.0, tolerance=0.0, satisfied=False)
        monkeypatch.setattr(lddg.cli, "verify_mixture_kl_bound", lambda trial: violated)
        rc = main(["verify", "--theorem", "1", "--trials", "2"])
        assert rc == 1
        assert "theorem 1: 0/2 trials satisfied" in capsys.readouterr().out

    def test_zero_trials_is_usage_error(self, capsys):
        rc = main(["verify", "--theorem", "1", "--trials", "0"])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "1", "--seed", "-1",
                   "--report", str(report)])
        assert rc == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not report.exists()

    def test_bad_theorem_number_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "3"])
        assert exc.value.code == 2


class TestSweepRank:
    def test_table_shape_and_parity_with_train_eval(
        self, workspace, tmp_path, capsys
    ):
        table = tmp_path / "sweep.csv"
        rc = main([
            "sweep-rank", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--ranks", "3", "--seeds", "0", "--out", str(table),
        ])
        assert rc == 0
        rows = table.read_text().splitlines()
        assert rows[0] == "rank,mean,std,acc_seed0"
        assert len(rows) == 2
        swept = float(rows[1].split(",")[1])

        model = tmp_path / "m.ckpt"
        rc = main([
            "train", "--config", str(_config_with(tmp_path, "train", rank_target=3, seed=0)),
            "--sources", str(workspace["sources"]), "--model-out", str(model),
        ])
        assert rc == 0
        out = tmp_path / "eval.json"
        rc = main(["eval", "--model", str(model),
                   "--data", str(workspace["target"]), "--out", str(out)])
        assert rc == 0
        direct = json.loads(out.read_text())["accuracy"]
        assert abs(swept - direct) < 5e-7  # table rounds to 6 decimals

    def test_multiple_ranks_row_count(self, workspace, tmp_path):
        table = tmp_path / "sweep.csv"
        rc = main([
            "sweep-rank", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--ranks", "2,4", "--seeds", "0,1", "--out", str(table),
        ])
        assert rc == 0
        rows = table.read_text().splitlines()
        assert len(rows) == 3
        assert rows[0] == "rank,mean,std,acc_seed0,acc_seed1"

    def test_duplicate_ranks_usage_error(self, workspace, capsys):
        rc = main([
            "sweep-rank", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--ranks", "2,2", "--seeds", "0",
        ])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_zero_batch_per_domain_names_the_key(self, workspace, tmp_path, capsys):
        rc = main([
            "sweep-rank", "--config", str(_config_with(tmp_path, "train", batch_per_domain=0)),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--ranks", "2",
        ])
        assert rc == 1
        assert "batch_per_domain must be >= 1" in capsys.readouterr().err

    def test_bad_rank_list_usage_error(self, workspace, capsys):
        rc = main([
            "sweep-rank", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--ranks", "2,x",
        ])
        assert rc == 2


class TestAblate:
    def test_without_cells_trains_all_six(self, workspace, tmp_path):
        table = tmp_path / "ablate.csv"
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--seeds", "0", "--out", str(table),
        ])
        assert rc == 0
        rows = table.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == list(ABLATION_CELLS)

    def test_cell_subset_table(self, workspace, tmp_path):
        table = tmp_path / "ablate.csv"
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--cells", "none,rank+kl", "--seeds", "0", "--out", str(table),
        ])
        assert rc == 0
        rows = table.read_text().splitlines()
        assert rows[0] == "cell,mean,std,acc_seed0"
        assert [r.split(",")[0] for r in rows[1:]] == ["none", "rank+kl"]

    def test_negative_seed_names_the_seed_before_training(self, workspace, tmp_path, capsys):
        table = tmp_path / "ablate.csv"
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--cells", "none", "--seeds", "0,-1", "--out", str(table),
        ])
        assert rc == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not table.exists()

    @pytest.mark.parametrize("cells", ["", " "])
    def test_empty_cell_list_usage_error(self, workspace, capsys, cells):
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--cells", cells, "--seeds", "0",
        ])
        assert rc == 2
        assert "empty cell list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cells, seeds, message",
        [("none", "0,0", "duplicate seed values"), ("rank,rank", "0", "duplicate cell values")],
    )
    def test_repeated_cell_or_seed_rejected_before_training(
        self, workspace, tmp_path, capsys, cells, seeds, message
    ):
        table = tmp_path / "ablate.csv"
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--cells", cells, "--seeds", seeds, "--out", str(table),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not table.exists()

    def test_unknown_cell_usage_error(self, workspace, capsys):
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--cells", "bogus", "--seeds", "0",
        ])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err


class TestCommaLists:
    """Every comma-list flag reads one way: an empty item is a usage error
    that names the flag, before anything runs."""

    @pytest.mark.parametrize("flag, value", [
        ("--cells", "rank,,kl"), ("--seeds", "0,,1"), ("--cells", "none,"),
        ("--seeds", ",0"),
    ])
    def test_ablate_empty_item(self, workspace, tmp_path, capsys, flag, value):
        table = tmp_path / "ablate.csv"
        flags = {"--cells": "none", "--seeds": "0", flag: value}
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--out", str(table), *(tok for kv in flags.items() for tok in kv),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag}: empty item in " \
            f"{flag[2:-1]} list {value!r}\n"
        assert not table.exists()

    def test_sweep_rank_empty_item(self, workspace, tmp_path, capsys):
        table = tmp_path / "sweep.csv"
        rc = main([
            "sweep-rank", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--ranks", "1,,2", "--seeds", "0", "--out", str(table),
        ])
        assert rc == 2
        assert "--ranks: empty item in rank list '1,,2'" in capsys.readouterr().err
        assert not table.exists()

    def test_verify_classes_empty_item(self, tmp_path, capsys):
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "2", "--classes", "2,,7",
                   "--report", str(report)])
        assert rc == 2
        assert "--classes: empty item in classes list '2,,7'" in capsys.readouterr().err
        assert not report.exists()


class TestOutputOverInput:
    """An output flag at the path of one of the command's inputs is a usage
    error naming both flags, and the input keeps its bytes."""

    @pytest.mark.parametrize("argv, victim, flags", [
        (["eval", "--model", "{model}", "--data", "{target}", "--out", "{model}"],
         "model", ("--model", "--out")),
        (["ablate", "--config", "{config}", "--sources", "{sources}",
          "--target", "{target}", "--out", "{target}"], "target", ("--target", "--out")),
        (["gen-data", "--config", "{config}", "--out-sources", "{tmp}/s.txt",
          "--out-target", "{config}"], "config", ("--config", "--out-target")),
        (["train", "--sources", "{sources}", "--metrics-out", "{sources}"],
         "sources", ("--sources", "--metrics-out")),
    ], ids=["eval", "ablate", "gen-data", "train"])
    def test_is_usage_error(self, workspace, model, tmp_path, capsys, argv, victim, flags):
        paths = {"model": model, **{k: workspace[k] for k in ("config", "sources", "target")}}
        copies = {"tmp": tmp_path}
        for name, path in paths.items():
            copies[name] = tmp_path / path.name
            copies[name].write_bytes(path.read_bytes())
        rc = main([tok.format(**copies) for tok in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert flags[0] in err and flags[1] in err
        assert copies[victim].read_bytes() == paths[victim].read_bytes()

    def test_two_inputs_may_share_a_path(self, workspace, capsys):
        rc = main(["ablate", "--config", str(workspace["config"]),
                   "--sources", str(workspace["sources"]),
                   "--target", str(workspace["sources"]), "--cells", "none", "--seeds", "0"])
        assert rc == 0


class TestStdoutMatchesFile:
    """Without its output flag a command prints the bytes it would write to
    the flag's file, next to the same summary lines."""

    @pytest.mark.parametrize("argv, flag", [
        (["eval", "--model", "{model}", "--data", "{target}"], "--out"),
        (["verify", "--theorem", "1", "--trials", "3"], "--report"),
        (["verify", "--theorem", "2", "--trials", "3", "--samples", "50"], "--report"),
        (["sweep-rank", "--config", "{config}", "--sources", "{sources}",
          "--target", "{target}", "--ranks", "2,3", "--seeds", "0"], "--out"),
        (["ablate", "--config", "{config}", "--sources", "{sources}",
          "--target", "{target}", "--cells", "none,rank", "--seeds", "0"], "--out"),
    ], ids=["eval", "verify-1", "verify-2", "sweep-rank", "ablate"])
    def test_same_bytes(self, workspace, model, tmp_path, capsys, argv, flag):
        argv = [tok.format(model=model, **workspace) for tok in argv]
        out = tmp_path / "out"
        assert main(argv + [flag, str(out)]) == 0
        summary = "".join(line for line in capsys.readouterr().out.splitlines(keepends=True)
                          if not line.startswith("wrote table"))
        assert main(argv) == 0
        printed = capsys.readouterr().out.encode()
        written = out.read_bytes()
        assert printed in (summary.encode() + written, written + summary.encode())


@pytest.mark.parametrize("path", ["README.md", "demos/cli_walkthrough.sh"])
def test_documented_command_lines_parse(path):
    """Every ``lddg`` command line the docs show names only flags that exist."""
    text = (ROOT / path).read_text()
    if path == "README.md":  # the fenced block of its "Command line" section
        text = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = text.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("lddg ")]
    assert len(commands) >= 6
    for argv in commands:
        build_parser().parse_args(argv)
