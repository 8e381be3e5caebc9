"""End-to-end tests of the command-line interface (in-process)."""

import dataclasses
import json

import numpy as np
import pytest

from lddg.cli import main
from lddg.data import load_dataset, save_dataset
from lddg.experiments import evaluate
from lddg.model import load_checkpoint
from lddg.theory import make_mixture_kl_trial, verify_mixture_kl_bound

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

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        src2, tgt2 = tmp_path / "s.txt", tmp_path / "t.txt"
        rc = main([
            "gen-data", "--config", str(workspace["config"]), "--seed", "9",
            "--out-sources", str(src2), "--out-target", str(tgt2),
        ])
        assert rc == 0
        assert src2.read_bytes() != workspace["sources"].read_bytes()

    def test_missing_output_path_is_usage_error(self, workspace, capsys):
        rc = main(["gen-data", "--config", str(workspace["config"])])
        assert rc == 2
        assert "output path" in capsys.readouterr().err

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
        for raw in ({"synth": {}}, {"loss": {}}):
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

    def test_output_path_of_the_wrong_type_names_the_key(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synthetic": TINY_SYNTH,
                                   "outputs": {"sources": ["a"], "target": "t.txt"}}))
        rc = main(["gen-data", "--config", str(bad)])
        assert rc == 1
        assert "sources" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["gen-data", "--config", str(bad),
                     "--out-sources", str(tmp_path / "s"),
                     "--out-target", str(tmp_path / "t")]) == 2


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

    def test_flag_overrides_config_epochs(self, workspace, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--metrics-out", str(metrics), "--epochs", "1",
        ])
        assert rc == 0
        lines = [json.loads(ln) for ln in metrics.read_text().splitlines()]
        assert sum(ln["kind"] == "epoch" for ln in lines) == 1

    def test_zero_epochs_is_rejected(self, workspace, capsys):
        rc = main([
            "train", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]), "--epochs", "0",
        ])
        assert rc == 1
        assert "epochs must be >= 1" in capsys.readouterr().err

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
        "flag, value", [("--rank-mode", "per_batch"), ("--loss-kind", "cross_entropy")]
    )
    def test_removed_flags_are_usage_errors(self, workspace, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--sources", str(workspace["sources"]), flag, value])
        assert exc.value.code == 2


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
        [(b"LDDG-MODEL 1\n", "line 2"), (b"LDDG-MODEL 1\n5\nlinear 3\n", "line 3")],
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
         (["--classes", "1"], "num_classes")],
    )
    def test_theorem_2_edge_inputs_name_the_argument(self, tmp_path, capsys, flags, name):
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "1", "--report", str(report),
                   *flags])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not report.exists()

    def test_theorem_2_cycles_class_counts(self, tmp_path, capsys):
        report = tmp_path / "t2.jsonl"
        rc = main(["verify", "--theorem", "2", "--trials", "4",
                   "--samples", "500", "--report", str(report)])
        assert rc == 0
        records = [json.loads(ln) for ln in report.read_text().splitlines()]
        assert [r["detail"]["num_classes"] for r in records] == [2, 7, 2, 7]
        assert all(r["satisfied"] for r in records)

    def test_zero_trials_is_usage_error(self, capsys):
        rc = main(["verify", "--theorem", "1", "--trials", "0"])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

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
            "train", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]), "--model-out", str(model),
            "--rank-target", "3", "--seed", "0",
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

    def test_zero_batch_per_domain_names_the_flag(self, workspace, capsys):
        rc = main([
            "sweep-rank", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--batch-per-domain", "0", "--ranks", "2",
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

    def test_output_path_of_the_wrong_type_names_the_key(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": TINY_TRAIN, "outputs": {"table": 7}}))
        rc = main([
            "ablate", "--config", str(bad),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--cells", "none", "--seeds", "0",
        ])
        assert rc == 1
        assert "table" in capsys.readouterr().err

    def test_unknown_cell_usage_error(self, workspace, capsys):
        rc = main([
            "ablate", "--config", str(workspace["config"]),
            "--sources", str(workspace["sources"]),
            "--target", str(workspace["target"]),
            "--cells", "bogus", "--seeds", "0",
        ])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err
