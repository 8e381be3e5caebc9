"""Tests of the benchmark's own checks, tracer and a tiny run of each workload.

Each check is shown to pass on a good input and to fail on a corrupted one.
Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

lddg = workloads.load_program()
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

VERIFY_TINY = dict(kl_trials=5, risk_trials=2, quadrature_sample=2)
TINY = {
    "ablate-default": dict(
        epochs=2, seeds_per_round=1, acc_rounds=1, **VERIFY_TINY,
        synthetic=dict(samples_per_domain_class=4, target_samples_per_class=10),
    ),
    "sweep-fullbatch": dict(
        epochs=2, acc_rounds=2, **VERIFY_TINY,
        synthetic=dict(samples_per_domain_class=4, target_samples_per_class=10),
    ),
}


def _row(cell, accs):
    return SimpleNamespace(cell=cell, accuracies=accs, mean=float(np.mean(accs)), std=float(np.std(accs)))


def test_study_rows_accept_counts_and_reject_a_non_multiple_of_1_over_n():
    good = [_row("rank", [401 / 1600, 1200 / 1600]), _row("none", [0.5, 0.25])]
    assert checks.check_study_rows(good, "cell", ["rank", "none"], 2, 1600) == []
    bad = [_row("rank", [401 / 1600 + 1e-4, 0.75]), _row("none", [0.5, 0.25])]
    errors = checks.check_study_rows(bad, "cell", ["rank", "none"], 2, 1600)
    assert len(errors) == 1 and "multiple of 1/1600" in errors[0]


def test_study_rows_reject_wrong_order_count_and_mean():
    rows = [_row("rank", [0.5, 0.25]), _row("none", [0.5, 0.25])]
    assert checks.check_study_rows(rows, "cell", ["none", "rank"], 2, 1600)
    assert checks.check_study_rows(rows, "cell", ["rank", "none"], 3, 1600)
    rows[1].mean += 1e-6
    assert checks.check_study_rows(rows, "cell", ["rank", "none"], 2, 1600)


def _verify_records(tmp_path, theorem, trials):
    report = tmp_path / f"t{theorem}.jsonl"
    code = lddg.cli.main(["verify", "--theorem", str(theorem), "--trials", str(trials),
                          "--seed", "5", "--report", str(report)])
    assert code == 0
    return [json.loads(line) for line in report.read_text().splitlines()]


def _kl_trial_params(index):
    trial = lddg.theory.make_mixture_kl_trial(5, index)
    mus = [float(p.mu[0, 0]) for p in trial.source_posteriors]
    var = [float(np.exp(p.log_var[0, 0])) for p in trial.source_posteriors]
    return mus, var


def test_report_with_one_violating_trial_fails(tmp_path, capsys):
    records = _verify_records(tmp_path, 1, 4)
    assert checks.check_report_records(records, 4, 1) == []
    for rec in records:
        mus, var = _kl_trial_params(rec["trial"])
        assert checks.check_mixture_kl_rhs(rec, mus, var) == []
        assert checks.check_mixture_kl_lhs(rec, mus, var) == []
    broken = [dict(r) for r in records]
    broken[2]["lhs"] = broken[2]["rhs"] + 2 * broken[2]["tolerance"] + 1e-3
    errors = checks.check_report_records(broken, 4, 1)
    assert len(errors) == 1 and "trial 2" in errors[0]
    mus, var = _kl_trial_params(2)
    assert checks.check_mixture_kl_lhs(broken[2], mus, var)
    broken[1]["satisfied"] = False
    assert len(checks.check_report_records(broken, 4, 1)) == 2


def test_risk_bound_rhs_is_recomputed(tmp_path, capsys):
    records = _verify_records(tmp_path, 2, 2)
    assert all(checks.check_risk_rhs(r, workloads.VERIFY_CLASSES) == [] for r in records)
    records[1]["rhs"] *= 1.0 + 1e-9
    assert checks.check_risk_rhs(records[1], workloads.VERIFY_CLASSES)
    records[0]["detail"]["num_classes"] = 3
    assert checks.check_risk_rhs(records[0], workloads.VERIFY_CLASSES)


def test_quadrature_matches_the_closed_form_for_one_component():
    for mu, var in ((0.0, 1.0), (2.5, 0.09), (-3.0, 4.0)):
        got = checks.mixture_kl_quadrature([1.0], [mu], [var])
        assert abs(got - checks.closed_form_kl(mu, var)) < 1e-8  # tails beyond +-16


def test_perturbed_singular_values_fail():
    z = np.random.default_rng(0).standard_normal((48, 16))
    res = lddg.linalg.svd(z)
    assert checks.check_singular_values(z, res.sigma) == []
    sigma = res.sigma.copy()
    sigma[5] *= 1.0 + 1e-6
    assert checks.check_singular_values(z, sigma)
    assert checks.check_singular_values(z, res.sigma[:-1])
    value = lddg.regularizers.rank_loss(z, 4).value
    assert checks.check_rank_loss_value(z, 4, value) == []
    assert checks.check_rank_loss_value(z, 4, float(res.sigma[3]))
    assert checks.check_rank_loss_value(z[:, :4], 4, 0.0) == []


def test_plain_numpy_forward_agrees_with_evaluate():
    data = lddg.data
    src, tgt = data.generate_synthetic(
        data.SyntheticConfig(samples_per_domain_class=4, target_samples_per_class=10)
    )
    params, _ = lddg.experiments.train(lddg.model.TrainConfig(epochs=2), src)
    acc = checks.posterior_mean_accuracy(params, tgt.features, tgt.labels)
    assert acc == lddg.experiments.evaluate(params, tgt).accuracy
    assert checks.check_retrained_member(acc, acc + 0.004, "m") == []
    assert checks.check_retrained_member(acc, acc + 0.006, "m")


def test_tracer_skips_missing_names_and_restores_the_originals(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .model import loss_and_grads\n")
    (pkg / "linalg.py").write_text("def svd(z):\n    return z\n")
    (pkg / "model.py").write_text(
        "from .linalg import svd\n\n"
        "def loss_and_grads(z):\n    return svd(z) + 1\n\n"
        "def _private(z):\n    return z\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    original = fakepkg.loss_and_grads
    tr = tracer.Tracer(package="fakepkg")
    with tr:
        assert fakepkg.loss_and_grads(1) == 2
        assert fakepkg.model._private.__name__ == "_private"
    assert fakepkg.loss_and_grads is original
    stats, oracle_ns = tracer.summarize(tr.spans)
    assert sorted(stats) == ["linalg.svd", "model.loss_and_grads"]
    assert stats["model.loss_and_grads"][0] == 1 and oracle_ns == 0
    assert stats["model.loss_and_grads"][2] <= stats["model.loss_and_grads"][1]
    rnd = workloads.Round(ops=1, steps=4, members=1, parts={"train": 1e-3})
    metrics = workloads._per_layer(tr, tracer.Tracer(package="fakepkg"), [rnd], 1e-3)
    assert "model.total_loss.self_us_per_call" not in metrics
    assert "linalg.svd.us_per_call" in metrics


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_each_workload_is_correct(name, trace, tmp_path):
    result, errors = workloads.run(name, 3, 0.01, trace, sizes=TINY[name], out_dir=tmp_path)
    assert errors == [] and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert units == declared  # every declared metric, in its unit, on every workload
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.jsonl.gz").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("tmp-")]


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ablate-default", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2 and done.stdout == ""
