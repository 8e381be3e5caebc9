"""The two workloads of the lddg benchmark and the loop that times them.

A workload is set up (datasets generated, written, read back, a warm-up
study and a warm-up ``lddg verify``), then runs whole rounds until the
measured time reaches ``seconds``.  A round is one study (the workload's
training regime), then ``lddg verify`` for theorem 1 and for theorem 2,
always in that order; each part is timed on its own, so every end-to-end
metric is measured in every workload and samples the host's speed across
the whole run.  Every round calls the program the same way, only through
its public functions, and every output is checked with ``checks``.  With
``trace`` each round runs twice, once bare and once under the ``Tracer``,
in alternating order, so the traced run also gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from tracer import LAYERS, Tracer, enclosing, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15

# What each ablation cell means, from the paper's objective
# CE + lambda1 * penalty + lambda2 * KL: (uses lambda1, uses lambda2, penalty).
CELLS = {
    "none": (False, False, "rank"),
    "rank": (True, False, "rank"),
    "kl": (False, True, "rank"),
    "nuclear": (True, False, "nuclear"),
    "nuclear+kl": (True, True, "nuclear"),
    "rank+kl": (True, True, "rank"),
}
# Criterion 09's training settings; the benchmark runs fewer epochs.
SWEEP_TRAIN = dict(
    lambda1=0.5, lambda2=0.01, learning_rate=1e-2, weight_decay=0.0,
    batch_per_domain=200, lr_decay_every=300,
)
SWEEP_DATA = dict(offset_scale=0.6)
VERIFY_CLASSES = (2, 7)  # lddg verify's default --classes
THEOREMS = {1: "kl", 2: "risk"}  # theorem -> name of its timed part


class ProgramMissing(Exception):
    """The checkout holds no importable lddg package."""


def load_program():
    """Import lddg from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "lddg" / "__init__.py").is_file():
        raise ProgramMissing(f"no lddg package under {src}")
    sys.path.insert(0, str(src))
    try:
        lddg = importlib.import_module("lddg")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import lddg: {exc}") from exc
    if Path(lddg.__file__).resolve().parent != (src / "lddg").resolve():
        raise ProgramMissing(f"imported lddg from {lddg.__file__}, not from {src}")
    for layer in ("data", "experiments", "model", "cli", "theory"):
        importlib.import_module(f"lddg.{layer}")
    return lddg


def import_seconds():
    """Wall time of ``import lddg`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import lddg; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(work, tmp):
    """One fresh ``import lddg`` plus one set-up of the workload."""
    import_s = import_seconds()
    t0 = time.perf_counter()
    work.setup(tmp)
    return import_s + time.perf_counter() - t0


def batches_per_epoch(ds, batch_per_domain):
    """Every domain is cut into ceil(rows / batch_per_domain) slices."""
    counts = np.bincount(ds.domain_ids, minlength=ds.num_domains)
    return int(max(math.ceil(c / batch_per_domain) for c in counts))


@dataclasses.dataclass
class Round:
    """What one round did: operations, steps, failures, outputs and timings."""

    ops: int = 0
    steps: int = 0
    members: int = 0
    failed: int = 0
    rows: object = None  # the study's rows
    reports: dict = dataclasses.field(default_factory=dict)  # theorem -> verify output
    parts: dict = dataclasses.field(default_factory=dict)  # "train", "kl", "risk" -> seconds

    @property
    def seconds(self):
        return sum(self.parts.values())


class Verifier:
    """``lddg verify`` for theorem 1, then theorem 2, each writing a report."""

    def __init__(self, lddg, seed, errors, kl_trials, risk_trials, quadrature_sample):
        self.lddg, self.seed, self.errors = lddg, seed, errors
        self.trials = {1: kl_trials, 2: risk_trials}
        self.quadrature_sample = quadrature_sample
        self.tmp = None
        self.first_reports = None

    def _verify(self, theorem, trials, report):
        argv = ["verify", "--theorem", str(theorem), "--trials", str(trials),
                "--seed", str(self.seed), "--report", str(report)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = self.lddg.cli.main(argv)
        return code, out.getvalue()

    def setup(self, tmp):
        self.tmp = Path(tmp)
        for theorem in THEOREMS:
            code, _ = self._verify(theorem, 1, self.tmp / "warm-up.jsonl")
            if code != 0:
                self.errors.append(f"warm-up verify --theorem {theorem} exited {code}")

    def run(self, rnd):
        for theorem, trials in self.trials.items():
            report = self.tmp / f"theorem{theorem}.jsonl"
            t0 = time.perf_counter()
            code, stdout = self._verify(theorem, trials, report)
            rnd.parts[THEOREMS[theorem]] = time.perf_counter() - t0
            text = report.read_text()
            records = [json.loads(line) for line in text.splitlines()]
            rnd.ops += trials
            rnd.failed += sum(1 for rec in records if rec.get("satisfied") is not True)
            rnd.reports[theorem] = (code, stdout, text, records)

    def check(self, rnd):
        """Checks the first reports in full, then that each later one is the same.

        Drops the round's reports afterwards, so memory does not grow with
        the number of rounds a run fits in.
        """
        reports, rnd.reports = rnd.reports, {}
        if self.first_reports is not None:
            for theorem, (_, _, text, _) in reports.items():
                if text != self.first_reports[theorem]:
                    self.errors.append(f"theorem {theorem}: report differs from round 0 for the same seed")
            return
        self.first_reports = {t: out[2] for t, out in reports.items()}
        theory = self.lddg.theory
        for theorem, (code, stdout, _, records) in reports.items():
            trials = self.trials[theorem]
            summary = f"theorem {theorem}: {trials}/{trials} trials satisfied"
            if code != 0 or summary not in stdout:
                self.errors.append(f"theorem {theorem}: exit {code}, summary {stdout.strip()[-80:]!r}")
            self.errors += checks.check_report_records(records, trials, theorem)
            if theorem == 2:
                for rec in records:
                    self.errors += checks.check_risk_rhs(rec, VERIFY_CLASSES)
                continue
            sample = set(np.random.default_rng([self.seed, 11]).choice(
                trials, size=min(self.quadrature_sample, trials), replace=False).tolist())
            for rec in records:
                trial = theory.make_mixture_kl_trial(self.seed, rec["trial"])
                mus = [float(p.mu[0, 0]) for p in trial.source_posteriors]
                var = [float(np.exp(p.log_var[0, 0])) for p in trial.source_posteriors]
                self.errors += checks.check_mixture_kl_rhs(rec, mus, var)
                if rec["trial"] in sample:
                    self.errors += checks.check_mixture_kl_lhs(rec, mus, var)


class _Study:
    """Shared part of the workloads: data, file round trip, rounds, checks.

    ``target_accuracy`` is the mean over the members of the first
    ``acc_rounds`` rounds.  Their training seeds do not depend on
    ``--seed``, so it is the mean over one fixed panel of members, the same
    in every run of the same program, instead of a draw whose spread across
    panels would swamp its bound.
    """

    synthetic = {}
    key = None  # the row attribute that names a study row

    def __init__(self, lddg, seed, epochs=None, synthetic=None, acc_rounds=None,
                 kl_trials=600, risk_trials=90, quadrature_sample=8):
        self.lddg, self.seed = lddg, seed
        self.epochs = epochs or self.epochs
        self.synthetic = {**self.synthetic, **(synthetic or {})}
        self.acc_rounds = self.min_rounds = acc_rounds or self.acc_rounds
        self.errors = []
        self.verifier = Verifier(lddg, seed, self.errors, kl_trials, risk_trials, quadrature_sample)
        self.sources = self.target = None

    def setup(self, tmp):
        data = self.lddg.data
        src, tgt = data.generate_synthetic(data.SyntheticConfig(**self.synthetic))
        loaded = []
        for name, ds in (("sources", src), ("target", tgt)):
            path = Path(tmp) / f"{name}.txt"
            data.save_dataset(path, ds)
            back = data.load_dataset(path)
            for field in ("features", "labels", "domain_ids"):
                if not np.array_equal(getattr(ds, field), getattr(back, field)):
                    self.errors.append(f"{name}: {field} changed in the save/load round trip")
            loaded.append(back)
        self.sources, self.target = loaded
        self.study(dataclasses.replace(self.base_config(), epochs=1), *self.warm_up_plan)
        self.verifier.setup(tmp)

    def run_round(self, r):
        order, seeds = self.plan(r)
        cfg = self.base_config()
        t0 = time.perf_counter()
        rows = self.study(cfg, order, seeds)
        members = len(order) * len(seeds)
        rnd = Round(
            ops=members, members=members, rows=rows,
            steps=members * cfg.epochs * batches_per_epoch(self.sources, cfg.batch_per_domain),
            parts={"train": time.perf_counter() - t0},
        )
        self.verifier.run(rnd)
        return rnd

    def check_round(self, r, rnd):
        order, seeds = self.plan(r)
        self.errors += checks.check_study_rows(rnd.rows, self.key, order, len(seeds), len(self.target))
        self.verifier.check(rnd)

    def check_pair(self, r, bare, traced):
        """Tracing must not change what the study or the reports hold."""
        if bare.rows != traced.rows:
            self.errors.append(f"round {r}: traced and untraced studies differ")
        self.check_round(r, bare)
        self.verifier.check(traced)

    def finish(self, rounds):
        """Retrains one member alone and checks the accuracies; returns target_accuracy."""
        accs = [a for rnd in rounds[: self.acc_rounds] for row in rnd.rows for a in row.accuracies]
        mean = float(np.mean(accs))
        name, cfg = self.retrain_member()
        study = next(row for row in rounds[0].rows if getattr(row, self.key) == name)
        params, _ = self.lddg.experiments.train(cfg, self.sources)
        acc = checks.posterior_mean_accuracy(params, self.target.features, self.target.labels)
        where = f"{self.key} {name} seed {cfg.seed}"
        self.errors += checks.check_retrained_member(acc, study.accuracies[0], where)
        self.errors += checks.check_above_chance(mean, self.target.num_classes, "target_accuracy")
        return mean


class AblateDefault(_Study):
    """All six ablation cells, two seeds a round, default data and training."""

    name = "ablate-default"
    key = "cell"
    epochs = 5
    acc_rounds = 6
    seeds_per_round = 2
    warm_up_plan = (["rank"], (0,))

    def __init__(self, lddg, seed, seeds_per_round=None, **sizes):
        super().__init__(lddg, seed, **sizes)
        self.seeds_per_round = seeds_per_round or self.seeds_per_round

    def base_config(self):
        return self.lddg.model.TrainConfig(epochs=self.epochs)

    def study(self, cfg, order, seeds):
        return self.lddg.experiments.ablate_components(cfg, self.sources, self.target, seeds=seeds, cells=order)

    def plan(self, r):
        """Cell order rotated by seed and round; training seeds 2r, 2r + 1."""
        names = list(CELLS)
        k = (self.seed + r) % len(names)
        first = self.seeds_per_round * r
        return names[k:] + names[:k], tuple(range(first, first + self.seeds_per_round))

    def retrain_member(self):
        cell = list(CELLS)[self.seed % len(CELLS)]
        use_l1, use_l2, penalty = CELLS[cell]
        base = self.base_config()
        return cell, dataclasses.replace(
            base,
            lambda1=base.lambda1 if use_l1 else 0.0,
            lambda2=base.lambda2 if use_l2 else 0.0,
            regularizer=penalty,
            seed=self.plan(0)[1][0],
        )


class SweepFullbatch(_Study):
    """Rank targets 1-8 on criterion 09's data and full-batch settings.

    A round trains half of the ranks, so that the rounds, and the verify
    passes between them, are as short as ablate-default's.
    """

    name = "sweep-fullbatch"
    key = "rank"
    epochs = 80
    acc_rounds = 8
    synthetic = SWEEP_DATA
    ranks = tuple(range(1, 9))
    warm_up_plan = ((4,), (0,))

    def base_config(self):
        return self.lddg.model.TrainConfig(epochs=self.epochs, **SWEEP_TRAIN)

    def study(self, cfg, order, seeds):
        return self.lddg.experiments.sweep_rank(cfg, self.sources, self.target, ranks=order, seeds=seeds)

    def plan(self, r):
        """Ranks rotated by seed and r // 2, first or second half; training seed r // 2."""
        k = (self.seed + r // 2) % len(self.ranks)
        order = self.ranks[k:] + self.ranks[:k]
        half = len(order) // 2
        return list(order[half * (r % 2):][:half]), (r // 2,)

    def retrain_member(self):
        """The first rank of round 0, at round 0's training seed."""
        rank = self.ranks[self.seed % len(self.ranks)]
        return rank, dataclasses.replace(self.base_config(), rank_target=rank, seed=self.plan(0)[1][0])


WORKLOADS = {w.name: w for w in (AblateDefault, SweepFullbatch)}


def _svd_oracle(args, out):
    sigma = getattr(out, "sigma", None)
    if sigma is None and isinstance(out, tuple) and len(out) == 3:
        sigma = out[1]
    if sigma is None or not args:
        return None
    return checks.check_singular_values(args[0], sigma, "traced linalg.svd")


def _rank_loss_oracle(args, out):
    value = getattr(out, "value", None)
    if value is None or len(args) < 2:
        return None
    return checks.check_rank_loss_value(args[0], int(args[1]), value, "traced rank_loss")


ORACLES = {"linalg.svd": _svd_oracle, "regularizers.rank_loss": _rank_loss_oracle}


def _run_rate(rounds, part, count):
    """``count(round)`` over the seconds of ``part``, summed over all rounds.

    The host's speed swings by a quarter within seconds; the rate over the
    whole run follows the share of time spent fast or slow, where a median
    of per-round rates jumps between the two.
    """
    return sum(count(r) for r in rounds) / sum(r.parts[part] for r in rounds)


def _end_to_end(work, rounds, setup_s, target_accuracy):
    trials = work.verifier.trials
    return {
        "setup_s": (setup_s, "s"),
        "train_steps_per_s": (_run_rate(rounds, "train", lambda r: r.steps), "steps/s"),
        "target_accuracy": (target_accuracy, "fraction"),
        "verify_kl_trials_per_s": (_run_rate(rounds, "kl", lambda r: trials[1]), "trials/s"),
        "verify_risk_trials_per_s": (_run_rate(rounds, "risk", lambda r: trials[2]), "trials/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _per_layer(tracer, setup_tracer, traced_rounds, bare_seconds):
    """Per-layer metrics from the spans of the traced rounds and set-up."""
    stats, oracle_ns = summarize(tracer.spans)
    setup_stats, _ = summarize(setup_tracer.spans)
    wall = sum(r.seconds for r in traced_rounds) - oracle_ns / 1e9
    steps = sum(r.steps for r in traced_rounds)
    members = sum(r.members for r in traced_rounds)
    n_rounds = len(traced_rounds)
    metrics = {}

    def put(name, value, unit):
        if value is not None:
            metrics[name] = (value, unit)

    def stat(table, spans, what, scale, per=None):
        """Calls, total or self time of the spans, scaled, per call or per ``per``."""
        rows = [table[s] for s in spans if s in table]
        if not rows or per == 0:
            return None
        calls, total, self_ns = (sum(col) for col in zip(*rows))
        value = {"total": total, "self": self_ns, "calls": calls}[what]
        return value / scale / (per if per is not None else calls)

    for fn in ("generate_synthetic", "save_dataset", "load_dataset"):
        put(f"data.{fn}.ms", stat(setup_stats, [f"data.{fn}"], "total", 1e6), "ms")
    put("data.sample_batches.us_per_call", stat(stats, ["data.sample_batches"], "total", 1e3), "us")
    put("experiments.train.self_us_per_step", stat(stats, ["experiments.train"], "self", 1e3, steps), "us")
    put("experiments.evaluate.ms_per_call", stat(stats, ["experiments.evaluate"], "total", 1e6), "ms")
    put("experiments.evaluate.calls_per_member", stat(stats, ["experiments.evaluate"], "calls", 1, members), "count")
    for name, spans, what in (
        ("model.forward.us_per_call", ["model.forward"], "total"),
        ("model.total_loss.self_us_per_call", ["model.total_loss"], "self"),
        ("model.backward.self_us_per_call", ["model.backward"], "self"),
        ("model.adam_step.us_per_call", ["model.adam_step"], "total"),
        ("losses.batch_mean.us_per_call", ["losses.batch_mean"], "total"),
        ("regularizers.rank_loss.self_us_per_call", ["regularizers.rank_loss"], "self"),
        # both low-rank penalties: sweep-fullbatch never calls nuclear_norm
        ("regularizers.penalty.self_us_per_call",
         ["regularizers.rank_loss", "regularizers.nuclear_norm"], "self"),
        ("regularizers.kl_standard_normal.us_per_call", ["regularizers.kl_standard_normal"], "total"),
        ("regularizers.reparameterize.us_per_call", ["regularizers.reparameterize"], "total"),
        ("linalg.svd.us_per_call", ["linalg.svd"], "total"),
        ("theory.make_mixture_kl_trial.us_per_call", ["theory.make_mixture_kl_trial"], "total"),
        ("theory.verify_mixture_kl_bound.us_per_call", ["theory.verify_mixture_kl_bound"], "total"),
        ("theory.make_risk_bound_trial.us_per_call", ["theory.make_risk_bound_trial"], "total"),
        ("theory.verify_risk_bound.us_per_call", ["theory.verify_risk_bound"], "total"),
    ):
        put(name, stat(stats, spans, what, 1e3), "us")
    for span in ("losses.batch_mean", "regularizers.kl_standard_normal", "linalg.svd"):
        put(f"{span}.calls_per_step", stat(stats, [span], "calls", 1, steps), "calls/step")
    put("cli.verify.self_ms", stat(stats, ["cli.cmd_verify"], "self", 1e6), "ms")

    if "linalg.svd" in stats and "experiments.train" in stats:
        put("linalg.svd.step_share", stats["linalg.svd"][1] / stats["experiments.train"][1], "ratio")
        in_train = useful = 0
        for i, span in enumerate(tracer.spans):
            if span[0] != "linalg.svd":
                continue
            owner = enclosing(tracer.spans, i, "experiments.train")
            cfg = tracer.notes.get(owner)
            if cfg is not None and hasattr(cfg, "lambda1"):
                in_train += 1
                useful += cfg.lambda1 > 0
        if in_train:
            put("linalg.svd.useful_ratio", useful / in_train, "ratio")

    attributed = 0
    for layer in LAYERS:
        names = [name for name in stats if name.split(".")[0] == layer]
        if names:
            self_ns = sum(stats[name][2] for name in names)
            put(f"layer.{layer}.self_ms_per_round", self_ns / 1e6 / n_rounds, "ms")
            attributed += self_ns
    put("trace.ms_per_round", wall * 1e3 / n_rounds, "ms")
    put("trace.unattributed_ms_per_round", (wall * 1e9 - attributed) / 1e6 / n_rounds, "ms")
    put("trace.overhead_pct", 100.0 * (wall / bare_seconds - 1.0), "%")
    put("trace.oracle_checks", tracer.checked, "count")
    return metrics


def _write_spans(path, spans):
    with gzip.open(path, "wt") as fh:
        for name, parent, t0, t1 in spans:
            fh.write(json.dumps([name, parent, t0, t1]) + "\n")


def _measure(work, tmp, seconds):
    """Untraced rounds; returns them with the set-up time.

    Set-up is timed ``SETUP_REPEATS`` times: once before the rounds, then
    at most once after each round, spread evenly over the measured time,
    and the rest after the last round.  Its median then samples the host's
    speed over the whole run, not over its first second.
    """
    setup_times = [setup_seconds(work, tmp)]
    every = seconds / SETUP_REPEATS
    rounds = []
    measured = 0.0
    while measured < seconds or len(rounds) < work.min_rounds:
        rnd = work.run_round(len(rounds))
        work.check_round(len(rounds), rnd)
        rounds.append(rnd)
        measured += rnd.seconds
        while len(setup_times) < SETUP_REPEATS and measured >= every * len(setup_times):
            setup_times.append(setup_seconds(work, tmp))
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_seconds(work, tmp))
    return rounds, statistics.median(setup_times)


def _measure_traced(work, tmp, seconds):
    """Each round bare and traced, alternating which runs first.

    Returns the bare rounds, the traced rounds and the tracers of the
    rounds and of one set-up.
    """
    work.setup(tmp)
    setup_tracer = Tracer()
    with setup_tracer:
        work.setup(tmp)
    tracer = Tracer(checks=ORACLES)
    bare, traced = [], []
    while sum(r.seconds for r in bare + traced) < seconds or not traced:
        r = len(traced)
        for traced_side in ((False, True) if r % 2 == 0 else (True, False)):
            if traced_side:
                with tracer:
                    traced.append(work.run_round(r))
            else:
                bare.append(work.run_round(r))
        work.check_pair(r, bare[-1], traced[-1])
    work.errors += tracer.errors
    return bare, traced, tracer, setup_tracer


def run(name, seed, seconds, trace, sizes=None, out_dir=OUT):
    """Set up, time and check one workload; returns the result and the errors."""
    lddg = load_program()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[name](lddg, seed, **(sizes or {}))
    traced = []
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
        if trace:
            rounds, traced, tracer, setup_tracer = _measure_traced(work, tmp, seconds)
        else:
            rounds, setup_s = _measure(work, tmp, seconds)
        target_accuracy = work.finish(rounds)
    if trace:
        metrics = _per_layer(tracer, setup_tracer, traced, sum(r.seconds for r in rounds))
        _write_spans(out_dir / f"trace-{name}-seed{seed}.jsonl.gz", tracer.spans)
    else:
        metrics = _end_to_end(work, rounds, setup_s, target_accuracy)
    result = {
        "correct": not work.errors,
        "attempted": sum(r.ops for r in rounds + traced),
        "failed": sum(r.failed for r in rounds + traced),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
    }
    saved = {**result, "rounds": [
        {"steps": r.steps, "ops": r.ops, "parts": r.parts} for r in rounds
    ]}
    (out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(saved) + "\n")
    return result, work.errors
