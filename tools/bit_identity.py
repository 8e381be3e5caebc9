"""Fingerprints of every result lddg computes, to compare two trees bit for bit.

    PYTHONPATH=src python tools/bit_identity.py > out.txt

Run it on each tree and compare the outputs: any line that differs names
the result that changed.  It covers the study rows of all six ablation
cells and of ranks 1-8 (with 48-row and with 600-row steps, the latter
also with one seed, so that every member of a group shares it), of the six
cells with trunk layers of three widths on 48-row and 24-row steps, of the
six cells over seeds 0-4 on criterion 08's data and training, the bytes
of the two files ``lddg gen-data`` writes, the checkpoint bytes, the
metrics JSONL (without its wall time) and the stdout of ``lddg train``,
the output of ``lddg eval``, the ``lddg verify`` reports and stdout for
both theorems (also at the benchmark's trial counts, 600 for theorem 1 and
90 for theorem 2, seeds 0 and 2121, and theorem 2 with five class counts
and 333 samples), the CSV tables and stdout of small ``lddg sweep-rank``
and ``lddg ablate`` runs, the stdout of ``eval``, ``verify``, ``sweep-rank``
and ``ablate`` when they are given no output path, and the bytes of
``true_latent_matrix`` for the default config and a noiseless 5-domain one.
It also covers one model's ``forward``, ``total_loss`` and ``backward`` on
criterion 04's 20 configurations (every trace array, the loss parts and
the gradient bytes), and a ``save_checkpoint`` -> ``load_checkpoint`` ->
``save_checkpoint`` round trip of the trained model's file.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace

import numpy as np

from lddg import cli
from lddg.data import SyntheticConfig, generate_synthetic, save_dataset, true_latent_matrix
from lddg.experiments import ablate_components, sweep_rank
from lddg.model import (TrainConfig, backward, forward, init_params, load_checkpoint,
                        save_checkpoint, total_loss)


def _digest(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def _lone_steps():
    """One line per criterion 04 configuration: the digests of one model's
    trace arrays, loss parts and gradients."""
    weights = [0.0, 0.001, 0.4]
    configs = [(l1, l2, seed) for seed, (l1, l2) in enumerate(itertools.product(weights, weights))]
    configs += [(0.001, 0.4, 100 + k) for k in range(20 - len(configs))]
    for l1, l2, seed in configs:
        cfg = TrainConfig(lambda1=l1, lambda2=l2, latent_dim=6, encoder_dims=(8, 8),
                          head_hidden_dim=8)
        rng = np.random.default_rng(seed)
        params = init_params(10, 3, cfg, rng)
        x = rng.standard_normal((9, 10))
        labels = rng.integers(0, 3, 9)
        noise = rng.standard_normal((9, 6))
        trace = forward(params, x, noise)
        value, parts = total_loss(trace, labels, cfg)
        grads = backward(params, trace, labels, cfg)
        arrays = [*trace.trunk_act, trace.posterior.mu, trace.posterior.log_var, trace.noise,
                  trace.z, trace.logits, trace.d_logits, trace.kl_mu, trace.kl_log_var]
        arrays += [a for a in (trace.rank_sub, trace.sigma) if a is not None]
        print("lone step", l1, l2, seed,
              "trace", _digest(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)),
              "parts", repr((value, parts)),
              "grads", _digest(b"".join(np.ascontiguousarray(a).tobytes() for a in grads.flat())))


def main():
    noiseless = SyntheticConfig(num_domains=5, num_classes=3, feature_dim=10,
                                latent_dim_true=5, domain_scales=(0.4, 1.1, 2.5, 0.9, 1.7),
                                target_mixture=(0.2,) * 5, noise_std=0.0, seed=7)
    for name, cfg in (("default", SyntheticConfig()), ("noiseless", noiseless)):
        print("true_latent_matrix", name, _digest(true_latent_matrix(cfg).tobytes()))
    small = SyntheticConfig(samples_per_domain_class=20, target_samples_per_class=100)
    sources, target = generate_synthetic(small)
    base = TrainConfig(epochs=3)
    for row in ablate_components(base, sources, target, seeds=(0, 1)):
        print("ablate", repr(asdict(row)))
    for row in sweep_rank(base, sources, target, ranks=range(1, 9), seeds=(0, 1)):
        print("sweep-48", repr(asdict(row)))
    # criterion 09's regime: one 600-row step per epoch
    full = replace(base, lambda1=0.5, lambda2=0.01, learning_rate=1e-2, weight_decay=0.0,
                   batch_per_domain=200, lr_decay_every=300, epochs=20)
    sources6, target6 = generate_synthetic(SyntheticConfig(offset_scale=0.6))
    for row in sweep_rank(full, sources6, target6, ranks=range(1, 9), seeds=(0, 1)):
        print("sweep-600", repr(asdict(row)))
    for row in sweep_rank(full, sources6, target6, ranks=range(1, 9), seeds=(0,)):
        print("sweep-600-one-seed", repr(asdict(row)))
    default = generate_synthetic(SyntheticConfig())
    # trunk widths 24, 40 and 8 on the default data: 12 batches of 48 rows, then one of 24
    mixed = replace(base, encoder_dims=(24, 40), head_hidden_dim=8, latent_dim=12)
    for row in ablate_components(mixed, *default, seeds=(0, 1)):
        print("ablate-mixed-widths", repr(asdict(row)))
    # criterion 08's data and training, all six cells over seeds 0-4: 30 members
    for row in ablate_components(TrainConfig(), *default, seeds=range(5)):
        print("ablate-30", repr(asdict(row)))
    _lone_steps()

    with tempfile.TemporaryDirectory() as tmp:
        path = {name: os.path.join(tmp, name) for name in
                ("src.txt", "tgt.txt", "model.bin", "model2.bin", "metrics.jsonl", "eval.json",
                 "kl.jsonl", "risk.jsonl", "gen.json", "gen-src.txt", "gen-tgt.txt",
                 "train.json", "study.json", "sweep.csv", "ablate.csv")}
        with open(path["gen.json"], "w") as fh:
            json.dump({"synthetic": {"seed": 5, "samples_per_domain_class": 10}}, fh)
        code, out = _run(["gen-data", "--config", path["gen.json"],
                          "--out-sources", path["gen-src.txt"], "--out-target", path["gen-tgt.txt"]])
        with open(path["gen-src.txt"], "rb") as src, open(path["gen-tgt.txt"], "rb") as tgt:
            print("gen-data exit", code, "stdout", _digest(out.replace(tmp, "<tmp>")),
                  "sources", _digest(src.read()), "target", _digest(tgt.read()))
        save_dataset(path["src.txt"], sources)
        save_dataset(path["tgt.txt"], target)
        with open(path["train.json"], "w") as fh:
            json.dump({"train": {"epochs": 4, "seed": 3, "log_singular_values": True}}, fh)
        code, out = _run(["train", "--config", path["train.json"], "--sources", path["src.txt"],
                          "--target", path["tgt.txt"], "--model-out", path["model.bin"],
                          "--metrics-out", path["metrics.jsonl"]])
        print("train exit", code, "stdout", _digest(out.replace(tmp, "<tmp>")))
        with open(path["model.bin"], "rb") as fh:
            written = fh.read()
        print("checkpoint", _digest(written))
        save_checkpoint(path["model2.bin"], load_checkpoint(path["model.bin"]))
        with open(path["model2.bin"], "rb") as fh:
            again = fh.read()
        print("checkpoint round trip", _digest(again), "same bytes", again == written)
        with open(path["metrics.jsonl"]) as fh:
            records = [json.loads(line) for line in fh]
        for rec in records:
            rec.pop("wall_time_s", None)
        print("metrics", _digest(json.dumps(records)))
        code, out = _run(["eval", "--model", path["model.bin"], "--data", path["tgt.txt"],
                          "--out", path["eval.json"]])
        with open(path["eval.json"]) as fh:
            print("eval exit", code, "stdout", _digest(out.replace(tmp, "<tmp>")),
                  "record", _digest(fh.read()))
        code, out = _run(["eval", "--model", path["model.bin"], "--data", path["tgt.txt"]])
        print("eval to stdout exit", code, "stdout", _digest(out))
        for theorem, report in (("1", "kl.jsonl"), ("2", "risk.jsonl")):
            code, out = _run(["verify", "--theorem", theorem, "--trials", "40", "--seed", "7",
                              "--report", path[report]])
            with open(path[report]) as fh:
                print(f"verify {theorem} exit", code, "stdout", _digest(out.replace(tmp, "<tmp>")),
                      "report", _digest(fh.read()))
            code, out = _run(["verify", "--theorem", theorem, "--trials", "40", "--seed", "7"])
            print(f"verify {theorem} to stdout exit", code, "stdout", _digest(out))
        for seed in ("0", "2121"):
            code, out = _run(["verify", "--theorem", "1", "--trials", "600", "--seed", seed,
                              "--report", path["kl.jsonl"]])
            with open(path["kl.jsonl"]) as fh:
                print(f"verify 1 x600 seed {seed} exit", code,
                      "stdout", _digest(out.replace(tmp, "<tmp>")), "report", _digest(fh.read()))
        for seed in ("0", "2121"):
            code, out = _run(["verify", "--theorem", "2", "--trials", "90", "--seed", seed,
                              "--report", path["risk.jsonl"]])
            with open(path["risk.jsonl"]) as fh:
                print(f"verify 2 x90 seed {seed} exit", code,
                      "stdout", _digest(out.replace(tmp, "<tmp>")), "report", _digest(fh.read()))
        code, out = _run(["verify", "--theorem", "2", "--trials", "40", "--seed", "3",
                          "--classes", "2,3,7,8,16", "--samples", "333",
                          "--report", path["risk.jsonl"]])
        with open(path["risk.jsonl"]) as fh:
            print("verify 2 classes 2,3,7,8,16 samples 333 exit", code,
                  "stdout", _digest(out.replace(tmp, "<tmp>")), "report", _digest(fh.read()))
        with open(path["study.json"], "w") as fh:
            json.dump({"train": {"epochs": 2, "lambda1": 0.2}}, fh)
        data = ["--config", path["study.json"], "--sources", path["src.txt"],
                "--target", path["tgt.txt"], "--seeds", "0,1"]
        for name, variant in (("sweep", ["sweep-rank", "--ranks", "2,5"]),
                              ("ablate", ["ablate", "--cells", "none,rank,nuclear+kl"])):
            code, out = _run(variant + data + ["--out", path[f"{name}.csv"]])
            with open(path[f"{name}.csv"], "rb") as fh:
                print(f"{variant[0]} exit", code, "stdout", _digest(out.replace(tmp, "<tmp>")),
                      "table", _digest(fh.read()))
            code, out = _run(variant + data)
            print(f"{variant[0]} to stdout exit", code, "stdout", _digest(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
