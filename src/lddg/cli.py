"""Command-line front end.

Subcommands: gen-data, train, eval, verify, sweep-rank, ablate.  gen-data,
train, sweep-rank and ablate accept ``--config``, a JSON file with up to two
sections, ``synthetic`` and ``train``, which mirror ``SyntheticConfig`` and
``TrainConfig``.  Each section is checked by its dataclass, which rejects a
wrong type or an out-of-range value by name; JSON lists become tuples.
Config-file values override built-in defaults; no flag sets a config value.
A flag has one spelling: argparse's prefix matching is off, so ``--seed``
for ``--seeds`` is an unknown flag.
Unknown sections or keys are rejected rather than ignored.
Output paths come from flags only; an output at the path of one of the
command's inputs or of another output is a usage error.  sweep-rank and
ablate are one command body (``cmd_study``) over two studies that share one
training loop.

Exit codes: 0 on success, 1 when a command's contract fails (unreadable or
malformed data, a diverging run, an allocation too large, a bound trial
violated, ...), 2 for usage errors (bad flags, bad config keys).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys

from .data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from .experiments import (
    ABLATION_CELLS,
    _check_fits,
    ablate_components,
    evaluate,
    sweep_rank,
    train,
)
from .model import TrainConfig, load_checkpoint, save_checkpoint
from .theory import (
    _free_scratch,
    make_mixture_kl_trial,
    make_risk_bound_trial,
    verify_mixture_kl_bound,
    verify_risk_bound,
)


class UsageError(Exception):
    """Bad flags or bad config content; maps to exit code 2."""


# config section -> the dataclass whose fields are its keys
_SECTIONS = {"synthetic": SyntheticConfig, "train": TrainConfig}


def load_config(path):
    """Parse a JSON config file into its raw sections (none without a file),
    rejecting unknown sections and keys."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}")
        if not isinstance(raw, dict):
            raise UsageError(f"{path}: config must be a JSON object")
    for section, values in raw.items():
        cls = _SECTIONS.get(section)
        if cls is None:
            raise UsageError(f"{path}: unknown config section {section!r}")
        if not isinstance(values, dict):
            raise UsageError(f"{path}: section {section!r} must be an object")
        unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise UsageError(
                f"{path}: unknown keys in section {section!r}: {', '.join(unknown)}"
            )
    return raw


def _config(cls, section, path):
    """``cls`` built from ``section`` of the config file at ``path``.

    JSON lists become tuples; every other value goes to ``cls`` as it is,
    whose own checks reject a wrong type.
    """
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in load_config(path).get(section, {}).items()})


def _check_paths(args):
    """An output at the path of an input or of an earlier output would
    destroy that file, so it is a usage error naming both flags.  Two
    inputs may share a path."""
    seen = {}
    for flag in args.reads + args.writes:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen and flag in args.writes:
            raise UsageError(f"{seen[real]} and {flag} name the same file {path}")
        seen.setdefault(real, flag)


def _output(path, **open_kwargs):
    """The file at ``path`` opened for writing, or stdout without a path."""
    return open(path, "w", **open_kwargs) if path else contextlib.nullcontext(sys.stdout)


def _fmt(value, digits, missing="n/a"):
    """``value`` to ``digits`` places, or ``missing`` for None (an accuracy
    of a domain with no rows, a loss part that was not computed)."""
    return missing if value is None else f"{value:.{digits}f}"


def _split(text, what, flag):
    """The stripped items of the comma list ``flag`` got; an empty list or
    an empty item is a usage error naming the flag."""
    if not text.strip():
        raise UsageError(f"{flag}: empty {what} list")
    items = [tok.strip() for tok in text.split(",")]
    if "" in items:
        raise UsageError(f"{flag}: empty item in {what} list {text!r}")
    return items


def _parse_int_list(text, what, flag):
    items = _split(text, what, flag)
    try:
        return [int(tok) for tok in items]
    except ValueError:
        raise UsageError(f"{flag}: bad {what} list {text!r}: expected comma-separated integers")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    out_sources, out_target = args.out_sources, args.out_target
    cfg = _config(SyntheticConfig, "synthetic", args.config)
    sources, target = generate_synthetic(cfg)
    save_dataset(out_sources, sources)
    save_dataset(out_target, target)
    print(f"wrote {out_sources}: {len(sources)} records over {sources.num_domains} domains")
    print(f"wrote {out_target}: {len(target)} records (held-out target)")
    return 0


def cmd_train(args) -> int:
    model_out, metrics_out = args.model_out, args.metrics_out
    cfg = _config(TrainConfig, "train", args.config)
    sources = load_dataset(args.sources)
    target = None
    if args.target is not None:  # checked before, not after, the whole run
        target = load_dataset(args.target)
        _check_fits(target, sources.feature_dim, sources.num_classes)
    params, result = train(cfg, sources)
    source_accuracy = evaluate(params, sources).per_domain
    target_accuracy = None if target is None else evaluate(params, target).accuracy
    if model_out:
        save_checkpoint(model_out, params)
        print(f"wrote checkpoint {model_out}")
    if metrics_out:
        with open(metrics_out, "w") as fh:
            for rec in result.epochs:
                fh.write(json.dumps({"kind": "epoch", **dataclasses.asdict(rec)}) + "\n")
            final = {"kind": "final", "source_accuracy": source_accuracy,
                     "target_accuracy": target_accuracy, "wall_time_s": result.wall_time_s}
            fh.write(json.dumps(final) + "\n")
        print(f"wrote metrics {metrics_out}")
    last = result.epochs[-1]
    print(
        f"epoch {last.epoch}: total {last.total:.6f} "
        f"(cls {last.cls:.6f}, rank {_fmt(last.rank, 6, 'not computed')}, kl {last.kl:.6f})"
    )
    accs = " ".join(_fmt(a, 4) for a in source_accuracy)
    print(f"source accuracy per domain: {accs}")
    if target_accuracy is not None:
        print(f"target accuracy: {target_accuracy:.4f}")
    return 0


def cmd_eval(args) -> int:
    params = load_checkpoint(args.model)
    report = evaluate(params, load_dataset(args.data))
    for k, acc in enumerate(report.per_domain):
        print(f"domain {k} accuracy: {_fmt(acc, 6)}")
    print(f"overall accuracy: {report.accuracy:.6f}")
    record = {"accuracy": report.accuracy, "per_domain": report.per_domain}
    with _output(args.out) as fh:
        fh.write(json.dumps(record) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    records = []
    failures = 0
    classes = _parse_int_list(args.classes, "classes", "--classes") if args.theorem == 2 else []
    try:
        for i in range(args.trials):
            try:
                if args.theorem == 1:
                    trial = make_mixture_kl_trial(args.seed, i)
                    rep = verify_mixture_kl_bound(trial)
                else:
                    c = classes[i % len(classes)]
                    trial = make_risk_bound_trial(args.seed, c, index=i)
                    rep = verify_risk_bound(trial, samples=args.samples, seed=args.seed, index=i)
            except RuntimeError as exc:
                records.append({"trial": i, "satisfied": False, "error": str(exc)})
                failures += 1
                continue
            records.append({"trial": i, **vars(rep)})
            if not rep.satisfied:
                failures += 1
    finally:
        _free_scratch()  # theorem 2's buffers, sized by the largest trial run
    with _output(args.report) as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))
    print(
        f"theorem {args.theorem}: {args.trials - failures}/{args.trials} trials satisfied"
    )
    return 1 if failures else 0


def _ranks(args):
    """The sweep's ``ranks``; a repeated rank is a usage error."""
    ranks = _parse_int_list(args.ranks, "rank", "--ranks")
    if len(set(ranks)) != len(ranks):
        raise UsageError(f"duplicate rank values: {args.ranks}")
    return {"ranks": ranks}


def _cells(args):
    """The ablation's ``cells`` (None: all of them); an empty list or item
    or an unknown cell is a usage error."""
    if args.cells is None:
        return {"cells": None}
    cells = _split(args.cells, "cell", "--cells")
    bad = [c for c in cells if c not in ABLATION_CELLS]
    if bad:
        raise UsageError(f"unknown ablation cells: {', '.join(bad)}")
    return {"cells": cells}


def cmd_study(args) -> int:
    """sweep-rank and ablate: ``args.study`` over the variants that
    ``args.variants`` reads, as a CSV table keyed by the row's ``args.key``."""
    cfg = _config(TrainConfig, "train", args.config)
    variants = args.variants(args)
    seeds = _parse_int_list(args.seeds, "seed", "--seeds")
    sources = load_dataset(args.sources)
    target = load_dataset(args.target)
    rows = args.study(cfg, sources, target, seeds=seeds, **variants)
    header = [args.key, "mean", "std"] + [f"acc_seed{s}" for s in seeds]
    table = [[getattr(r, args.key), f"{r.mean:.6f}", f"{r.std:.6f}"]
             + [f"{a:.6f}" for a in r.accuracies] for r in rows]
    with _output(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table)
    if args.out:
        print(f"wrote table {args.out}")
    if args.key == "rank":
        best = max(rows, key=lambda r: r.mean)
        print(f"best mean accuracy {best.mean:.4f} at rank {best.rank}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lddg",
        description="rank-regularized variational domain generalization, desk scale",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", allow_abbrev=False,
                       help="generate the synthetic multi-domain benchmark")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-sources", required=True, help="path for the source-domains dataset")
    p.add_argument("--out-target", required=True, help="path for the held-out target dataset")
    p.set_defaults(func=cmd_gen_data, reads=("--config",),
                   writes=("--out-sources", "--out-target"))

    p = sub.add_parser("train", allow_abbrev=False, help="train on a source dataset")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--sources", required=True, help="LDDG-DS source dataset")
    p.add_argument("--target", help="optional LDDG-DS target dataset to evaluate")
    p.add_argument("--model-out", help="checkpoint output path")
    p.add_argument("--metrics-out", help="JSONL metrics output path")
    p.set_defaults(func=cmd_train, reads=("--config", "--sources", "--target"),
                   writes=("--model-out", "--metrics-out"))

    p = sub.add_parser("eval", allow_abbrev=False, help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="LDDG-MODEL checkpoint")
    p.add_argument("--data", required=True, help="LDDG-DS dataset")
    p.add_argument("--out", help="write the accuracy record to this path")
    p.set_defaults(func=cmd_eval, reads=("--model", "--data"), writes=("--out",))

    p = sub.add_parser("verify", allow_abbrev=False,
                       help="numerically check a generalization bound")
    p.add_argument("--theorem", type=int, choices=[1, 2], required=True,
                   help="1 = mixture KL bound, 2 = combined-risk bound")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=4000,
                   help="Monte-Carlo draws per trial, at least 2 (theorem 2)")
    p.add_argument("--classes", default="2,7",
                   help="class counts cycled across trials (theorem 2)")
    p.add_argument("--report", help="write per-trial records to this JSONL path")
    p.set_defaults(func=cmd_verify, reads=(), writes=("--report",))

    _add_study(sub, "sweep-rank", "sweep the rank target and tabulate accuracy",
               "--ranks", {"default": "1,2,3,4,5,6,7,8"},
               study=sweep_rank, key="rank", variants=_ranks)
    _add_study(sub, "ablate", "train every regularizer combination",
               "--cells", {"help": "comma-separated subset of: "
                           + ",".join(ABLATION_CELLS)},
               study=ablate_components, key="cell", variants=_cells)

    return parser


def _add_study(sub, name, help_text, variant_flag, variant_kwargs, **defaults):
    """One study subcommand; ``defaults`` tell cmd_study which study it runs."""
    p = sub.add_parser(name, allow_abbrev=False, help=help_text)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--sources", required=True)
    p.add_argument("--target", required=True)
    p.add_argument(variant_flag, **variant_kwargs)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=cmd_study, reads=("--config", "--sources", "--target"),
                   writes=("--out",), **defaults)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
