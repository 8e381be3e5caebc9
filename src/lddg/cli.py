"""Command-line front end.

Subcommands: gen-data, train, eval, verify, sweep-rank, ablate.  Every
command but eval accepts ``--config``, a JSON file with up to three
sections: ``synthetic`` and ``train`` mirror ``SyntheticConfig`` and
``TrainConfig``, and ``outputs`` holds default paths under the keys
sources, target, model, metrics, table and report (``_Outputs``).  Each
section is checked by its dataclass, which rejects a wrong type or an
out-of-range value by name; JSON lists become tuples for ``synthetic`` and
``train``.  Explicit flags override config-file values, which override
built-in defaults.  Unknown sections or keys are rejected rather than
ignored.  sweep-rank and ablate are one command body (``cmd_study``) over
two studies that share one training loop.

Exit codes: 0 on success, 1 when a command's contract fails (unreadable or
malformed data, non-finite loss, a bound trial violated, ...), 2 for usage
errors (bad flags, bad config keys).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from ._fields import check_field_types
from .data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from .experiments import (
    ABLATION_CELLS,
    ablate_components,
    evaluate,
    sweep_rank,
    train,
)
from .model import TrainConfig, load_checkpoint, save_checkpoint
from .theory import (
    make_mixture_kl_trial,
    make_risk_bound_trial,
    verify_mixture_kl_bound,
    verify_risk_bound,
)


class UsageError(Exception):
    """Bad flags or bad config content; maps to exit code 2."""


@dataclasses.dataclass
class _Outputs:
    """The ``outputs`` section: default output paths, by command output."""

    sources: str | None = None
    target: str | None = None
    model: str | None = None
    metrics: str | None = None
    table: str | None = None
    report: str | None = None

    def __post_init__(self):
        check_field_types(self)


# config section -> the dataclass whose fields are its keys
_SECTIONS = {"synthetic": SyntheticConfig, "train": TrainConfig, "outputs": _Outputs}


def load_config(path):
    """Parse and validate a JSON config file into its raw sections, with
    ``outputs`` as a type-checked ``_Outputs`` (empty without a file)."""
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
    raw["outputs"] = _Outputs(**raw.get("outputs", {}))
    return raw


def _config(cls, section, raw, args):
    """``cls`` built from the config's ``section``, then overridden by flags.

    JSON lists become tuples; every other value goes to ``cls`` as it is,
    whose own checks reject a wrong type.  A flag overrides the field its
    dest names when it is set (an unset flag is None).
    """
    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in raw.get(section, {}).items()}
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cls)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(cls(**kwargs), **overrides)


def _resolve_out(flag_value, raw, key, required=True):
    if flag_value is not None:
        return flag_value
    value = getattr(raw["outputs"], key)
    if value is None and required:
        raise UsageError(f"no output path for {key!r}: pass a flag or set outputs.{key}")
    return value


def _fmt_acc(acc, digits):
    """An accuracy to ``digits`` places, or n/a for a domain with no rows."""
    return "n/a" if acc is None else f"{acc:.{digits}f}"


def _parse_int_list(text, what):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"bad {what} list {text!r}: expected comma-separated integers")
    if not values:
        raise UsageError(f"empty {what} list")
    return values


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    raw = load_config(args.config)
    cfg = _config(SyntheticConfig, "synthetic", raw, args)
    out_sources = _resolve_out(args.out_sources, raw, "sources")
    out_target = _resolve_out(args.out_target, raw, "target")
    sources, target = generate_synthetic(cfg)
    save_dataset(out_sources, sources)
    save_dataset(out_target, target)
    print(f"wrote {out_sources}: {len(sources)} records over {sources.num_domains} domains")
    print(f"wrote {out_target}: {len(target)} records (held-out target)")
    return 0


def cmd_train(args) -> int:
    raw = load_config(args.config)
    cfg = _config(TrainConfig, "train", raw, args)
    sources = load_dataset(args.sources)
    params, result = train(cfg, sources)
    source_accuracy = evaluate(params, sources).per_domain
    target_accuracy = None
    if args.target is not None:
        target_accuracy = evaluate(params, load_dataset(args.target)).accuracy
    model_out = _resolve_out(args.model_out, raw, "model", required=False)
    metrics_out = _resolve_out(args.metrics_out, raw, "metrics", required=False)
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
        f"(cls {last.cls:.6f}, rank {last.rank:.6f}, kl {last.kl:.6f})"
    )
    accs = " ".join(_fmt_acc(a, 4) for a in source_accuracy)
    print(f"source accuracy per domain: {accs}")
    if target_accuracy is not None:
        print(f"target accuracy: {target_accuracy:.4f}")
    return 0


def cmd_eval(args) -> int:
    params = load_checkpoint(args.model)
    report = evaluate(params, load_dataset(args.data))
    for k, acc in enumerate(report.per_domain):
        print(f"domain {k} accuracy: {_fmt_acc(acc, 6)}")
    print(f"overall accuracy: {report.accuracy:.6f}")
    record = {"accuracy": report.accuracy, "per_domain": report.per_domain}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(record) + "\n")
    else:
        print(json.dumps(record))
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    raw = load_config(args.config)
    report_path = _resolve_out(args.report, raw, "report", required=False)
    records = []
    failures = 0
    classes = _parse_int_list(args.classes, "classes") if args.theorem == 2 else []
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
        records.append({"trial": i, **dataclasses.asdict(rep)})
        if not rep.satisfied:
            failures += 1
    lines = [json.dumps(r) for r in records]
    if report_path:
        with open(report_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    print(
        f"theorem {args.theorem}: {args.trials - failures}/{args.trials} trials satisfied"
    )
    return 1 if failures else 0


def _write_table(path, header, rows):
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    if path:
        with open(path, "w", newline="") as fh:
            emit(fh)
        print(f"wrote table {path}")
    else:
        emit(sys.stdout)


def _ranks(args):
    """The sweep's ``ranks``; a repeated rank is a usage error."""
    ranks = _parse_int_list(args.ranks, "rank")
    if len(set(ranks)) != len(ranks):
        raise UsageError(f"duplicate rank values: {args.ranks}")
    return {"ranks": ranks}


def _cells(args):
    """The ablation's ``cells`` (None: all of them); an unknown cell is a usage error."""
    cells = [tok.strip() for tok in args.cells.split(",")] if args.cells else None
    bad = [c for c in cells or () if c not in {cell[0] for cell in ABLATION_CELLS}]
    if bad:
        raise UsageError(f"unknown ablation cells: {', '.join(bad)}")
    return {"cells": cells}


def cmd_study(args) -> int:
    """sweep-rank and ablate: ``args.study`` over the variants that
    ``args.variants`` reads, as a CSV table keyed by the row's ``args.key``."""
    raw = load_config(args.config)
    cfg = _config(TrainConfig, "train", raw, args)
    variants = args.variants(args)
    seeds = _parse_int_list(args.seeds, "seed")
    sources = load_dataset(args.sources)
    target = load_dataset(args.target)
    rows = args.study(cfg, sources, target, seeds=seeds, **variants)
    header = [args.key, "mean", "std"] + [f"acc_seed{s}" for s in seeds]
    table = [[getattr(r, args.key), f"{r.mean:.6f}", f"{r.std:.6f}"]
             + [f"{a:.6f}" for a in r.accuracies] for r in rows]
    _write_table(_resolve_out(args.out, raw, "table", required=False), header, table)
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic multi-domain benchmark")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the generation seed")
    p.add_argument("--out-sources", help="path for the source-domains dataset")
    p.add_argument("--out-target", help="path for the held-out target dataset")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a source dataset")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--sources", required=True, help="LDDG-DS source dataset")
    p.add_argument("--target", help="optional LDDG-DS target dataset to evaluate")
    p.add_argument("--model-out", help="checkpoint output path")
    p.add_argument("--metrics-out", help="JSONL metrics output path")
    p.add_argument("--seed", type=int)
    _add_train_overrides(p)
    p.add_argument("--rank-target", type=int, dest="rank_target")
    p.add_argument("--regularizer", choices=["rank", "nuclear"])
    p.add_argument(
        "--log-singular-values",
        action="store_true",
        default=None,
        help="log the top singular values of the latent batch each epoch",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="LDDG-MODEL checkpoint")
    p.add_argument("--data", required=True, help="LDDG-DS dataset")
    p.add_argument("--out", help="write the accuracy record to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="numerically check a generalization bound")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--theorem", type=int, choices=[1, 2], required=True,
                   help="1 = mixture KL bound, 2 = combined-risk bound")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=4000,
                   help="Monte-Carlo draws per trial (theorem 2)")
    p.add_argument("--classes", default="2,7",
                   help="class counts cycled across trials (theorem 2)")
    p.add_argument("--report", help="write per-trial records to this JSONL path")
    p.set_defaults(func=cmd_verify)

    _add_study(sub, "sweep-rank", "sweep the rank target and tabulate accuracy",
               "--ranks", {"default": "1,2,3,4,5,6,7,8"},
               study=sweep_rank, key="rank", variants=_ranks)
    _add_study(sub, "ablate", "train every regularizer combination",
               "--cells", {"help": "comma-separated subset of: "
                           + ",".join(c[0] for c in ABLATION_CELLS)},
               study=ablate_components, key="cell", variants=_cells)

    return parser


def _add_study(sub, name, help_text, variant_flag, variant_kwargs, **defaults):
    """One study subcommand; ``defaults`` tell cmd_study which study it runs."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--sources", required=True)
    p.add_argument("--target", required=True)
    p.add_argument(variant_flag, **variant_kwargs)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    _add_train_overrides(p)
    p.set_defaults(func=cmd_study, **defaults)


def _add_train_overrides(p):
    p.add_argument("--epochs", type=int)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--batch-per-domain", type=int, dest="batch_per_domain")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
