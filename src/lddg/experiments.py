"""Training harness and the two standard study harnesses (ablation, rank sweep).

All randomness in a run derives from ``cfg.seed`` through named child
streams (init / reparameterization noise / per-epoch shuffling), so a seed
pins the entire metrics trajectory bit-for-bit.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import DomainDataset, sample_batches
from .model import (
    AdamState,
    ModelParams,
    TrainConfig,
    adam_step,
    backward,
    forward,
    init_params,
    total_loss,
)

__all__ = [
    "EpochRecord",
    "RunResult",
    "EvalReport",
    "AblationRow",
    "SweepRow",
    "train",
    "evaluate",
    "ablate_components",
    "sweep_rank",
    "ABLATION_CELLS",
]

logger = logging.getLogger(__name__)

_STREAM_INIT = 1
_STREAM_NOISE = 2
_SPECTRUM_TOP_K = 8
_LR_DECAY_FACTOR = 10.0


@dataclass
class EpochRecord:
    """Mean loss parts over one epoch, plus the lr actually used."""

    epoch: int
    total: float
    cls: float
    rank: float
    kl: float
    lr: float
    singular_values: list | None = None


@dataclass
class RunResult:
    """What one training run records: its config, one EpochRecord per
    epoch and its wall time.  Accuracies are not part of it; a caller that
    wants them scores the returned params with ``evaluate``.
    """

    config: dict
    epochs: list
    wall_time_s: float = 0.0


@dataclass
class EvalReport:
    """Deterministic accuracy (posterior mean, no sampling)."""

    accuracy: float
    per_domain: list


def train(cfg: TrainConfig, sources: DomainDataset):
    """Train on the pooled source domains; returns ``(params, RunResult)``.

    Per epoch the learning rate is ``learning_rate / 10 ** (epoch //
    lr_decay_every)``.  With ``log_singular_values`` each epoch record
    keeps the top singular values of its last latent batch, read from the
    rank penalty's SVD.  The first step on which that penalty is inert (the
    batch has at most C singular values) logs one warning naming its epoch,
    batch and shape.  A non-finite loss aborts immediately with
    the epoch and batch named, rather than letting Adam ride a NaN.  The
    returned params are views of the run's Adam vector.  Nothing is scored.
    Sources with no records raise ``ValueError``.
    """
    if len(sources) == 0:
        raise ValueError("sources have no records to train on")
    t0 = time.perf_counter()
    rng_init = np.random.default_rng([cfg.seed, _STREAM_INIT])
    params = init_params(sources.feature_dim, sources.num_classes, cfg, rng_init)
    state = AdamState.for_params(params)
    rng_noise = np.random.default_rng([cfg.seed, _STREAM_NOISE])
    rank_c = cfg.rank_target or sources.num_classes
    warn_inert = cfg.regularizer == "rank"

    records = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate / _LR_DECAY_FACTOR ** (epoch // cfg.lr_decay_every)
        batches = sample_batches(sources, cfg.batch_per_domain, cfg.seed, epoch)
        sums = {"total": 0.0, "cls": 0.0, "rank": 0.0, "kl": 0.0}
        for b_idx, rows in enumerate(batches):
            x = sources.features[rows]
            y = sources.labels[rows]
            eps = rng_noise.standard_normal((rows.size, cfg.latent_dim))
            trace = forward(params, x, eps)
            value, parts = total_loss(trace, y, cfg)
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}: "
                    f"parts={parts}"
                )
            if warn_inert and trace.sigma.size <= rank_c:
                logger.warning(
                    "rank penalty inert from epoch %d, batch %d: latent batch %s "
                    "has at most %d singular values", epoch, b_idx, trace.z.shape, rank_c,
                )
                warn_inert = False
            grads = backward(params, trace, y, cfg)
            adam_step(params, grads, state, lr, cfg.weight_decay)
            for key in sums:
                sums[key] += parts[key]
        n_b = len(batches)
        record = EpochRecord(epoch=epoch, **{k: v / n_b for k, v in sums.items()}, lr=lr)
        if cfg.log_singular_values:
            record.singular_values = [float(s) for s in trace.sigma[:_SPECTRUM_TOP_K]]
        records.append(record)

    wall_time_s = time.perf_counter() - t0
    return params, RunResult(config=asdict(cfg), epochs=records, wall_time_s=wall_time_s)


def _check_fits(ds: DomainDataset, in_dim: int, n_cls: int):
    """Raise ``ValueError`` unless a model with ``in_dim`` inputs scoring
    ``n_cls`` classes can be evaluated on ``ds``: it must have records, the
    model's feature width and no more classes than the model scores."""
    if len(ds) == 0:
        raise ValueError("dataset has no records to evaluate")
    if in_dim != ds.feature_dim:
        raise ValueError(
            f"model expects {in_dim}-dim inputs but dataset has feature_dim={ds.feature_dim}"
        )
    if ds.num_classes > n_cls:
        raise ValueError(
            f"dataset has {ds.num_classes} classes but model scores only {n_cls}"
        )


def evaluate(params: ModelParams, ds: DomainDataset) -> EvalReport:
    """Accuracy at the posterior mean (zero noise); argmax ties -> lowest index.

    A domain with no rows in ``ds`` has accuracy None.  Raises
    ``ValueError`` when the dataset has no records, its feature width is
    not the model's input width, or it has more classes than the model
    scores.
    """
    _check_fits(ds, params.layers()[0].weight.shape[1], params.classifier.weight.shape[0])
    trace = forward(params, ds.features, None)
    pred = np.argmax(trace.logits, axis=1)
    correct = pred == ds.labels
    per_domain = []
    for k in range(ds.num_domains):
        mask = ds.domain_ids == k
        per_domain.append(float(np.mean(correct[mask])) if np.any(mask) else None)
    return EvalReport(accuracy=float(np.mean(correct)), per_domain=per_domain)


@dataclass
class AblationRow:
    cell: str
    accuracies: list
    mean: float
    std: float


@dataclass
class SweepRow:
    rank: int
    accuracies: list
    mean: float
    std: float


# cell -> (use lambda1, use lambda2, regularizer); None keeps the base value
ABLATION_CELLS = (
    ("none", 0.0, 0.0, "rank"),
    ("rank", None, 0.0, "rank"),
    ("kl", 0.0, None, "rank"),
    ("nuclear", None, 0.0, "nuclear"),
    ("nuclear+kl", None, None, "nuclear"),
    ("rank+kl", None, None, "rank"),
)


def _study(base_cfg, sources, target, members, seeds, row):
    """The one loop of both studies: for each ``(key, overrides)`` member,
    then each seed, train ``replace(base_cfg, seed=seed, **overrides)`` and
    score it once on the target.  Returns ``row(key, accuracies, mean, std)``
    per member (population std)."""
    rows = []
    for key, overrides in members:
        accs = []
        for seed in seeds:
            params, _ = train(replace(base_cfg, seed=seed, **overrides), sources)
            accs.append(evaluate(params, target).accuracy)
        rows.append(row(key, accs, float(np.mean(accs)), float(np.std(accs))))
    return rows


def ablate_components(
    base_cfg: TrainConfig,
    sources: DomainDataset,
    target: DomainDataset,
    seeds=(0, 1, 2, 3, 4),
    cells=None,
):
    """Train every regularizer combination over the seeds.

    Returns one AblationRow per cell, in the requested order (all of
    ABLATION_CELLS by default); each row carries per-seed target
    accuracies plus their mean and (population) standard deviation.  The
    'nuclear' cells swap the sigma_{C+1} penalty for the nuclear norm at the
    same lambda1, which is the classical low-rank baseline.  An unknown
    cell, or a target the model could not score, raises ``ValueError``
    before any training.
    """
    _check_fits(target, sources.feature_dim, sources.num_classes)
    overrides = {
        name: {"lambda1": base_cfg.lambda1 if l1 is None else l1,
               "lambda2": base_cfg.lambda2 if l2 is None else l2,
               "regularizer": reg}
        for name, l1, l2, reg in ABLATION_CELLS
    }
    wanted = list(overrides) if cells is None else list(cells)
    unknown = [w for w in wanted if w not in overrides]
    if unknown:
        raise ValueError(f"unknown ablation cells: {unknown}")
    members = [(name, overrides[name]) for name in wanted]
    return _study(base_cfg, sources, target, members, seeds, AblationRow)


def sweep_rank(
    base_cfg: TrainConfig,
    sources: DomainDataset,
    target: DomainDataset,
    ranks=(1, 2, 3, 4, 5, 6, 7, 8),
    seeds=(0, 1, 2, 3, 4),
):
    """Vary the rank target and measure target accuracy per seed.

    Returns one SweepRow per rank, in the given order.  Rank values must be
    distinct and lie in [1, min(batch rows, latent_dim) - 1], otherwise the
    penalty is structurally zero and the sweep point is meaningless; that
    misuse, like a target the model could not score, raises ``ValueError``
    before any training.
    """
    _check_fits(target, sources.feature_dim, sources.num_classes)
    ranks = list(ranks)
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate rank values in sweep: {ranks}")
    counts = [int(np.sum(sources.domain_ids == k)) for k in range(sources.num_domains)]
    batch_rows = sum(min(base_cfg.batch_per_domain, c) for c in counts)
    hi = min(batch_rows, base_cfg.latent_dim) - 1
    bad = [r for r in ranks if not 1 <= r <= hi]
    if bad:
        raise ValueError(f"rank values {bad} outside [1, {hi}]")
    members = [(rank, {"rank_target": rank}) for rank in ranks]
    return _study(base_cfg, sources, target, members, seeds, SweepRow)
