"""Training harness and the two standard study harnesses (ablation, rank sweep).

All randomness in a run derives from ``cfg.seed`` through named child
streams (init / reparameterization noise / per-epoch shuffling), so a seed
pins the entire metrics trajectory bit-for-bit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import DomainDataset, sample_batches
from .linalg import svd
from .model import (
    AdamState,
    ModelParams,
    TrainConfig,
    _affine,
    _trunk,
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
    """Mean loss parts over one epoch, plus the lr actually used.

    ``rank`` is None when the run's ``lambda1`` is 0: the penalty is then
    not computed.
    """

    epoch: int
    total: float
    cls: float
    rank: float | None
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
    penalty's SVD, or at ``lambda1 == 0``, where no penalty is computed
    (the records' ``rank`` is None), from one SVD of that batch.  When the
    rank penalty is weighted, the first step on which it is inert (the
    batch has at most C singular values) logs one warning naming its epoch,
    batch and shape.  A diverging run (a non-finite activation or loss)
    raises ``RuntimeError`` naming the epoch and batch, rather than letting
    Adam ride a NaN.  A step's arrays are dropped once the next batch is
    drawn, so one step's arrays are alive at a time.  The returned params
    are views of the run's Adam vector.  Nothing is scored.  Sources with
    no records raise ``ValueError``.
    """
    if len(sources) == 0:
        raise ValueError("sources have no records to train on")
    t0 = time.perf_counter()
    rng_init = np.random.default_rng([cfg.seed, _STREAM_INIT])
    params = init_params(sources.feature_dim, sources.num_classes, cfg, rng_init)
    state = AdamState.for_params(params)
    rng_noise = np.random.default_rng([cfg.seed, _STREAM_NOISE])
    rank_c = cfg.rank_target or sources.num_classes
    warn_inert = cfg.regularizer == "rank" and cfg.lambda1 > 0
    # the loss parts averaged per epoch; "rank" is not computed at lambda1 == 0
    averaged = [key for key in ("total", "cls", "rank", "kl") if cfg.lambda1 or key != "rank"]

    records = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate / _LR_DECAY_FACTOR ** (epoch // cfg.lr_decay_every)
        batches = sample_batches(sources, cfg.batch_per_domain, cfg.seed, epoch)
        sums = dict.fromkeys(averaged, 0.0)
        for b_idx, rows in enumerate(batches):
            x = sources.features[rows]
            y = sources.labels[rows]
            eps = rng_noise.standard_normal((rows.size, cfg.latent_dim))
            # the previous step's arrays go now, not at the end of their own
            # step: with this batch drawn above them, freeing them leaves a
            # hole the step refills, not a heap top the C allocator trims
            trace = grads = None
            try:
                trace = forward(params, x, eps)
                value, parts = total_loss(trace, y, cfg)
                if not math.isfinite(value):
                    raise ValueError(f"non-finite loss, parts={parts}")
            except ValueError as exc:  # the inputs are finite: the run diverged
                raise RuntimeError(
                    f"training diverged at epoch {epoch}, batch {b_idx}: {exc}"
                ) from None
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
        means = {"rank": None, **{k: v / n_b for k, v in sums.items()}}
        record = EpochRecord(epoch=epoch, **means, lr=lr)
        if cfg.log_singular_values:
            sigma = svd(trace.z).sigma if trace.sigma is None else trace.sigma
            record.singular_values = [float(s) for s in sigma[:_SPECTRUM_TOP_K]]
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

    At zero noise the latent is the posterior mean, so only the trunk, the
    mean head and the classifier run.  A domain with no rows in
    ``ds`` has accuracy None.  Raises ``ValueError`` when the dataset has no
    records, its feature width is not the model's input width, it has more
    classes than the model scores, or the model's logits are not finite.
    """
    _check_fits(ds, params.layers()[0].weight.shape[1], params.classifier.weight.shape[0])
    logits = _affine(_affine(_trunk(params, ds.features), params.head_mu), params.classifier)
    if not np.isfinite(logits).all():
        raise ValueError("the model's logits hold non-finite values (NaN or inf)")
    pred = np.argmax(logits, axis=1)
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


# cell -> the TrainConfig fields it sets; the others keep the base config's
ABLATION_CELLS = {
    "none": {"lambda1": 0.0, "lambda2": 0.0, "regularizer": "rank"},
    "rank": {"lambda2": 0.0, "regularizer": "rank"},
    "kl": {"lambda1": 0.0, "regularizer": "rank"},
    "nuclear": {"lambda2": 0.0, "regularizer": "nuclear"},
    "nuclear+kl": {"regularizer": "nuclear"},
    "rank+kl": {"regularizer": "rank"},
}


def _study(base_cfg, sources, target, members, seeds, row):
    """The one loop of both studies: for each ``(key, overrides)`` member,
    then each seed, train ``replace(base_cfg, seed=seed, **overrides)`` and
    score it once on the target.  Returns ``row(key, accuracies, mean, std)``
    per member (population std).  An empty or repeated list of member keys
    or of seeds raises ``ValueError``; so does any config, as every one is
    built before the first member trains."""
    seeds = list(seeds)
    for what, values in ((fields(row)[0].name, [key for key, _ in members]), ("seed", seeds)):
        if not values:
            raise ValueError(f"no {what} values to study")
        if len(set(values)) != len(values):
            raise ValueError(f"duplicate {what} values in study: {values}")
    cfgs = [[replace(base_cfg, seed=seed, **overrides) for seed in seeds]
            for _, overrides in members]
    rows = []
    for (key, _), member_cfgs in zip(members, cfgs):
        accs = []
        for cfg in member_cfgs:
            params, _ = train(cfg, sources)
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
    cell, an empty or repeated list of cells or seeds, a negative seed or a
    target the model could not score raises ``ValueError`` before any
    training.
    """
    _check_fits(target, sources.feature_dim, sources.num_classes)
    wanted = list(ABLATION_CELLS) if cells is None else list(cells)
    unknown = [w for w in wanted if w not in ABLATION_CELLS]
    if unknown:
        raise ValueError(f"unknown ablation cells: {unknown}")
    members = [(name, ABLATION_CELLS[name]) for name in wanted]
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
    misuse, like an empty rank or seed list, a repeated seed, a negative
    seed or a target the model could not score, raises ``ValueError``
    before any training.
    """
    _check_fits(target, sources.feature_dim, sources.num_classes)
    ranks = list(ranks)
    counts = [int(np.sum(sources.domain_ids == k)) for k in range(sources.num_domains)]
    batch_rows = sum(min(base_cfg.batch_per_domain, c) for c in counts)
    hi = min(batch_rows, base_cfg.latent_dim) - 1
    bad = [r for r in ranks if not 1 <= r <= hi]
    if bad:
        raise ValueError(f"rank values {bad} outside [1, {hi}]")
    members = [(rank, {"rank_target": rank}) for rank in ranks]
    return _study(base_cfg, sources, target, members, seeds, SweepRow)
