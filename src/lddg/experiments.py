"""Training harness and the two standard study harnesses (ablation, rank sweep).

All randomness in a run derives from ``cfg.seed`` through named child
streams (init / reparameterization noise / per-epoch shuffling), so a seed
pins the entire metrics trajectory bit-for-bit.
"""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import threading
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import DomainDataset, sample_batches
from .linalg import svd
from .model import (
    ModelParams,
    TrainConfig,
    _affine,
    _flat_vector,
    _layout,
    _member,
    _stack,
    _trunk,
    _unflatten,
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
# the TrainConfig fields in which the members of one training group may differ
_PER_MEMBER = ("lambda1", "lambda2", "rank_target", "regularizer", "seed")
# a study's training groups stack at most this many latent rows per step:
# two of criterion 09's 600-row full batches
_GROUP_ROWS = 1200
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


def train(cfg: TrainConfig, sources: DomainDataset, members=None):
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
    Adam ride a NaN.  Each step's arrays, its batch and noise among them,
    are written into buffers allocated once per call.  The returned params
    are views of the group's parameter vector.  Nothing is scored.  Sources
    with no records, or an empty ``members``, raise ``ValueError``.

    ``members`` maps a label to each config of a group that trains
    together; each differs from ``cfg`` in at most lambda1, lambda2,
    rank_target, regularizer and seed (others raise ``ValueError``).  Every
    step then runs ``forward``, ``total_loss``, ``backward`` and
    ``adam_step`` once for the whole group, its members stacked on a
    leading axis.  Members that share a seed share that seed's batches and
    noise; each member gathers its own batch rows and labels.  Returns one
    ``(params, RunResult)`` per member, in order, each bit for bit what
    training that config alone returns (the wall time, the group's, aside).
    Warnings and errors about a member name its label; the first member to
    diverge stops the group.  A call trains in the calling process; a study
    with more than one group trains half of them in a forked child process
    (see ``_train_groups``).
    """
    if len(sources) == 0:
        raise ValueError("sources have no records to train on")
    group = {None: cfg} if members is None else dict(members)
    if not group:
        raise ValueError("members is empty: a group needs at least one config to train")
    for label, member in group.items():
        if replace(member, **{k: getattr(cfg, k) for k in _PER_MEMBER}) != cfg:
            raise ValueError(f"member {label} differs from the group's config in more "
                             f"than {', '.join(_PER_MEMBER)}")
    t0 = time.perf_counter()
    labels, cfgs = list(group), list(group.values())
    seeds = list(dict.fromkeys(c.seed for c in cfgs))
    seed_of = [seeds.index(c.seed) for c in cfgs]
    # a seed's noise is drawn by its first member and copied by the others
    first = [seed_of.index(s) for s in seed_of]
    rows = _batch_rows(sources, cfg.batch_per_domain)
    inits = [init_params(sources.feature_dim, sources.num_classes, cfg,
                         np.random.default_rng([seed, _STREAM_INIT])) for seed in seeds]
    params = _stack([inits[s] for s in seed_of], rows)
    rng_noise = [np.random.default_rng([seed, _STREAM_NOISE]) for seed in seeds]
    rank_c = [c.rank_target or sources.num_classes for c in cfgs]
    warn_inert = [c.regularizer == "rank" and c.lambda1 > 0 for c in cfgs]
    where = ["" if label is None else f" ({label})" for label in labels]

    records = [[] for _ in cfgs]
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate / _LR_DECAY_FACTOR ** (epoch // cfg.lr_decay_every)
        batches = [sample_batches(sources, cfg.batch_per_domain, seed, epoch) for seed in seeds]
        sums = {key: np.zeros(len(cfgs)) for key in ("cls", "rank", "kl", "total")}
        for b_idx, picked in enumerate(zip(*batches)):
            n = picked[0].size
            # the previous step's arrays go now, before this step allocates its own
            trace = grads = None
            x, eps = params.buffers.view("x", n), params.buffers.view("eps", n)
            for m, s in enumerate(seed_of):
                np.take(sources.features, picked[s], axis=0, out=x[m], mode="clip")
                if first[m] == m:
                    rng_noise[s].standard_normal(out=eps[m])
                else:
                    eps[m] = eps[first[m]]
            y = np.stack([sources.labels[picked[s]] for s in seed_of])
            try:
                trace = forward(params, x, eps)
                value, parts = total_loss(trace, y, cfgs)
            except ValueError as exc:  # the inputs are finite: the run diverged
                m = getattr(exc, "member", None)
                raise RuntimeError(f"training diverged at epoch {epoch}, batch {b_idx}"
                                   f"{'' if m is None else where[m]}: {exc}") from None
            finite = np.isfinite(value)
            if not finite.all():
                m = int(np.argmin(finite))
                raise RuntimeError(f"training diverged at epoch {epoch}, batch {b_idx}{where[m]}: "
                                   f"non-finite loss, parts={_member_parts(cfgs[m], parts, m)}")
            for m, sigma in enumerate(trace.sigma):
                if warn_inert[m] and sigma.size <= rank_c[m]:
                    logger.warning(
                        "rank penalty inert from epoch %d, batch %d%s: latent batch %s "
                        "has at most %d singular values", epoch, b_idx, where[m],
                        trace.z.shape[1:], rank_c[m],
                    )
                    warn_inert[m] = False
            grads = backward(params, trace, y, cfgs)
            adam_step(params, grads, lr, cfg.weight_decay)
            for key, acc in sums.items():
                acc += parts[key]
        means = {key: acc / len(batches[0]) for key, acc in sums.items()}
        for m, c in enumerate(cfgs):
            record = EpochRecord(epoch=epoch, lr=lr, **_member_parts(c, means, m))
            if cfg.log_singular_values:
                sigma = svd(trace.z[m]).sigma if trace.sigma[m] is None else trace.sigma[m]
                record.singular_values = [float(s) for s in sigma[:_SPECTRUM_TOP_K]]
            records[m].append(record)

    wall_time_s = time.perf_counter() - t0
    results = [(_member(params, m), RunResult(config=asdict(c), epochs=records[m],
                                              wall_time_s=wall_time_s))
               for m, c in enumerate(cfgs)]
    return results[0] if members is None else results


def _member_parts(cfg, parts, m):
    """Member ``m``'s entries of the loss ``parts`` (arrays keyed as
    ``total_loss`` keys them), as floats; 'rank' is None where
    ``cfg.lambda1`` is 0, as the penalty is then not computed."""
    own = {key: float(v[m]) for key, v in parts.items()}
    if not cfg.lambda1:
        own["rank"] = None
    return own


def _batch_rows(sources, batch_per_domain):
    """Rows of an epoch's first (largest) batch: ``batch_per_domain`` from
    each domain, or all of a smaller one."""
    counts = np.bincount(sources.domain_ids, minlength=sources.num_domains)
    return int(np.minimum(counts, batch_per_domain).sum())


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
    """The one loop of both studies: train ``replace(base_cfg, seed=seed,
    **overrides)`` for each ``(key, overrides)`` member, then each seed, and
    score each once on the target.  Members form groups in that order (see
    ``train``) of near-equal size, as few as fit ``_GROUP_ROWS`` latent rows
    per step, and at least two when the groups can train in two processes
    (see ``_train_groups``); every member is scored after all have trained.
    Returns ``row(key, accuracies, mean, std)`` per member (population
    std).  An empty or repeated list of member keys or of seeds raises
    ``ValueError``; so does any config, as every one is built before the
    first member trains."""
    seeds = list(seeds)
    name = fields(row)[0].name
    for what, values in ((name, [key for key, _ in members]), ("seed", seeds)):
        if not values:
            raise ValueError(f"no {what} values to study")
        if len(set(values)) != len(values):
            raise ValueError(f"duplicate {what} values in study: {values}")
    labelled = [(f"{name} {key}, seed {seed}", replace(base_cfg, seed=seed, **overrides))
                for key, overrides in members for seed in seeds]
    size = max(1, _GROUP_ROWS // max(1, _batch_rows(sources, base_cfg.batch_per_domain)))
    count = -(-len(labelled) // size)
    if count < 2 and _parallel(len(labelled)):
        count = 2
    # the first len % count groups hold one member more than the others
    small, extra = divmod(len(labelled), count)
    starts = [k * small + min(k, extra) for k in range(count + 1)]
    groups = [dict(labelled[a:b]) for a, b in zip(starts, starts[1:])]
    accs = [evaluate(params, target).accuracy
            for group in _train_groups(base_cfg, sources, groups) for params, _ in group]
    rows = []
    for i, (key, _) in enumerate(members):
        own = accs[i * len(seeds) : (i + 1) * len(seeds)]
        rows.append(row(key, own, float(np.mean(own)), float(np.std(own))))
    return rows


def _train_groups(cfg, sources, groups):
    """``train(cfg, sources, group)`` for each group, in order.

    When ``_parallel`` allows it, this process trains the groups at even
    positions and one forked child process those at odd positions.
    numpy's OpenBLAS is pinned to one thread before the fork, so that the
    two processes do not oversubscribe the cores, and its previous count
    is restored when both are done, also after an error.  The child sends
    back, through a pipe, each group's parameter vector and RunResults,
    the records ``logger`` emitted and the warnings shown meanwhile, or its
    first error, and always ends with ``os._exit``; this process always
    waits for it.  The params are rebuilt as views of one vector per group.
    Both processes hold back their log records and warnings, which are
    then emitted in group order, and the error raised is the first in
    group order, as one process would raise it; each process trains no
    group after its own first error.  A child that ends without sending
    its results raises ``RuntimeError`` naming its exit status.  Otherwise
    this process trains every group.
    """
    blas = _parallel(len(groups))
    if blas is None:
        return [train(cfg, sources, group) for group in groups]
    get, put = blas
    before = get()
    put(1)  # before the fork, so that the child inherits it
    try:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            _child(cfg, sources, groups[1::2], read_fd, write_fd)
        os.close(write_fd)
        try:
            with open(read_fd, "rb") as pipe:
                ours = _outcomes(cfg, sources, groups[0::2])
                sent = pipe.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        put(before)
    if status != 0:
        raise RuntimeError(f"the child process training a study's odd groups exited "
                           f"with status {status} before sending its results")
    theirs = pickle.loads(sent)
    results = []
    for i in range(len(groups)):
        # each process stopped at its first error, which comes before its missing groups
        records, warned, result, error = (ours, theirs)[i % 2][i // 2]
        for record in records:
            logger.handle(record)
        for warning in warned:
            warnings.warn_explicit(*warning)
        if error is not None:
            raise error
        if i % 2:  # as the child packed it
            layout, vector, runs = result
            result = [(_unflatten(row, layout), run) for row, run in zip(vector, runs)]
        results.append(result)
    return results


def _child(cfg, sources, groups, read_fd, write_fd):
    """The forked child of ``_train_groups``: trains ``groups``, writes
    their packed outcomes to ``write_fd`` and exits the process, with
    status 0 once all is written."""
    status = 1
    try:
        os.close(read_fd)
        packed = []
        for records, warned, result, error in _outcomes(cfg, sources, groups):
            if result is not None:
                result = (_layout(result[0][0]),
                          np.stack([_flat_vector(params) for params, _ in result]),
                          [run for _, run in result])
            if error is not None:
                try:
                    pickle.loads(pickle.dumps(error))
                except Exception:  # an error its class cannot rebuild from its args
                    error = RuntimeError(f"{type(error).__name__}: {error}")
            packed.append((records, warned, result, error))
        with open(write_fd, "wb") as pipe:
            pickle.dump(packed, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _outcomes(cfg, sources, groups):
    """``(records, warned, results, error)`` of ``train(cfg, sources,
    group)`` for each group in order, up to the first that raises: the
    records ``logger`` emitted and the warnings shown meanwhile (as
    ``warnings.warn_explicit`` arguments), both held back, and the results
    or the error (the other one None).  Warnings the filters turn into
    errors still raise."""
    outcomes = []
    for group in groups:
        records = []

        def hold(record):
            records.append(record)
            return False

        logger.addFilter(hold)
        try:
            with warnings.catch_warnings(record=True) as shown:
                try:
                    results, error = train(cfg, sources, group), None
                except Exception as exc:
                    results, error = None, exc
        finally:
            logger.removeFilter(hold)
        warned = [(w.message, w.category, w.filename, w.lineno) for w in shown]
        outcomes.append((records, warned, results, error))
        if error is not None:
            break
    return outcomes


def _parallel(count):
    """numpy's OpenBLAS ``(get, set)`` when ``count`` groups, or members,
    can train in two processes: there are at least two, two usable CPUs,
    ``os.fork`` and the OpenBLAS thread count, and this process runs no
    other thread (a fork copies only the calling one, and a lock another
    holds would stay held in the child); otherwise None."""
    if count < 2 or _cpus() < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    return _openblas()


def _openblas():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or
    None when this numpy build exports neither."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    When two processes can train the members (see ``_parallel``), they
    form at least two groups, and a forked child process trains those at
    odd positions; numpy's bundled OpenBLAS is pinned to one thread from
    before the fork until both processes are done, and the previous count
    is then restored.  The rows, the warnings and their order, and the
    error raised are the same either way; with two processes the warnings
    come once both are done.
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

    When two processes can train the members (see ``_parallel``), they
    form at least two groups, and a forked child process trains those at
    odd positions; numpy's bundled OpenBLAS is pinned to one thread from
    before the fork until both processes are done, and the previous count
    is then restored.  The rows, the warnings and their order, and the
    error raised are the same either way; with two processes the warnings
    come once both are done.
    """
    _check_fits(target, sources.feature_dim, sources.num_classes)
    ranks = list(ranks)
    hi = min(_batch_rows(sources, base_cfg.batch_per_domain), base_cfg.latent_dim) - 1
    bad = [r for r in ranks if not 1 <= r <= hi]
    if bad:
        raise ValueError(f"rank values {bad} outside [1, {hi}]")
    members = [(rank, {"rank_target": rank}) for rank in ranks]
    return _study(base_cfg, sources, target, members, seeds, SweepRow)
