"""Synthetic multi-domain benchmark generation, dataset files, batching.

Every domain shares one set of class directions in a low-dimensional latent
space; a domain only rescales them (one scalar per domain), so the noiseless
per-class latents across domains form a rank-<=C family by construction.
Each domain then embeds latents into feature space through its own linear
map built from orthonormal columns times per-coordinate scalings in
[0.5, 2.0], plus a translation.

The maps are not arbitrary rotations: every domain's map mixes a block
shared by all domains with a domain-private block, at a fixed mixing angle
of 55 degrees.  At angle 0 all domains (and the held-out target) would use
the same embedding, so generalization would be trivial; as the angle grows,
more of each domain's energy moves into its private block and the target
domain (whose private block is freshly drawn) becomes genuinely out of
distribution.  The target's per-coordinate scalings and offset are
mixture-weighted combinations of the source ones, so the target stays inside
the family described by the mixture weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fields import check_field_types

__all__ = [
    "SyntheticConfig",
    "DomainDataset",
    "generate_synthetic",
    "true_latent_matrix",
    "save_dataset",
    "load_dataset",
    "sample_batches",
]

# Seed-stream tags: one child generator per concern so that changing, say,
# how many target samples are drawn never perturbs the source data.
_STREAM_SHARED = 77     # class directions + shared/private frame
_STREAM_DOMAIN = 100    # + k: domain k's map (rotation block, scales, offset)
_STREAM_TARGET_MAP = 999
_STREAM_SOURCE_DRAWS = 5
_STREAM_TARGET_DRAWS = 6
_STREAM_BATCH = 3       # with (seed, epoch): batch shuffling

_NORM_BOUND = 1.0        # bound M that ||target_mixture||_1 must respect
_MIXING_ANGLE_DEG = 55.0  # 0 = shared embedding block only, 90 = private only


@dataclass
class SyntheticConfig:
    """Knobs for the synthetic multi-domain benchmark.

    num_domains             : K source domains
    num_classes             : C classes, each a direction in latent space
    feature_dim             : observed dimension (>= 2 * latent_dim_true)
    latent_dim_true         : dimension of the generating latent space (>= C)
    samples_per_domain_class: training samples per (domain, class) cell
    target_samples_per_class: held-out target samples per class
    domain_scales           : per-domain latent scale alpha_k (length K)
    noise_std               : isotropic latent noise
    target_mixture          : mixture weights beta over sources for the target
                              (||beta||_1 <= 1)
    offset_scale            : scale of each domain's feature-space translation
    seed                    : master seed (all randomness derives from it)

    Construction rejects a value of the wrong type, out of range or
    inconsistent with another with a ``ValueError``, as ``TrainConfig`` does.
    """

    num_domains: int = 3
    num_classes: int = 4
    feature_dim: int = 16
    latent_dim_true: int = 8
    samples_per_domain_class: int = 50
    target_samples_per_class: int = 400
    domain_scales: tuple[float, ...] = (1.0, 1.3, 0.8)
    noise_std: float = 0.05
    target_mixture: tuple[float, ...] = (0.4, 0.3, 0.3)
    offset_scale: float = 0.3
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.num_domains < 1 or self.num_classes < 2:
            raise ValueError("need at least 1 domain and 2 classes")
        if self.latent_dim_true < self.num_classes:
            raise ValueError(
                f"latent_dim_true={self.latent_dim_true} cannot host "
                f"{self.num_classes} class directions"
            )
        if self.feature_dim < 2 * self.latent_dim_true:
            raise ValueError(
                f"feature_dim={self.feature_dim} too small: the mixing construction "
                f"needs a private block as wide as latent_dim_true, "
                f"i.e. feature_dim >= {2 * self.latent_dim_true}"
            )
        if len(self.domain_scales) != self.num_domains:
            raise ValueError("domain_scales length must equal num_domains")
        if len(self.target_mixture) != self.num_domains:
            raise ValueError("target_mixture length must equal num_domains")
        beta = np.asarray(self.target_mixture, dtype=np.float64)
        if np.any(beta < 0.0):
            raise ValueError("target_mixture weights must be non-negative")
        if float(np.sum(beta)) > _NORM_BOUND + 1e-12:
            raise ValueError(
                f"||target_mixture||_1 = {float(np.sum(beta)):.6g} exceeds {_NORM_BOUND}"
            )
        if float(np.sum(beta)) <= 0.0:
            raise ValueError("target_mixture must have positive total mass")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative")
        if self.samples_per_domain_class < 1 or self.target_samples_per_class < 1:
            raise ValueError("samples per class must be >= 1")


@dataclass
class DomainDataset:
    """Feature rows with integer labels and domain ids.

    For a single-domain dataset (e.g. the held-out target) ``num_domains``
    is 1 and every domain id is 0.
    """

    num_domains: int
    num_classes: int
    feature_dim: int
    features: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domain_ids = np.asarray(self.domain_ids, dtype=np.int64)
        n = self.features.shape[0]
        if self.features.ndim != 2 or self.features.shape[1] != self.feature_dim:
            raise ValueError(
                f"features must be (n, {self.feature_dim}), got {self.features.shape}"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite entries")
        if self.labels.shape != (n,) or self.domain_ids.shape != (n,):
            raise ValueError("labels/domain_ids must match the number of feature rows")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        if n and (self.domain_ids.min() < 0 or self.domain_ids.max() >= self.num_domains):
            raise ValueError("domain id out of range")

    def __len__(self):
        return self.features.shape[0]


def _orthonormal_columns(rng, rows: int, cols: int) -> np.ndarray:
    """`cols` orthonormal columns in `rows` dimensions, sign-stabilized."""
    if cols > rows:
        raise ValueError(f"cannot fit {cols} orthonormal columns in {rows} dims")
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _domain_map(u_shared, u_private, rotation, scales, angle_rad):
    """Embedding matrix: mixed orthonormal columns times diagonal scalings."""
    cols = np.cos(angle_rad) * u_shared + np.sin(angle_rad) * (u_private @ rotation)
    return cols * scales  # scale each column


def generate_synthetic(cfg: SyntheticConfig):
    """Draw the source domains and the held-out target domain.

    Returns ``(sources, target)`` as two DomainDataset values.  Latents are
    ``alpha_k * direction_class + noise``; features are an affine push-forward
    per domain.  All randomness is derived from ``cfg.seed`` through separate
    named streams, so e.g. requesting more target samples leaves the source
    data bit-identical.
    """
    k_dom, n_cls = cfg.num_domains, cfg.num_classes
    ld, fd = cfg.latent_dim_true, cfg.feature_dim
    angle = np.deg2rad(_MIXING_ANGLE_DEG)

    rng_shared = np.random.default_rng([cfg.seed, _STREAM_SHARED])
    directions = _orthonormal_columns(rng_shared, ld, n_cls)
    frame = _orthonormal_columns(rng_shared, fd, 2 * ld)
    u_shared, u_private = frame[:, :ld], frame[:, ld:]

    maps, offsets, scale_rows = [], [], []
    for k in range(k_dom):
        rng_k = np.random.default_rng([cfg.seed, _STREAM_DOMAIN + k])
        rot = _orthonormal_columns(rng_k, ld, ld)
        scales = rng_k.uniform(0.5, 2.0, size=ld)
        off = cfg.offset_scale * rng_k.standard_normal(fd)
        maps.append(_domain_map(u_shared, u_private, rot, scales, angle))
        offsets.append(off)
        scale_rows.append(scales)

    beta = np.asarray(cfg.target_mixture, dtype=np.float64)
    w = beta / np.sum(beta)
    rng_t = np.random.default_rng([cfg.seed, _STREAM_TARGET_MAP])
    rot_t = _orthonormal_columns(rng_t, ld, ld)
    # geometric mean keeps target scales inside [0.5, 2.0]
    scales_t = np.exp(sum(wj * np.log(s) for wj, s in zip(w, scale_rows)))
    off_t = sum(wj * o for wj, o in zip(w, offsets))
    map_t = _domain_map(u_shared, u_private, rot_t, scales_t, angle)

    alphas = np.asarray(cfg.domain_scales, dtype=np.float64)
    rng_src = np.random.default_rng([cfg.seed, _STREAM_SOURCE_DRAWS])
    spc = cfg.samples_per_domain_class
    xs, ys, ds = [], [], []
    for k in range(k_dom):
        for c in range(n_cls):
            z = alphas[k] * directions[:, c] + cfg.noise_std * rng_src.standard_normal(
                (spc, ld)
            )
            xs.append(z @ maps[k].T + offsets[k])
            ys.append(np.full(spc, c, dtype=np.int64))
            ds.append(np.full(spc, k, dtype=np.int64))
    sources = DomainDataset(
        num_domains=k_dom,
        num_classes=n_cls,
        feature_dim=fd,
        features=np.concatenate(xs),
        labels=np.concatenate(ys),
        domain_ids=np.concatenate(ds),
    )

    rng_tgt = np.random.default_rng([cfg.seed, _STREAM_TARGET_DRAWS])
    tspc = cfg.target_samples_per_class
    xt, yt = [], []
    for c in range(n_cls):
        comp = rng_tgt.choice(k_dom, size=tspc, p=w)
        z = alphas[comp, None] * directions[:, c] + cfg.noise_std * (
            rng_tgt.standard_normal((tspc, ld))
        )
        xt.append(z @ map_t.T + off_t)
        yt.append(np.full(tspc, c, dtype=np.int64))
    target = DomainDataset(
        num_domains=1,
        num_classes=n_cls,
        feature_dim=fd,
        features=np.concatenate(xt),
        labels=np.concatenate(yt),
        domain_ids=np.zeros(tspc * n_cls, dtype=np.int64),
    )
    return sources, target


def true_latent_matrix(cfg: SyntheticConfig) -> np.ndarray:
    """Noiseless generating latents, one row per (domain, class) cell.

    Row (k, c) is ``alpha_k * direction_c``: the latents every sample of that
    cell concentrates on as noise_std -> 0.  Because the K * C rows are just
    per-domain rescalings of C shared directions, this matrix has rank at
    most C however many domains are stacked — the structural fact that makes
    a rank-C latent representation sufficient.
    """
    rng_shared = np.random.default_rng([cfg.seed, _STREAM_SHARED])
    directions = _orthonormal_columns(rng_shared, cfg.latent_dim_true, cfg.num_classes)
    alphas = np.asarray(cfg.domain_scales, dtype=np.float64)
    rows = [
        alphas[k] * directions[:, c]
        for k in range(cfg.num_domains)
        for c in range(cfg.num_classes)
    ]
    return np.array(rows)


# ---------------------------------------------------------------------------
# dataset file format
#
# Line 1:  LDDG-DS 1 <num_domains> <num_classes> <feature_dim> <num_records>
# Then one record per line: <domain_id> <label> <f_1> ... <f_feature_dim>
# Floats are written with repr precision, so save -> load round-trips exactly.
# ---------------------------------------------------------------------------

_MAGIC = "LDDG-DS"
_VERSION = 1


def save_dataset(path, ds: DomainDataset):
    """Write a DomainDataset as an LDDG-DS text file."""
    n = len(ds)
    with open(path, "w") as fh:
        fh.write(
            f"{_MAGIC} {_VERSION} {ds.num_domains} {ds.num_classes} "
            f"{ds.feature_dim} {n}\n"
        )
        for i in range(n):
            feats = " ".join(repr(float(v)) for v in ds.features[i])
            fh.write(f"{ds.domain_ids[i]} {ds.labels[i]} {feats}\n")


def load_dataset(path) -> DomainDataset:
    """Parse an LDDG-DS file; malformed input fails with the line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected {_MAGIC} header")
    head = lines[0].split()
    if len(head) != 6 or head[0] != _MAGIC:
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}")
    try:
        version, k_dom, n_cls, fd, n = (int(tok) for tok in head[1:])
    except ValueError:
        raise ValueError(f"{path}: line 1: non-integer header field in {lines[0]!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: line 1: unsupported format version {version}")
    if len(lines) - 1 != n:
        raise ValueError(
            f"{path}: header declares {n} records but file has {len(lines) - 1}"
        )
    feats = np.empty((n, fd))
    labels = np.empty(n, dtype=np.int64)
    domains = np.empty(n, dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != 2 + fd:
            raise ValueError(
                f"{path}: line {i}: expected {2 + fd} fields, got {len(toks)}"
            )
        try:
            domains[i - 2] = int(toks[0])
            labels[i - 2] = int(toks[1])
            feats[i - 2] = [float(t) for t in toks[2:]]
        except ValueError:
            raise ValueError(f"{path}: line {i}: non-numeric field")
    try:
        return DomainDataset(
            num_domains=k_dom,
            num_classes=n_cls,
            feature_dim=fd,
            features=feats,
            labels=labels,
            domain_ids=domains,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def sample_batches(ds: DomainDataset, batch_per_domain: int, seed: int, epoch: int):
    """Index batches for one epoch: ``batch_per_domain`` rows from each domain.

    Each domain's rows are independently reshuffled every epoch (the stream
    depends on both seed and epoch), then batch b concatenates slice b of
    every domain's permutation.  Trailing ragged batches are retained, so
    every sample is visited exactly once per epoch.
    """
    if batch_per_domain < 1:
        raise ValueError("batch_per_domain must be >= 1")
    rng = np.random.default_rng([seed, _STREAM_BATCH, epoch])
    perms = []
    for k in range(ds.num_domains):
        idx = np.flatnonzero(ds.domain_ids == k)
        perms.append(idx[rng.permutation(idx.size)])
    n_batches = max((p.size + batch_per_domain - 1) // batch_per_domain for p in perms)
    batches = []
    for b in range(n_batches):
        parts = [p[b * batch_per_domain : (b + 1) * batch_per_domain] for p in perms]
        batch = np.concatenate([p for p in parts if p.size])
        if batch.size:
            batches.append(batch)
    return batches
