"""Variational encoder + linear classifier with a hand-written backward pass.

Architecture: an MLP encoder (leaky ReLU), one shared ReLU hidden layer
feeding two linear heads (posterior mean and log-variance), a pathwise
latent sample, and a strictly affine classifier on the latent.  The whole
thing is small enough that reverse-mode differentiation is spelled out
explicitly, layer by layer; tests check it against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fields import check_field_types
from .losses import batch_mean
from .regularizers import (
    LOG_VAR_MAX,
    LOG_VAR_MIN,
    GaussianPosterior,
    kl_standard_normal,
    nuclear_norm,
    rank_loss,
    reparameterize,
)

__all__ = [
    "Layer",
    "ModelParams",
    "TrainConfig",
    "ForwardTrace",
    "init_params",
    "forward",
    "total_loss",
    "backward",
    "AdamState",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

_ACTIVATIONS = ("linear", "relu", "leaky_relu")
_LEAKY_SLOPE = 0.01
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class Layer:
    """Affine layer ``y = W x + b`` with an activation tag."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "linear"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class ModelParams:
    """All trainable arrays, in declaration order (also checkpoint order)."""

    encoder: list
    head_hidden: Layer
    head_mu: Layer
    head_log_var: Layer
    classifier: Layer

    def layers(self):
        """Layers in declaration order."""
        return [*self.encoder, self.head_hidden, self.head_mu,
                self.head_log_var, self.classifier]

    def flat(self):
        """All arrays (weight, bias alternating) in declaration order."""
        out = []
        for layer in self.layers():
            out.append(layer.weight)
            out.append(layer.bias)
        return out


@dataclass
class TrainConfig:
    """Optimization and regularization settings.

    The objective is ``CE + lambda1 * penalty(Z) + lambda2 * KL``, with the
    penalty taken over the whole latent batch Z.  rank_target overrides the
    class count C in the rank penalty (sigma_{rank_target+1} is penalized);
    None means use the number of classes.  regularizer picks the low-rank
    penalty itself: 'rank' (the sigma_{C+1} penalty) or 'nuclear' (sum of
    singular values, an ablation baseline).
    """

    lambda1: float = 0.01
    lambda2: float = 0.4
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    epochs: int = 200
    batch_per_domain: int = 16
    lr_decay_every: int = 80
    latent_dim: int = 16
    seed: int = 0
    rank_target: int | None = None
    regularizer: str = "rank"
    encoder_dims: tuple[int, ...] = (32, 32)
    head_hidden_dim: int = 32
    log_singular_values: bool = False

    def __post_init__(self):
        check_field_types(self)
        if not self.encoder_dims:
            raise ValueError("encoder_dims must list at least one layer width")
        for name in ("epochs", "batch_per_domain", "lr_decay_every", "latent_dim",
                     "head_hidden_dim", "encoder_dims"):
            if np.min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.regularizer not in ("rank", "nuclear"):
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("lambda1", "lambda2", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.rank_target is not None and self.rank_target < 1:
            raise ValueError("rank_target must be >= 1 when set")


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward evaluation.

    The trunk is ``[*params.encoder, params.head_hidden]``; ``trunk_pre``
    and ``trunk_act`` hold each of its layers' pre-activations and outputs.
    ``total_loss`` fills the fields after ``logits``: the unweighted
    gradients of CE (w.r.t. the logits), of the penalty (w.r.t. z) and of
    KL (w.r.t. the posterior), the ``labels`` and ``cfg`` objects they were
    computed for, and the singular values of z from the penalty's SVD.
    ``backward`` reuses those gradients rather than run ``batch_mean``, the
    SVD and ``kl_standard_normal`` again.
    """

    x: np.ndarray
    trunk_pre: list
    trunk_act: list
    log_var_raw: np.ndarray
    posterior: GaussianPosterior
    noise: np.ndarray
    z: np.ndarray
    logits: np.ndarray
    labels: np.ndarray | None = None
    cfg: TrainConfig | None = None
    d_logits: np.ndarray | None = None
    rank_sub: np.ndarray | None = None
    kl_mu: np.ndarray | None = None
    kl_log_var: np.ndarray | None = None
    sigma: np.ndarray | None = None


def init_params(
    input_dim: int,
    num_classes: int,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""

    def lin(out_dim, in_dim, activation):
        w = rng.uniform(-1.0, 1.0, size=(out_dim, in_dim)) / np.sqrt(in_dim)
        return Layer(weight=w, bias=np.zeros(out_dim), activation=activation)

    dims = [input_dim, *cfg.encoder_dims]
    encoder = [
        lin(dims[i + 1], dims[i], "leaky_relu") for i in range(len(cfg.encoder_dims))
    ]
    head_hidden = lin(cfg.head_hidden_dim, dims[-1], "relu")
    head_mu = lin(cfg.latent_dim, cfg.head_hidden_dim, "linear")
    head_log_var = lin(cfg.latent_dim, cfg.head_hidden_dim, "linear")
    classifier = lin(num_classes, cfg.latent_dim, "linear")
    return ModelParams(encoder, head_hidden, head_mu, head_log_var, classifier)


def _activate(pre, kind):
    if kind == "relu":
        return np.maximum(pre, 0.0)
    if kind == "leaky_relu":
        return np.maximum(pre, _LEAKY_SLOPE * pre)
    return pre


def _activate_grad(pre, kind):
    if kind == "relu":
        return (pre > 0.0).astype(np.float64)
    if kind == "leaky_relu":
        return (pre > 0.0) * (1.0 - _LEAKY_SLOPE) + _LEAKY_SLOPE
    return np.ones_like(pre)


def forward(params: ModelParams, x, noise=None) -> ForwardTrace:
    """Run the network on a batch.

    ``noise`` is the reparameterization draw and must have the posterior's
    shape (any other shape raises ``ValueError``); None (or anything
    all-zero) evaluates at the posterior mean, which is the deterministic
    mode used for accuracy measurements.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("forward expects a 2-D batch")
    if not np.all(np.isfinite(h)):
        raise ValueError("forward received non-finite inputs")
    pres, acts = [], []
    for layer in [*params.encoder, params.head_hidden]:
        pre = h @ layer.weight.T + layer.bias
        h = _activate(pre, layer.activation)
        pres.append(pre)
        acts.append(h)
    mu = h @ params.head_mu.weight.T + params.head_mu.bias
    log_var_raw = h @ params.head_log_var.weight.T + params.head_log_var.bias
    posterior = GaussianPosterior(mu=mu, log_var=log_var_raw.copy())
    eps = np.zeros_like(mu) if noise is None else np.asarray(noise, dtype=np.float64)
    z = reparameterize(posterior, eps)
    logits = z @ params.classifier.weight.T + params.classifier.bias
    return ForwardTrace(
        x=np.asarray(x, dtype=np.float64),
        trunk_pre=pres,
        trunk_act=acts,
        log_var_raw=log_var_raw,
        posterior=posterior,
        noise=eps,
        z=z,
        logits=logits,
    )


def total_loss(trace: ForwardTrace, labels, cfg: TrainConfig):
    """Scalar objective and its additive parts.

    Evaluates CE, the configured low-rank penalty of the whole latent batch
    (``rank_loss`` at ``rank_target``, or at the class count when that is
    None, or ``nuclear_norm``) and KL, once each.  Returns ``(value, parts)``
    with parts keyed 'cls', 'rank', 'kl', 'total'; the total is exactly
    ``cls + lambda1 * rank + lambda2 * kl`` as floats.  The terms' gradients,
    ``labels``, ``cfg`` and the penalty's singular values are stored on the
    trace (see ForwardTrace), so backward reuses them.
    """
    labels = np.asarray(labels)
    cls_value, trace.d_logits = batch_mean(trace.logits, labels)
    if cfg.regularizer == "nuclear":
        penalty = nuclear_norm(trace.z)
    else:
        penalty = rank_loss(trace.z, cfg.rank_target or trace.logits.shape[1])
    kl_value, trace.kl_mu, trace.kl_log_var = kl_standard_normal(trace.posterior)
    trace.rank_sub, trace.sigma = penalty.subgradient, penalty.sigma
    trace.labels, trace.cfg = labels, cfg
    parts = {"cls": cls_value, "rank": penalty.value, "kl": kl_value}
    parts["total"] = cls_value + cfg.lambda1 * penalty.value + cfg.lambda2 * kl_value
    return parts["total"], parts


def backward(params: ModelParams, trace: ForwardTrace, labels, cfg: TrainConfig):
    """Gradient of total_loss w.r.t. every parameter.

    Returns a ModelParams whose arrays are the gradients.  Backpropagates
    the loss-side gradients that total_loss stored on the trace for the
    same ``labels`` and ``cfg`` objects, and runs total_loss itself when
    the trace holds none for them, so call total_loss first to compute
    each loss term once.
    """
    labels = np.asarray(labels)
    if trace.labels is not labels or trace.cfg is not cfg:
        total_loss(trace, labels, cfg)
    d_logits = trace.d_logits

    # classifier
    g_cls_w = d_logits.T @ trace.z
    g_cls_b = np.sum(d_logits, axis=0)
    d_z = d_logits @ params.classifier.weight
    d_z = d_z + cfg.lambda1 * trace.rank_sub

    d_mu = d_z + cfg.lambda2 * trace.kl_mu
    std = np.exp(0.5 * trace.posterior.log_var)
    d_lv = d_z * trace.noise * 0.5 * std + cfg.lambda2 * trace.kl_log_var
    # the posterior clamps log_var; outside the clamp range the raw head
    # output has no effect, so its gradient is zero there
    clamp_ok = (trace.log_var_raw > LOG_VAR_MIN) & (trace.log_var_raw < LOG_VAR_MAX)
    d_lv = d_lv * clamp_ok

    top_act = trace.trunk_act[-1]
    g_mu_w = d_mu.T @ top_act
    g_mu_b = np.sum(d_mu, axis=0)
    g_lv_w = d_lv.T @ top_act
    g_lv_b = np.sum(d_lv, axis=0)

    d_act = d_mu @ params.head_mu.weight + d_lv @ params.head_log_var.weight
    trunk = [*params.encoder, params.head_hidden]
    g_trunk = []
    for i in reversed(range(len(trunk))):
        layer = trunk[i]
        d_pre = d_act * _activate_grad(trace.trunk_pre[i], layer.activation)
        below = trace.trunk_act[i - 1] if i > 0 else trace.x
        g_w = d_pre.T @ below
        g_b = np.sum(d_pre, axis=0)
        g_trunk.append(Layer(weight=g_w, bias=g_b, activation=layer.activation))
        d_act = d_pre @ layer.weight
    g_trunk.reverse()

    return ModelParams(
        encoder=g_trunk[:-1],
        head_hidden=g_trunk[-1],
        head_mu=Layer(g_mu_w, g_mu_b, "linear"),
        head_log_var=Layer(g_lv_w, g_lv_b, "linear"),
        classifier=Layer(g_cls_w, g_cls_b, "linear"),
    )


@dataclass
class AdamState:
    """Adam's moments and step count over one flat parameter vector.

    ``for_params`` copies every weight matrix and then every bias into
    ``vector`` and rebinds each layer's ``weight`` and ``bias`` to views of
    it, so an update is a few whole-vector operations that the layers see
    without a copy.  ``m`` and ``v`` share the layout; the first
    ``n_weights`` entries are the weights.  ``views`` holds the arrays in
    ``ModelParams.flat`` order, to tell that ``adam_step`` got these params.
    """

    vector: np.ndarray
    n_weights: int
    views: list
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        """State for ``params``, whose arrays become views of its vector."""
        layers = params.layers()
        arrays = [layer.weight for layer in layers] + [layer.bias for layer in layers]
        vector = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
        offset = 0
        for attr in ("weight", "bias"):
            for layer in layers:
                a = getattr(layer, attr)
                setattr(layer, attr, vector[offset : offset + a.size].reshape(a.shape))
                offset += a.size
        return cls(
            vector=vector,
            n_weights=sum(layer.weight.size for layer in layers),
            views=params.flat(),
            m=np.zeros_like(vector),
            v=np.zeros_like(vector),
        )


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
):
    """One Adam update in place, with decoupled weight decay.

    The moment decays are 0.9 and 0.999 and the denominator's epsilon is
    1e-8, Adam's usual values.

    Weight decay multiplies weight matrices by ``(1 - lr * weight_decay)``
    outside the moment accumulators; biases are never decayed.  ``params``
    must be the ModelParams ``state`` was built for: arrays not backed by
    its vector raise ``ValueError`` rather than miss the update.
    """
    flat = params.flat()
    if len(flat) != len(state.views) or any(
        a is not b for a, b in zip(flat, state.views)
    ):
        raise ValueError(
            "adam_step: params are not backed by this AdamState's vector; "
            "build the state with AdamState.for_params(params)"
        )
    layers = grads.layers()
    g = np.concatenate(
        [layer.weight.ravel() for layer in layers] + [layer.bias.ravel() for layer in layers]
    )
    beta1, beta2 = _ADAM_BETA1, _ADAM_BETA2
    state.t += 1
    t = state.t
    m, v, p = state.m, state.v, state.vector
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    if weight_decay:
        p[: state.n_weights] *= 1.0 - lr * weight_decay
    # p -= lr * m_hat / (sqrt(v_hat) + eps), in place, in that order
    np.sqrt(v_hat, out=v_hat)
    v_hat += _ADAM_EPS
    m_hat *= lr
    m_hat /= v_hat
    p -= m_hat


# ---------------------------------------------------------------------------
# checkpoint format (binary)
#
#   LDDG-MODEL 1
#   <num_layers>
#   <activation> <out> <in>     (one line per layer, declaration order)
#   DATA
#   raw little-endian float64: weight then bias per layer, C order
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"LDDG-MODEL"
_CKPT_VERSION = 1


def save_checkpoint(path, params: ModelParams):
    """Serialize parameters with a self-describing header."""
    layers = params.layers()
    lines = [f"{_CKPT_MAGIC.decode()} {_CKPT_VERSION}", str(len(layers))]
    for layer in layers:
        out_dim, in_dim = layer.weight.shape
        lines.append(f"{layer.activation} {out_dim} {in_dim}")
    lines.append("DATA")
    blob = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.flat()
    )
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        fh.write(blob)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint; validates the header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, sep, rest = raw.partition(b"DATA\n")
    if not sep:
        raise ValueError(f"{path}: missing DATA marker, not a checkpoint file")
    lines = head.decode().splitlines()
    if not lines or not lines[0].startswith(_CKPT_MAGIC.decode()):
        raise ValueError(f"{path}: bad magic, not a checkpoint file")
    _, version = _header_line(path, lines, 1, str, int)
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (n_layers,) = _header_line(path, lines, 2, int)
    if n_layers < 5:
        raise ValueError(f"{path}: checkpoint needs >= 5 layers, found {n_layers}")
    shapes = [_header_line(path, lines, 3 + i, str, int, int) for i in range(n_layers)]
    if len(lines) != 2 + n_layers:
        raise ValueError(f"{path}: header declares {n_layers} layers, found {len(lines) - 2}")
    need = sum(o * i + o for _, o, i in shapes) * 8
    if len(rest) != need:
        raise ValueError(
            f"{path}: expected {need} bytes of parameters, found {len(rest)}"
        )
    layers, offset = [], 0
    for act, out_dim, in_dim in shapes:
        w = np.frombuffer(rest, dtype="<f8", count=out_dim * in_dim, offset=offset)
        offset += w.nbytes
        b = np.frombuffer(rest, dtype="<f8", count=out_dim, offset=offset)
        offset += b.nbytes
        layers.append(Layer(w.reshape(out_dim, in_dim).astype(np.float64),
                            b.astype(np.float64), act))
    # encoder, then head_hidden, head_mu, head_log_var and classifier
    params = ModelParams(layers[:-4], *layers[-4:])
    _check_layer_chain(path, params)
    return params


def _header_line(path, lines, number, *kinds):
    """Header line ``number`` (1-based) as one field per ``kinds`` entry,
    converted by it; a missing line, a wrong field count, a field that does
    not convert or an int below 1 raises ``ValueError`` naming the line."""
    text = lines[number - 1] if number <= len(lines) else ""
    toks = text.split()
    try:
        if len(toks) != len(kinds):
            raise ValueError(f"expected {len(kinds)} fields, got {len(toks)}")
        values = [kind(tok) for kind, tok in zip(kinds, toks)]
        if any(kind is int and v < 1 for kind, v in zip(kinds, values)):
            raise ValueError("integers must be >= 1")
    except ValueError as exc:
        raise ValueError(f"{path}: line {number}: bad header line {text!r}: {exc}") from None
    return values


def _check_layer_chain(path, params: ModelParams):
    """Every layer's input width must be the output width that feeds it."""
    chain = [(f"encoder[{i}]", layer) for i, layer in enumerate(params.encoder)]
    chain += [("head_hidden", params.head_hidden), ("head_mu", params.head_mu),
              ("classifier", params.classifier)]  # the classifier reads the latent
    for (prev_name, prev), (name, layer) in zip(chain, chain[1:]):
        out_dim, in_dim = prev.weight.shape[0], layer.weight.shape[1]
        if in_dim != out_dim:
            raise ValueError(
                f"{path}: {name} takes {in_dim} inputs, but {prev_name} has {out_dim} outputs"
            )
    if params.head_log_var.weight.shape != params.head_mu.weight.shape:
        raise ValueError(
            f"{path}: head_log_var has shape {params.head_log_var.weight.shape}, "
            f"head_mu {params.head_mu.weight.shape}; they must match"
        )
