"""Variational encoder + linear classifier with a hand-written backward pass.

Architecture: an MLP encoder (leaky ReLU), one shared ReLU hidden layer
feeding two linear heads (posterior mean and log-variance), a pathwise
latent sample, and a strictly affine classifier on the latent.  The whole
thing is small enough that reverse-mode differentiation is spelled out
explicitly, layer by layer; tests check it against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._fields import check_field_types
from .linalg import as_matrix
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
        _activation(self.activation)


def _activation(name):
    """``name`` when it is a known activation tag, else ``ValueError``."""
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return name


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if (self.epochs - 1) // self.lr_decay_every > 308:  # 10.0 ** 309 overflows
            raise ValueError(f"lr_decay_every {self.lr_decay_every} divides the learning rate "
                             f"by 10 more than 308 times in {self.epochs} epochs")


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one training step.

    ``forward`` fills the fields up to ``logits``; the trunk is
    ``[*params.encoder, params.head_hidden]``, and ``trunk_act`` holds each
    of its layers' outputs.  Neither the pre-activations nor the unclamped
    log-variance are kept: ``backward`` reads each activation's mask off its
    output and the clamp's mask off the clamped log-variance.
    ``total_loss`` fills the rest: the ``labels`` and ``cfg`` objects it was
    called with, the unweighted gradients of CE (w.r.t. the logits), of the
    penalty (w.r.t. z) and of KL (w.r.t. the posterior), and the singular
    values of z from the penalty's SVD.  ``rank_sub`` and ``sigma`` stay
    None when ``cfg.lambda1`` is 0, as the penalty is then not computed.
    ``backward`` only reads them.

    For members stacked on a leading axis (see ``_Stacked``) every array
    has that axis; ``cfg`` is then the list of the members' configs, and
    ``rank_sub`` and ``sigma`` are lists with one entry per member.
    """

    x: np.ndarray
    trunk_act: list
    posterior: GaussianPosterior
    noise: np.ndarray
    z: np.ndarray
    logits: np.ndarray
    labels: np.ndarray | None = None
    cfg: TrainConfig | list | None = None
    d_logits: np.ndarray | None = None
    rank_sub: np.ndarray | list | None = None
    kl_mu: np.ndarray | None = None
    kl_log_var: np.ndarray | None = None
    sigma: np.ndarray | list | None = None


def _architecture(widths):
    """``(activation, out, in)`` of every layer in declaration order, for
    ``widths = [input, *encoder_dims, head_hidden_dim, latent_dim, classes]``:
    leaky-ReLU encoder layers, the shared ReLU hidden layer, the two linear
    heads (mean, log-variance) and the linear classifier on the latent."""
    *trunk, latent, classes = widths
    acts = ["leaky_relu"] * (len(trunk) - 2) + ["relu"]
    head = ("linear", latent, trunk[-1])
    return [*zip(acts, trunk[1:], trunk), head, head, ("linear", classes, latent)]


def init_params(
    input_dim: int,
    num_classes: int,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    widths = [input_dim, *cfg.encoder_dims, cfg.head_hidden_dim, cfg.latent_dim, num_classes]
    layers = []
    for activation, out_dim, in_dim in _architecture(widths):
        w = rng.uniform(-1.0, 1.0, size=(out_dim, in_dim)) / np.sqrt(in_dim)
        layers.append(Layer(weight=w, bias=np.zeros(out_dim), activation=activation))
    # encoder, then head_hidden, head_mu, head_log_var and classifier
    return ModelParams(layers[:-4], *layers[-4:])


def _layout(params):
    """``(activation, out, in)`` of every layer of ``params``, in declaration order."""
    return [(layer.activation, *layer.weight.shape[-2:]) for layer in params.layers()]


def _flat_vector(params):
    """``params.flat()`` (each layer's weight in C order, then its bias) in one
    vector: the parameters' only layout, and a checkpoint's data section."""
    return np.concatenate([a.ravel() for a in params.flat()], dtype=np.float64)


def _unflatten(flat, layout, cls=ModelParams, **extra):
    """A ``cls`` whose arrays are views of the last axis of ``flat``, laid
    out as ``_flat_vector`` lays them out; a leading axis of ``flat``
    stacks members."""
    lead = flat.shape[:-1]
    offset, layers = 0, []
    for activation, out_dim, in_dim in layout:
        weight = flat[..., offset : offset + out_dim * in_dim].reshape(*lead, out_dim, in_dim)
        offset += out_dim * in_dim
        layers.append(Layer(weight, flat[..., offset : offset + out_dim], activation))
        offset += out_dim
    return cls(layers[:-4], *layers[-4:], **extra)


class _Buffers(dict):
    """The arrays of one training step for models of ``layout`` stacked on
    the leading axes ``lead`` (``()`` for one model), on batches of up to
    ``rows`` rows: ``self[name]`` is the (*lead, rows * width) array
    ``name``, allocated when a call first asks for it and kept from then
    on, so a set made for one call holds only the arrays that call writes.
    The names are ``"x"`` (the batch), ``"eps"`` (its noise), ``"act{i}"``
    (trunk layer i's output), ``"a"`` and ``"b"`` (two arrays, as wide as
    the widest trunk layer, that the trunk's gradients alternate between),
    ``"logits"`` and the latent-width ones in ``_LATENT``.  Stacked
    members' gradients are ``_Stacked``, one model's a ModelParams.  An
    empty set is falsy: test for None, never for truth."""

    _LATENT = ("eps", "mu", "log_var", "d_z", "d_mu", "std")

    def __init__(self, lead, rows, layout):
        super().__init__()
        self.lead, self.rows, self.layout = lead, rows, layout
        trunk, latent, classes = layout[:-3], layout[-3][1], layout[-1][1]
        widest = max(out for _, out, _ in trunk)
        self.widths = {"x": layout[0][2], "a": widest, "b": widest, "logits": classes}
        self.widths |= {f"act{i}": out for i, (_, out, _) in enumerate(trunk)}
        self.widths |= dict.fromkeys(self._LATENT, latent)
        self.size = sum(out * in_dim + out for _, out, in_dim in layout)

    def __missing__(self, name):
        flat = self[name] = np.empty((*self.lead, self.rows * self.widths[name]))
        return flat

    def view(self, name, n, width=None):
        """Array ``name`` viewed as (*lead, n, width), at its own width by
        default: each member's (n, width) block is contiguous, as one
        model's (n, width) array is."""
        width = self.widths[name] if width is None else width
        return self[name][..., : n * width].reshape(*self.lead, n, width)

    @cached_property
    def grads(self):
        """The gradients, as views of one vector per member."""
        grad = np.empty((*self.lead, self.size))
        return (_unflatten(grad, self.layout, _Stacked, vector=grad) if self.lead
                else _unflatten(grad, self.layout))

    @cached_property
    def scratch(self):
        """Adam's temporaries."""
        return np.empty((*self.lead, self.size))


@dataclass
class _Stacked(ModelParams):
    """A group of members stacked on a leading axis, and everything it owns:
    each layer's weight is (members, out, in) and its bias (members, out),
    views of the rows of ``vector``, each row one member's ``_flat_vector``
    (and so its checkpoint data); ``m``, ``v`` and the gradients' vector
    share that layout, and ``t`` is Adam's step count.  ``forward``,
    ``backward`` and ``adam_step`` write one step's arrays into
    ``buffers``, so a trace or gradients of these params hold until the
    next such call.  ``backward`` returns gradients of this
    type (without moments), whose ``vector`` ``adam_step`` consumes."""

    vector: np.ndarray | None = None
    buffers: _Buffers | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def _stack(members, rows):
    """``_Stacked`` copies of ``members`` (ModelParams of one architecture;
    one object may stand for several members) with zero moments and buffers
    for batches of up to ``rows`` rows."""
    layout = _layout(members[0])
    vector = np.stack([_flat_vector(p) for p in members])
    return _unflatten(vector, layout, _Stacked, vector=vector,
                      buffers=_Buffers((len(members),), rows, layout),
                      m=np.zeros_like(vector), v=np.zeros_like(vector))


def _member(params, m):
    """Member ``m`` of ``_Stacked`` params, as ModelParams viewing its row of the vector."""
    return _unflatten(params.vector[m], _layout(params))


def _step_buffers(params, n):
    """``params``' step buffers; params without buffers (one model) get a
    set for n rows of their own, for this call alone, which allocates only
    the arrays the call writes."""
    buffers = getattr(params, "buffers", None)
    return _Buffers((), n, _layout(params)) if buffers is None else buffers


class _MemberError(ValueError):
    """A ValueError about one of the members stacked on a leading axis:
    ``member`` is its index (0 for one model)."""

    def __init__(self, message, member):
        super().__init__(message)
        self.member = member


def _swap(a):
    """``a`` with its last two axes swapped: each member's transpose."""
    return np.swapaxes(a, -1, -2)


def _affine(h, layer, out=None):
    """``h @ W.T + b`` of each member, into ``out`` (a new array when
    None), with the bias added in place."""
    out = np.matmul(h, _swap(layer.weight), out=out)
    out += layer.bias[..., None, :]
    return out


def _activate(pre, kind, tmp=None):
    """The activation ``kind`` of ``pre``, written into ``pre``'s buffer;
    ``tmp`` (a new array when None) takes the leaky ReLU's slope term."""
    if kind == "relu":
        np.maximum(pre, 0.0, out=pre)
    elif kind == "leaky_relu":
        np.maximum(pre, np.multiply(pre, _LEAKY_SLOPE, out=tmp), out=pre)
    return pre


def _activate_grad(d_act, act, kind, tmp):
    """``d_act`` times the activation's derivative, in place, read off the
    activation's output ``act``: with a positive slope, an output is > 0
    exactly where its input is.  ``tmp``, shaped as ``act``, takes the
    derivative."""
    if kind == "linear":
        return d_act
    deriv = np.greater(act, 0.0, out=tmp)
    if kind == "leaky_relu":
        deriv *= 1.0 - _LEAKY_SLOPE
        deriv += _LEAKY_SLOPE
    d_act *= deriv
    return d_act


def _trunk(params, h, acts=None, buffers=None):
    """The trunk's output on the batch ``h``; with ``acts``, each of its
    layers' outputs is appended to that list.  ``buffers`` (see
    ``_step_buffers``) supplies arrays for the outputs."""
    n = h.shape[-2]
    for i, layer in enumerate([*params.encoder, params.head_hidden]):
        out = None if buffers is None else buffers.view(f"act{i}", n)
        h = _affine(h, layer, out)  # unless acts keeps it, the input is freed here
        tmp = None if buffers is None else buffers.view("a", n, h.shape[-1])
        _activate(h, layer.activation, tmp)
        if acts is not None:
            acts.append(h)
    return h


def forward(params: ModelParams, x, noise=None) -> ForwardTrace:
    """Run the network on a batch.

    ``noise`` is the reparameterization draw and must have the posterior's
    shape (any other shape raises ``ValueError``); None (or anything
    all-zero) evaluates at the posterior mean.  ``evaluate`` scores that
    mean without a trace, through the same trunk.  Non-finite input or
    head outputs raise ``ValueError``.  ``_Stacked`` params take ``x`` as a
    finite float64 (members, n, in) array, one batch per member, which is
    not checked again.
    """
    if not isinstance(params, _Stacked):
        x = as_matrix(x)
    n = x.shape[-2]
    buffers = _step_buffers(params, n)
    acts = []
    h = _trunk(params, x, acts, buffers)
    mu = _affine(h, params.head_mu, buffers.view("mu", n))
    log_var = _affine(h, params.head_log_var, buffers.view("log_var", n))
    finite = np.isfinite(mu).all(axis=(-2, -1)) & np.isfinite(log_var).all(axis=(-2, -1))
    if not finite.all():
        raise _MemberError("matrix contains non-finite entries (NaN or Inf)",
                           int(np.argmin(finite)))
    posterior = GaussianPosterior._of_heads(mu, log_var)
    eps = np.zeros_like(mu) if noise is None else np.asarray(noise, dtype=np.float64)
    z = reparameterize(posterior, eps)
    logits = _affine(z, params.classifier, buffers.view("logits", n))
    return ForwardTrace(
        x=x,
        trunk_act=acts,
        posterior=posterior,
        noise=eps,
        z=z,
        logits=logits,
    )


def _per_member(cfgs, name):
    """Field ``name`` of each config, as an array."""
    return np.array([getattr(c, name) for c in cfgs], dtype=np.float64)


def total_loss(trace: ForwardTrace, labels, cfg: TrainConfig):
    """Scalar objective and its additive parts; the step's only loss code.

    Evaluates CE, KL and, when ``cfg.lambda1`` weights it, the configured
    low-rank penalty of the whole latent batch (``rank_loss`` at
    ``rank_target``, or at the class count when that is None, or
    ``nuclear_norm``), once each, and stores their gradients on the trace
    with ``labels`` and ``cfg`` as passed (see ForwardTrace).  Returns
    ``(value, parts)`` with parts keyed 'cls', 'rank', 'kl', 'total'.  The
    total is exactly ``cls + lambda1 * rank + lambda2 * kl``; at
    ``lambda1 == 0`` no SVD runs, 'rank' is None (not computed) and the
    total is exactly ``cls + lambda2 * kl``.

    For a trace of stacked members ``cfg`` lists one config per member and
    each penalty is one SVD of that member's (n, d) batch; the value and
    every part are then arrays with one entry per member, 'rank' being 0
    where it is not computed.
    """
    stacked = trace.z.ndim == 3
    cfgs = cfg if stacked else [cfg]
    n_cls = trace.logits.shape[-1]
    # the penalties first: their SVDs then run before CE and KL allocate
    rank = np.zeros(len(cfgs))
    subs, sigmas = [None] * len(cfgs), [None] * len(cfgs)
    for m, (c, z) in enumerate(zip(cfgs, trace.z if stacked else [trace.z])):
        if not c.lambda1:
            continue
        if c.regularizer == "nuclear":
            penalty = nuclear_norm(z)
        else:
            penalty = rank_loss(z, c.rank_target or n_cls)
        rank[m], subs[m], sigmas[m] = penalty.value, penalty.subgradient, penalty.sigma
    cls_value, trace.d_logits = batch_mean(trace.logits, labels)
    kl_value, trace.kl_mu, trace.kl_log_var = kl_standard_normal(trace.posterior)
    trace.labels, trace.cfg = labels, cfg
    total = _per_member(cfgs, "lambda1") * rank
    total += cls_value
    total += _per_member(cfgs, "lambda2") * kl_value
    if stacked:
        trace.rank_sub, trace.sigma = subs, sigmas
        return total, {"cls": cls_value, "rank": rank, "kl": kl_value, "total": total}
    trace.rank_sub, trace.sigma = subs[0], sigmas[0]
    total = float(total[0])
    rank = float(rank[0]) if cfg.lambda1 else None
    return total, {"cls": cls_value, "rank": rank, "kl": kl_value, "total": total}


def backward(params: ModelParams, trace: ForwardTrace, labels, cfg: TrainConfig):
    """Gradient of total_loss w.r.t. every parameter, as a ModelParams.

    Backpropagates the gradients ``total_loss(trace, labels, cfg)`` stored
    on the trace, the penalty's only when it stored one.  A trace without
    them, or with them stored for other ``labels`` or ``cfg`` objects,
    raises ``ValueError``.  The gradients are views of step buffers: for
    ``_Stacked`` params ``_Stacked`` views of the params' own, otherwise
    views of a set allocated for this call.
    """
    if trace.d_logits is None:
        raise ValueError("backward needs the gradients total_loss stores; call it first")
    if trace.labels is not labels or trace.cfg is not cfg:
        raise ValueError("backward got other labels or cfg than total_loss stored")
    stacked = trace.z.ndim == 3
    lambda2 = _per_member(cfg, "lambda2")[:, None, None] if stacked else cfg.lambda2
    n = trace.z.shape[-2]
    buffers = _step_buffers(params, n)
    layers, outs = params.layers(), buffers.grads.layers()

    def layer_grads(i, d_out, below):
        np.matmul(_swap(d_out), below, out=outs[i].weight)
        np.sum(d_out, axis=-2, out=outs[i].bias)

    d_logits = trace.d_logits
    layer_grads(-1, d_logits, trace.z)  # classifier
    d_z = np.matmul(d_logits, params.classifier.weight, out=buffers.view("d_z", n))
    members = zip(d_z, cfg, trace.rank_sub) if stacked else [(d_z, cfg, trace.rank_sub)]
    for d_z_m, c, sub in members:
        if sub is not None:
            d_z_m += c.lambda1 * sub

    d_mu = np.multiply(trace.kl_mu, lambda2, out=buffers.view("d_mu", n))
    d_mu += d_z
    std = np.multiply(trace.posterior.log_var, 0.5, out=buffers.view("std", n))
    np.exp(std, out=std)
    d_lv = d_z  # d_z is spent; d_lv = d_z * noise * 0.5 * std, in its buffer
    d_lv *= trace.noise
    d_lv *= 0.5
    d_lv *= std
    d_lv += np.multiply(trace.kl_log_var, lambda2, out=std)
    # the posterior clamps log_var; outside the clamp range the raw head
    # output has no effect, so its gradient is zero there.  The clamped value
    # lies strictly inside the range exactly where the raw one does.
    log_var = trace.posterior.log_var
    d_lv *= (log_var > LOG_VAR_MIN) & (log_var < LOG_VAR_MAX)

    top_act = trace.trunk_act[-1]
    layer_grads(-3, d_mu, top_act)
    layer_grads(-2, d_lv, top_act)

    this, other = "a", "b"  # d_act lives in one, the next layer's in the other
    width = top_act.shape[-1]
    d_act = np.matmul(d_mu, params.head_mu.weight, out=buffers.view(this, n, width))
    d_act += np.matmul(d_lv, params.head_log_var.weight, out=buffers.view(other, n, width))
    del d_mu, d_lv, std  # the trunk's gradients need only d_act
    for i in reversed(range(len(layers) - 3)):
        layer = layers[i]
        d_pre = _activate_grad(d_act, trace.trunk_act[i], layer.activation,
                               buffers.view(other, n, d_act.shape[-1]))
        layer_grads(i, d_pre, trace.trunk_act[i - 1] if i > 0 else trace.x)
        if i:  # the gradient w.r.t. the input x is never read
            d_act = np.matmul(d_pre, layer.weight,
                              out=buffers.view(other, n, layer.weight.shape[-1]))
            this, other = other, this
    return buffers.grads


def adam_step(params: ModelParams, grads: ModelParams, lr: float, weight_decay: float = 0.0):
    """One Adam update of every member of a ``_Stacked`` group in place,
    with decoupled weight decay; other params raise ``ValueError``.

    The moment decays are 0.9 and 0.999 and the denominator's epsilon is
    1e-8, Adam's usual values.  The group's own ``m``, ``v`` and ``t``
    carry the state from step to step, its buffers take the temporaries,
    and the ``_Stacked`` gradients ``backward`` returned are consumed.

    Weight decay multiplies weight matrices by ``(1 - lr * weight_decay)``
    outside the moment accumulators; biases are never decayed.
    """
    if not isinstance(params, _Stacked):
        raise ValueError("adam_step updates a stacked group; got params of one model")
    g, scratch = grads.vector, params.buffers.scratch
    beta1, beta2 = _ADAM_BETA1, _ADAM_BETA2
    params.t += 1
    t = params.t
    m, v, p = params.m, params.v, params.vector
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=scratch)
    v *= beta2
    g *= g  # g is this step's own; it becomes (1 - beta2) g^2
    g *= 1.0 - beta2
    v += g
    m_hat = np.divide(m, 1.0 - beta1**t, out=scratch)
    v_hat = np.divide(v, 1.0 - beta2**t, out=g)
    if weight_decay:
        for layer in params.layers():
            layer.weight *= 1.0 - lr * weight_decay
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
#   <activation> <out> <in>     (one line per layer, as _architecture lists them)
#   DATA
#   raw little-endian float64: _flat_vector's vector (weight then bias per
#   layer, C order)
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"LDDG-MODEL"
_CKPT_VERSION = 1


def save_checkpoint(path, params: ModelParams):
    """Serialize parameters with a self-describing header."""
    layout = _layout(params)
    lines = [f"{_CKPT_MAGIC.decode()} {_CKPT_VERSION}", str(len(layout))]
    lines += [f"{activation} {out_dim} {in_dim}" for activation, out_dim, in_dim in layout]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\nDATA\n").encode())
        fh.write(_flat_vector(params).astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint.

    Every header line must be the layer ``init_params`` builds for the
    widths the header declares, and every parameter finite; any other
    header or data raises ``ValueError`` naming the file (and the line)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, sep, rest = raw.partition(b"DATA\n")
    if not sep:
        raise ValueError(f"{path}: missing DATA marker, not a checkpoint file")
    lines = head.splitlines()
    if not lines or not lines[0].startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: bad magic, not a checkpoint file")
    _, version = _header_line(path, lines, 1, str, int)
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (n_layers,) = _header_line(path, lines, 2, int)
    if n_layers < 5:
        raise ValueError(f"{path}: checkpoint needs >= 5 layers, found {n_layers}")
    shapes = [tuple(_header_line(path, lines, 3 + i, _activation, int, int))
              for i in range(n_layers)]
    if len(lines) != 2 + n_layers:
        raise ValueError(f"{path}: header declares {n_layers} layers, found {len(lines) - 2}")
    widths = [shapes[0][2], *(out for _, out, _ in shapes[:-2]), shapes[-1][1]]
    for number, (got, want) in enumerate(zip(shapes, _architecture(widths)), start=3):
        if got != want:
            raise ValueError(f"{path}: line {number}: layer {' '.join(map(str, got))!r} "
                             f"does not fit the model, expected {' '.join(map(str, want))!r}")
    need = sum(o * i + o for _, o, i in shapes) * 8
    if len(rest) != need:
        raise ValueError(f"{path}: expected {need} bytes of parameters, found {len(rest)}")
    vector = np.frombuffer(rest, dtype="<f8").astype(np.float64)
    if not np.isfinite(vector).all():
        raise ValueError(f"{path}: parameters hold non-finite values (NaN or inf)")
    return _unflatten(vector, shapes)


def _header_line(path, lines, number, *kinds):
    """Header line ``number`` (1-based, of the header's byte lines) as one
    field per ``kinds`` entry, converted by it; a missing line, a line that
    is not UTF-8, a wrong field count, a field that does not convert or an
    int below 1 raises ``ValueError`` naming the line."""
    raw = lines[number - 1] if number <= len(lines) else b""
    try:
        toks = raw.decode().split()
        if len(toks) != len(kinds):
            raise ValueError(f"expected {len(kinds)} fields, got {len(toks)}")
        values = [kind(tok) for kind, tok in zip(kinds, toks)]
        if any(kind is int and v < 1 for kind, v in zip(kinds, values)):
            raise ValueError("integers must be >= 1")
    except ValueError as exc:
        text = raw.decode(errors="backslashreplace")
        raise ValueError(f"{path}: line {number}: bad header line {text!r}: {exc}") from None
    return values
