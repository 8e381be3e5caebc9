"""Output checks of the lddg benchmark, written without the program's code.

Every check returns a list of error strings (empty when the check passes),
so a run can collect all failures before it reports ``correct``.  Each one
uses an independent computation (numpy's LAPACK SVD, a Gauss-Legendre
quadrature, a plain-numpy forward pass) or a property the method must have
(an accuracy is a count over the target rows); none compares against a
stored copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np

LEAKY_SLOPE = 0.01  # the encoder's leaky-ReLU slope (see lddg.model)
SVD_RTOL = 1e-8  # singular values agree with LAPACK to this share of sigma_1
RETRAIN_ACC_TOL = 0.005  # retrained member vs study figure: 8 of 1600 target rows
QUADRATURE_ATOL = 1e-7  # theorem-1 lhs vs the independent quadrature, in nats


def check_accuracy_is_count(acc, n_rows, where):
    """An accuracy over n rows must be k/n for an integer k in [0, n]."""
    k = acc * n_rows
    if not (0.0 <= acc <= 1.0) or abs(k - round(k)) > 1e-6:
        return [f"{where}: accuracy {acc!r} is not a multiple of 1/{n_rows}"]
    return []


def check_study_rows(rows, key, requested, n_seeds, n_target):
    """Rows of an ablation or sweep study.

    ``key`` is the row attribute that names the row (``cell`` or ``rank``)
    and ``requested`` the order the study was asked for.  Each row carries
    one accuracy per seed, each a count over the target rows, and a mean
    and population std equal to numpy's over those accuracies.
    """
    got = [getattr(r, key) for r in rows]
    if got != list(requested):
        return [f"rows come back as {got}, requested {list(requested)}"]
    errors = []
    for r in rows:
        where = f"{key} {getattr(r, key)}"
        accs = list(r.accuracies)
        if len(accs) != n_seeds:
            errors.append(f"{where}: {len(accs)} accuracies for {n_seeds} seeds")
            continue
        for a in accs:
            errors += check_accuracy_is_count(a, n_target, where)
        mean, std = float(np.mean(accs)), float(np.std(accs))
        if not math.isclose(r.mean, mean, rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"{where}: mean {r.mean!r} != numpy's {mean!r}")
        if not math.isclose(r.std, std, rel_tol=1e-9, abs_tol=1e-15):
            errors.append(f"{where}: std {r.std!r} != numpy's {std!r}")
    return errors


def _activate(pre, kind):
    if kind == "relu":
        return np.maximum(pre, 0.0)
    if kind == "leaky_relu":
        return np.where(pre > 0.0, pre, LEAKY_SLOPE * pre)
    if kind == "linear":
        return pre
    raise ValueError(f"unknown activation {kind!r}")


def posterior_mean_accuracy(params, features, labels):
    """Accuracy of trained parameters at the posterior mean, in plain numpy.

    Encoder layers, then the shared head layer, then the mean head gives
    z = mu (zero noise), then the affine classifier; argmax ties go to the
    lowest class index.
    """
    h = np.asarray(features, dtype=np.float64)
    for layer in [*params.encoder, params.head_hidden]:
        h = _activate(h @ layer.weight.T + layer.bias, layer.activation)
    z = h @ params.head_mu.weight.T + params.head_mu.bias
    logits = z @ params.classifier.weight.T + params.classifier.bias
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def check_retrained_member(recomputed, study_acc, where):
    """A member retrained alone must score what the study reported for it."""
    if abs(recomputed - study_acc) > RETRAIN_ACC_TOL:
        return [
            f"{where}: retrained alone scores {recomputed:.6f}, "
            f"study reported {study_acc:.6f} (tolerance {RETRAIN_ACC_TOL})"
        ]
    return []


def check_above_chance(acc, num_classes, where):
    if not acc > 1.0 / num_classes:
        return [f"{where}: accuracy {acc:.4f} is not above chance 1/{num_classes}"]
    return []


def closed_form_kl(mu, var):
    """KL(N(mu, var) || N(0, 1))."""
    return 0.5 * (mu * mu + var - math.log(var) - 1.0)


def mixture_kl_quadrature(betas, mus, variances, half_width=16.0, panels=256, nodes=24):
    """KL(sum_j beta_j N(mu_j, var_j) || N(0, 1)) by composite Gauss-Legendre."""
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(-half_width, half_width, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    q = np.zeros_like(x)
    for b, m, v in zip(betas, mus, variances):
        q += b * np.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
    log_p = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    keep = q > 0.0
    return float(np.sum(w[keep] * q[keep] * (np.log(q[keep]) - log_p[keep])))


def check_report_records(records, trials, theorem):
    """Every trial present once, in order, satisfied, with lhs <= rhs + tol."""
    errors = []
    if [r.get("trial") for r in records] != list(range(trials)):
        return [f"theorem {theorem}: report does not hold trials 0..{trials - 1} in order"]
    for r in records:
        where = f"theorem {theorem} trial {r['trial']}"
        if "error" in r:
            errors.append(f"{where}: {r['error']}")
            continue
        if r["satisfied"] is not True:
            errors.append(f"{where}: record says not satisfied")
        if not r["lhs"] <= r["rhs"] + r["tolerance"]:
            errors.append(
                f"{where}: lhs {r['lhs']!r} > rhs {r['rhs']!r} + tol {r['tolerance']!r}"
            )
    return errors


def check_mixture_kl_rhs(record, mus, variances):
    """Theorem 1 rhs = sum_j beta_j KL(q_j || N(0,1)), from the closed form."""
    betas = record["detail"]["betas"]
    rhs = sum(b * closed_form_kl(m, v) for b, m, v in zip(betas, mus, variances))
    if not math.isclose(record["rhs"], rhs, rel_tol=1e-9, abs_tol=1e-12):
        return [f"theorem 1 trial {record['trial']}: rhs {record['rhs']!r} != {rhs!r}"]
    return []


def check_mixture_kl_lhs(record, mus, variances):
    """Theorem 1 lhs against the independent quadrature."""
    lhs = mixture_kl_quadrature(record["detail"]["betas"], mus, variances)
    if abs(record["lhs"] - lhs) > QUADRATURE_ATOL + record["tolerance"]:
        return [f"theorem 1 trial {record['trial']}: lhs {record['lhs']!r} != quadrature {lhs!r}"]
    return []


def check_risk_rhs(record, classes):
    """Theorem 2 rhs = M * eps + log C, with C cycling through ``classes``."""
    d = record["detail"]
    where = f"theorem 2 trial {record['trial']}"
    want_c = classes[record["trial"] % len(classes)]
    if d["num_classes"] != want_c:
        return [f"{where}: {d['num_classes']} classes, expected {want_c}"]
    rhs = d["norm_bound"] * d["epsilon"] + math.log(d["num_classes"])
    if not math.isclose(record["rhs"], rhs, rel_tol=1e-12, abs_tol=1e-12):
        return [f"{where}: rhs {record['rhs']!r} != M * eps + log C = {rhs!r}"]
    return []


def check_singular_values(matrix, sigma, where="svd"):
    """Singular values against LAPACK's for the same input."""
    want = np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False)
    got = np.asarray(sigma, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{where}: {got.shape[0]} singular values, LAPACK gives {want.shape[0]}"]
    scale = max(float(want[0]), 1.0) if want.size else 1.0
    worst = float(np.max(np.abs(got - want))) if want.size else 0.0
    if worst > SVD_RTOL * scale:
        return [f"{where}: singular values differ from LAPACK by {worst:.3g}"]
    return []


def check_rank_loss_value(z, num_classes, value, where="rank_loss"):
    """rank_loss(z, C) must be sigma_{C+1}(z), or 0 when min(n, d) <= C."""
    sigma = np.linalg.svd(np.asarray(z, dtype=np.float64), compute_uv=False)
    want = float(sigma[num_classes]) if sigma.size > num_classes else 0.0
    if abs(value - want) > SVD_RTOL * max(float(sigma[0]) if sigma.size else 0.0, 1.0):
        return [f"{where}: value {value!r} != sigma_{num_classes + 1} = {want!r}"]
    return []
