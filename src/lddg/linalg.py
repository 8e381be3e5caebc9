"""Dense linear algebra kernels: the thin SVD and small helpers.

Matrices are plain ``numpy.ndarray`` objects with ``dtype=float64``.  Every
entry point validates that its inputs are finite; NaN or Inf anywhere is a
hard error rather than a silently propagated poison value.

The SVD is LAPACK's (``np.linalg.svd``), its factors returned as they come.
The penalties read only singular values and products ``u_k v_k^T`` of
matched singular vector pairs, which a sign flip of the pair leaves
unchanged.  The test suite checks the SVD against an independent oracle,
the eigenvalues of the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvdResult", "svd", "finite_diff_grad", "as_matrix"]


def as_matrix(z) -> np.ndarray:
    """Coerce ``z`` to a finite 2-D float64 array.

    Raises ``ValueError`` if the input is not two-dimensional or contains
    non-finite entries.
    """
    m = np.asarray(z, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries (NaN or Inf)")
    return m


@dataclass
class SvdResult:
    """Thin SVD ``z = u @ diag(sigma) @ v.T``.

    u     : (rows, r) with orthonormal columns
    sigma : (r,) non-negative, sorted in descending order
    v     : (cols, r) with orthonormal columns

    where ``r = min(rows, cols)``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(z) -> SvdResult:
    """Thin singular value decomposition of a finite, non-empty matrix."""
    a = as_matrix(z)
    if a.size == 0:
        raise ValueError(f"svd requires a non-empty matrix, got shape {a.shape}")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, sigma=sigma, v=vt.T)


def finite_diff_grad(f, z, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` with respect to array ``z``.

    Perturbs one entry at a time: ``(f(z + h e_ij) - f(z - h e_ij)) / (2 h)``.
    Intended for verifying hand-written backward passes on small inputs.
    """
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    flat = grad.reshape(-1)
    zf = z.copy().reshape(-1)
    for i in range(zf.size):
        orig = zf[i]
        zf[i] = orig + h
        fp = f(zf.reshape(z.shape))
        zf[i] = orig - h
        fm = f(zf.reshape(z.shape))
        zf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad
