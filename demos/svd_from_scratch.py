"""Tour of the SVD that powers the rank penalty.

``lddg.linalg.svd`` is LAPACK's thin SVD, its factors returned as they come
(a matched pair of singular vectors may flip sign together).  This demo
decomposes a random matrix, checks the factorization properties, and
cross-checks the singular values against an independent oracle: the
eigenvalues of the Gram matrix.
"""

import numpy as np

from lddg.linalg import svd


def main():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((9, 5)) * 2.0

    res = svd(z)
    print("matrix shape:", z.shape)
    print("singular values:", np.round(res.sigma, 6))

    recon_err = np.linalg.norm(res.u @ np.diag(res.sigma) @ res.v.T - z)
    print(f"reconstruction error |u diag(s) v^T - z| = {recon_err:.3e}")

    print(
        "u columns orthonormal:",
        np.allclose(res.u.T @ res.u, np.eye(5), atol=1e-10),
    )
    print(
        "v columns orthonormal:",
        np.allclose(res.v.T @ res.v, np.eye(5), atol=1e-10),
    )

    # Independent check: sigma^2 are the eigenvalues of z^T z.
    gram_eigs = np.linalg.eigvalsh(z.T @ z)[::-1]
    gap = np.max(np.abs(res.sigma - np.sqrt(np.clip(gram_eigs, 0, None))))
    print(f"worst gap vs Gram-eigenvalue oracle: {gap:.3e}")

    # Rank-deficient input: trailing singular values collapse to ~0 and the
    # left factor still comes back orthonormal.
    low = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
    res_low = svd(low)
    print("\nrank-2 matrix singular values:", np.round(res_low.sigma, 8))
    print(
        "u orthonormal on the rank-deficient case:",
        np.allclose(res_low.u.T @ res_low.u, np.eye(6), atol=1e-10),
    )


if __name__ == "__main__":
    main()
