"""Numerical verification of the two generalization guarantees.

The first bound says the KL of any convex combination of source posteriors
to the prior is at most the weighted sum of per-source KLs.  The second
bounds the expected target-domain classification loss by M * epsilon plus
a log C constant.  Both are checked on randomized trials with honest,
independent numerics (quadrature for the first, Monte Carlo for the
second).
"""

import numpy as np

from lddg.regularizers import GaussianPosterior
from lddg.theory import (
    TheoremTrial,
    make_mixture_kl_trial,
    make_risk_bound_trial,
    verify_mixture_kl_bound,
    verify_risk_bound,
)


def main():
    print("mixture KL bound: KL(q_beta || p) <= sum_j beta_j KL(q_j || p)")
    print(f"{'trial':>5} {'lhs':>10} {'rhs':>10} {'slack':>10}  ok")
    for i in range(8):
        trial = make_mixture_kl_trial(seed=1, index=i)
        rep = verify_mixture_kl_bound(trial)
        print(
            f"{i:5d} {rep.lhs:10.5f} {rep.rhs:10.5f} "
            f"{rep.rhs - rep.lhs:10.5f}  {rep.satisfied}"
        )

    # Degenerate sanity case: every source posterior IS the prior, so both
    # sides collapse to zero.
    prior = GaussianPosterior(mu=np.zeros((1, 1)), log_var=np.zeros((1, 1)))
    trial = TheoremTrial(betas=np.array([0.5, 0.3, 0.2]), norm_bound=1.0,
                         num_classes=2, label=0, source_posteriors=[prior] * 3)
    rep = verify_mixture_kl_bound(trial)
    print(f"all-prior case: lhs = {rep.lhs:.2e}, rhs = {rep.rhs:.2e}")

    print("\ncombined risk bound: E[target CE] <= M * epsilon + log C")
    print(f"{'trial':>5} {'C':>2} {'lhs':>9} {'rhs':>9}  ok")
    for i in range(8):
        c = 2 if i % 2 == 0 else 7
        trial = make_risk_bound_trial(seed=2, num_classes=c, index=i)
        rep = verify_risk_bound(trial, samples=4000, seed=2, index=i)
        print(f"{i:5d} {c:2d} {rep.lhs:9.4f} {rep.rhs:9.4f}  {rep.satisfied}")

    print(
        "\nthe log C additive constant is the loss of a uniform scorer: "
        f"log 7 = {np.log(7.0):.4f}"
    )


if __name__ == "__main__":
    main()
