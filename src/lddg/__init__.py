"""Rank-regularized variational domain generalization, desk scale.

The package trains a small variational encoder-classifier on several source
domains while penalizing the (C+1)-th singular value of each latent batch,
and ships numerical verifiers for the two generalization bounds that
motivate the construction.  Everything runs on numpy alone; the SVD at the
heart of the rank penalty is LAPACK's.
"""

from .data import (
    DomainDataset,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    sample_batches,
    save_dataset,
)
from .experiments import (
    EvalReport,
    RunResult,
    ablate_components,
    evaluate,
    sweep_rank,
    train,
)
from .linalg import SvdResult, finite_diff_grad, svd
from .losses import cross_entropy_softmax
from .model import (
    ForwardTrace,
    ModelParams,
    TrainConfig,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    total_loss,
)
from .regularizers import (
    GaussianPosterior,
    RankLossResult,
    kl_standard_normal,
    nuclear_norm,
    rank_loss,
    reparameterize,
)
from .theory import (
    BoundReport,
    TheoremTrial,
    make_mixture_kl_trial,
    make_risk_bound_trial,
    singular_spectrum,
    verify_mixture_kl_bound,
    verify_risk_bound,
)

__version__ = "0.1.0"
