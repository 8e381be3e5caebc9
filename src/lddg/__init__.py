"""Rank-regularized variational domain generalization, desk scale.

The package trains a small variational encoder-classifier on several source
domains while penalizing the (C+1)-th singular value of each latent batch,
and ships numerical verifiers for the two generalization bounds that
motivate the construction.  Everything runs on numpy alone; the SVD at the
heart of the rank penalty is LAPACK's.
"""

from . import data, experiments, linalg, losses, model, regularizers, theory

__version__ = "0.1.0"
