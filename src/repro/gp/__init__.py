"""Gaussian-process substrate for the ease.ml reproduction.

The paper's scheduler (Algorithms 1 and 2) maintains, per tenant, a
Gaussian-process posterior over a *finite* set of arms (candidate
models).  This subpackage provides everything needed for that, built
from scratch on numpy/scipy:

* :mod:`repro.gp.kernels` — a kernel library (RBF, Matérn, dot-product,
  constant, white noise, sum/product algebra) with analytic gradients
  for hyperparameter optimisation.
* :mod:`repro.gp.regression` — :class:`FiniteArmGP`, the posterior over
  a finite arm set (Algorithm 1 lines 6–7 of the paper): O(tK)
  incremental Cholesky updates that store only the pivots, ``V`` and
  ``z`` in capacity-doubling buffers (O(tK) memory, no t×t factor),
  O(K) posterior accumulators, and a blocked ``update_batch`` that is
  bit-identical to looping ``update``.
* :mod:`repro.gp.likelihood` — log-marginal-likelihood computation and
  multi-restart L-BFGS hyperparameter fitting, mirroring the paper's
  protocol ("all hyperparameters for GP-UCB are tuned by maximizing the
  log-marginal-likelihood as in scikit-learn").
* :mod:`repro.gp.covariance` — construction of the prior covariance
  over arms from model feature vectors (Appendix A: a model's feature
  vector is its quality vector on the training users).
"""

from repro.gp.covariance import (
    covariance_from_features,
    empirical_model_covariance,
    nearest_positive_definite,
)
from repro.gp.kernels import (
    RBF,
    ConstantKernel,
    DotProduct,
    Kernel,
    Matern,
    Product,
    Sum,
    WhiteKernel,
)
from repro.gp.likelihood import (
    fit_kernel,
    fit_kernel_pooled,
    log_marginal_likelihood,
)
from repro.gp.regression import FiniteArmGP

__all__ = [
    "Kernel",
    "RBF",
    "Matern",
    "DotProduct",
    "ConstantKernel",
    "WhiteKernel",
    "Sum",
    "Product",
    "FiniteArmGP",
    "log_marginal_likelihood",
    "fit_kernel",
    "fit_kernel_pooled",
    "covariance_from_features",
    "empirical_model_covariance",
    "nearest_positive_definite",
]
