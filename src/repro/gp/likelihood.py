"""Log-marginal-likelihood computation and hyperparameter fitting.

The paper's experimental protocol states that "all hyperparameters for
GP-UCB are tuned by maximizing the log-marginal-likelihood as in
scikit-learn" (Section 5.2).  scikit-learn is not a dependency here, so
this module reimplements that procedure: analytic-gradient L-BFGS over
the kernel's log hyperparameters, with random restarts.

``scipy.linalg`` and ``scipy.optimize`` are imported inside the
functions that call them: kernel fitting is an experiment-harness step,
and a process that only serves (``repro serve``) never loads either.

Two entry points:

* :func:`fit_kernel` — one feature matrix ``X`` and one target vector
  ``y`` (a single user's model-quality curve).
* :func:`fit_kernel_pooled` — shared kernel across several target
  vectors on the same ``X`` (all training users at once), maximising
  the *sum* of per-user log marginal likelihoods.  This is how the
  experiment harness turns the training half of a quality matrix into a
  prior covariance for the test users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gp.kernels import Kernel
from repro.utils.rng import RandomState, SeedLike
from repro.utils.validation import check_positive

_LOG_2PI = math.log(2.0 * math.pi)


def log_marginal_likelihood(
    gram: np.ndarray, y: np.ndarray, noise: float, *, jitter: float = 1e-10
) -> float:
    """Log p(y | K, σ) for a zero-mean GP with Gram matrix ``gram``."""
    from scipy.linalg import solve_triangular

    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if gram.shape != (n, n):
        raise ValueError(
            f"gram must have shape ({n}, {n}), got {gram.shape}"
        )
    noise = check_positive(noise, "noise")
    A = gram + (noise**2 + jitter) * np.eye(n)
    L = np.linalg.cholesky(A)
    z = solve_triangular(L, y, lower=True)
    return float(-0.5 * (z @ z) - np.sum(np.log(np.diag(L))) - 0.5 * n * _LOG_2PI)


@dataclass
class FitResult:
    """Outcome of a kernel fit."""

    kernel: Kernel
    noise: float
    log_marginal_likelihood: float
    n_restarts_used: int


def _lml_and_grad(
    kernel: Kernel,
    X: np.ndarray,
    targets: Sequence[np.ndarray],
    log_noise: float,
    *,
    jitter: float = 1e-10,
) -> Tuple[float, np.ndarray]:
    """Summed LML over targets, with gradient wrt (kernel theta, log σ).

    Uses the standard identity
    ``∂ LML / ∂θ_j = ½ tr((ααᵀ − A⁻¹) ∂A/∂θ_j)`` with ``α = A⁻¹ y``.
    """
    from scipy.linalg import cho_factor, cho_solve

    n = X.shape[0]
    noise = math.exp(log_noise)
    K, K_grad = kernel.eval_with_gradient(X)
    A = K + (noise**2 + jitter) * np.eye(n)
    try:
        L, lower = cho_factor(A, lower=True)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return -np.inf, np.zeros(K_grad.shape[2] + 1)

    A_inv = cho_solve((L, lower), np.eye(n))
    log_det_half = float(np.sum(np.log(np.diag(L))))

    total_lml = 0.0
    total_grad = np.zeros(K_grad.shape[2] + 1)
    # dA/d(log σ) = 2σ² I.
    dA_dlog_noise = 2.0 * noise**2 * np.eye(n)
    for y in targets:
        alpha = A_inv @ y
        total_lml += float(
            -0.5 * (y @ alpha) - log_det_half - 0.5 * n * _LOG_2PI
        )
        inner = np.outer(alpha, alpha) - A_inv
        for j in range(K_grad.shape[2]):
            total_grad[j] += 0.5 * float(np.sum(inner * K_grad[:, :, j]))
        total_grad[-1] += 0.5 * float(np.sum(inner * dA_dlog_noise))
    return total_lml, total_grad


def fit_kernel_pooled(
    kernel: Kernel,
    X: np.ndarray,
    targets: Sequence[np.ndarray],
    *,
    noise: float = 0.1,
    optimize_noise: bool = True,
    n_restarts: int = 3,
    noise_bounds: Tuple[float, float] = (1e-4, 1e1),
    seed: SeedLike = None,
    center_targets: bool = True,
) -> FitResult:
    """Fit a shared kernel to several target vectors on the same ``X``.

    Parameters
    ----------
    kernel:
        Template kernel; a tuned clone is returned, the input is left
        untouched.
    X:
        ``(n_points, n_features)`` feature matrix (model feature
        vectors in the paper's protocol).
    targets:
        One or more ``(n_points,)`` target vectors (per-user quality
        curves).  The summed log marginal likelihood is maximised.
    noise / optimize_noise / noise_bounds:
        Initial observation-noise σ, whether to tune it, and its
        bounds.
    n_restarts:
        Number of random restarts *in addition to* the start at the
        template's current hyperparameters.
    center_targets:
        Subtract each target's mean first (the GP is zero-mean).
    """
    from scipy.optimize import minimize

    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    rng = RandomState(seed)
    noise = check_positive(noise, "noise")

    prepared: List[np.ndarray] = []
    for y in targets:
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"target length {y.shape[0]} != n_points {X.shape[0]}"
            )
        prepared.append(y - y.mean() if center_targets else y)
    if not prepared:
        raise ValueError("at least one target vector is required")

    kernel_bounds = kernel.bounds
    log_noise_bounds = (
        math.log(noise_bounds[0]),
        math.log(noise_bounds[1]),
    )

    def objective(packed: np.ndarray) -> Tuple[float, np.ndarray]:
        trial = kernel.clone_with_theta(packed[:-1])
        log_noise = packed[-1] if optimize_noise else math.log(noise)
        lml, grad = _lml_and_grad(trial, X, prepared, log_noise)
        if not optimize_noise:
            grad = grad.copy()
            grad[-1] = 0.0
        return -lml, -grad

    bounds_list = [tuple(row) for row in kernel_bounds] + [log_noise_bounds]

    base_start = np.concatenate([kernel.theta, [math.log(noise)]])
    starts = [base_start]

    # Median-heuristic starts: length-scale-like parameters at a few
    # multiples of the median pairwise distance, amplitude-like
    # parameters at the target variance, noise at a tenth of the
    # target standard deviation.  These land in "structured" basins of
    # attraction that plain template starts can miss (oversmoothed
    # kernels flow into the degenerate all-noise optimum).
    for scale in (0.1, 0.5, 2.0):
        heuristic = _heuristic_start(
            kernel, X, prepared, bounds_list, length_scale_factor=scale
        )
        if heuristic is not None:
            if not optimize_noise:
                heuristic[-1] = math.log(noise)
            starts.append(heuristic)
    for _ in range(max(0, n_restarts)):
        # Restarts perturb the template's (log) hyperparameters rather
        # than sampling the full bound box: default bounds span ~23
        # nats, and uniform draws there land in degenerate corners
        # (all-noise explanations) far more often than near useful
        # optima.
        start = base_start + rng.normal(0.0, 1.5, base_start.shape)
        start = np.clip(
            start,
            [low for (low, _) in bounds_list],
            [high for (_, high) in bounds_list],
        )
        if not optimize_noise:
            start[-1] = math.log(noise)
        starts.append(start)

    best_packed: Optional[np.ndarray] = None
    best_value = np.inf
    used = 0
    for start in starts:
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds_list,
        )
        used += 1
        if result.fun < best_value:
            best_value = float(result.fun)
            best_packed = np.asarray(result.x)

    assert best_packed is not None  # at least one start always runs
    fitted = kernel.clone_with_theta(best_packed[:-1])
    fitted_noise = (
        float(math.exp(best_packed[-1])) if optimize_noise else noise
    )
    return FitResult(
        kernel=fitted,
        noise=fitted_noise,
        log_marginal_likelihood=-best_value,
        n_restarts_used=used,
    )


def _heuristic_start(
    kernel: Kernel,
    X: np.ndarray,
    targets: Sequence[np.ndarray],
    bounds_list: Sequence[Tuple[float, float]],
    *,
    length_scale_factor: float = 1.0,
) -> Optional[np.ndarray]:
    """Median-distance / target-variance start vector, clipped to bounds.

    Builds the start by cloning the kernel and overwriting every
    parameter named ``length_scale`` with the median pairwise distance
    and every ``constant_value`` with the pooled target variance.
    Returns ``None`` when the heuristic is undefined (e.g. a single
    point).
    """
    from repro.gp.kernels import squared_distances

    d2 = squared_distances(X)
    off_diag = d2[~np.eye(d2.shape[0], dtype=bool)]
    positive = off_diag[off_diag > 1e-20]
    if positive.size == 0:
        return None
    median_distance = float(np.sqrt(np.median(positive)))
    median_distance *= float(length_scale_factor)
    pooled = np.concatenate([np.asarray(t, dtype=float) for t in targets])
    variance = max(float(np.var(pooled)), 1e-8)

    import copy

    clone = copy.deepcopy(kernel)
    _assign_heuristic(clone, median_distance, variance)
    start = np.concatenate(
        [clone.theta, [math.log(max(math.sqrt(variance) * 0.1, 1e-6))]]
    )
    lows = np.array([low for (low, _) in bounds_list])
    highs = np.array([high for (_, high) in bounds_list])
    return np.clip(start, lows, highs)


def _assign_heuristic(
    kernel: Kernel, median_distance: float, variance: float
) -> None:
    """Recursively install heuristic values into a kernel tree."""
    for child_name in ("left", "right"):
        child = getattr(kernel, child_name, None)
        if child is not None:
            _assign_heuristic(child, median_distance, variance)
    if hasattr(kernel, "length_scale"):
        kernel.length_scale = median_distance
    if hasattr(kernel, "constant_value"):
        kernel.constant_value = variance
    if hasattr(kernel, "noise_level"):
        kernel.noise_level = max(variance * 0.01, 1e-8)


def fit_kernel(
    kernel: Kernel,
    X: np.ndarray,
    y: np.ndarray,
    **kwargs,
) -> FitResult:
    """Single-target convenience wrapper around :func:`fit_kernel_pooled`."""
    return fit_kernel_pooled(kernel, X, [np.asarray(y, dtype=float)], **kwargs)
