"""Gaussian-process prior on the transfer function and inverse-gamma noise prior.

The transfer function mu: [0,1] -> R carries a centered GP prior with
rescaled squared-exponential covariance

    K(x, x') = VARIANCE * exp(-RESCALE^2 (x - x')^2),

and the noise scale sigma an inverse-gamma prior with (shape, rate)
``SIGMA_PRIOR``.  Pushing a (mu, sigma) draw through the location-mixture
map yields one draw from the induced prior on densities.

Paths are sampled on the transfer's own knots, ``transfer_map.knot_grid``,
via Cholesky factorization (:func:`knot_cholesky`).  SE kernels are badly
conditioned for large knot counts, so the factorization adds a diagonal
``JITTER``, negligible against the marginal variance, and escalates it
(doubling, at most three times) before failing loudly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve, cholesky

from .transfer_map import knot_grid

MIN_PATH_KNOTS = 16
MAX_PATH_KNOTS = 1024
VARIANCE = 1.0
RESCALE = 20.0
SIGMA_PRIOR = (3.0, 1.0)
JITTER = 1e-8
_MAX_JITTER_DOUBLINGS = 3


class ConditioningError(ArithmeticError):
    """Covariance factorization failed even after jitter escalation."""


def se_kernel(x: np.ndarray, y: np.ndarray, variance: float, a: float) -> np.ndarray:
    """Rescaled squared-exponential covariance matrix."""
    d = np.subtract.outer(np.asarray(x, float), np.asarray(y, float))
    return variance * np.exp(-(a * d) ** 2)


def _chol_with_escalation(k: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of k + JITTER*I, doubling the jitter on failure."""
    j = JITTER
    for _ in range(_MAX_JITTER_DOUBLINGS + 1):
        try:
            return cholesky(k + j * np.eye(k.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            j *= 2.0
    raise ConditioningError(
        f"Cholesky failed after {_MAX_JITTER_DOUBLINGS} jitter doublings "
        f"(final jitter {j / 2:.3e})"
    )


def knot_cholesky(n_knots: int, variance: float, a: float) -> np.ndarray:
    """Jitter-escalated Cholesky factor of the SE covariance on ``knot_grid(n_knots)``."""
    knots = knot_grid(n_knots)
    return _chol_with_escalation(se_kernel(knots, knots, variance, a))


def sample_path_conditional(
    rescale: float,
    n_knots: int,
    anchor_idx: np.ndarray,
    anchor_values: np.ndarray,
    rng: np.random.Generator,
    n_draws: int,
) -> tuple:
    """Conditional mean and ``n_draws`` GP paths pinned through anchor knots.

    Returns ``(mean, draws)``, the knot values of the conditional mean
    (shape ``(n_knots,)``) and of the draws (shape ``(n_draws, n_knots)``),
    all equal to the anchor values at the anchors.  The conditional is
    factorized once; the draws take ``rng.standard_normal((n_draws,
    n_free))``, row by row the normals of ``n_draws`` single draws.

    Used by the support probe: conditioning the prior through a handful of
    knots of a target transfer function demonstrates constructively that
    paths near the target carry positive prior mass.
    """
    if not (math.isfinite(rescale) and rescale > 0):
        raise ValueError(f"rescale must be finite and positive, got {rescale}")
    if not (MIN_PATH_KNOTS <= n_knots <= MAX_PATH_KNOTS):
        raise ValueError(
            f"n_knots must lie in [{MIN_PATH_KNOTS}, {MAX_PATH_KNOTS}], got {n_knots}"
        )
    anchor_idx = np.asarray(anchor_idx, dtype=int)
    anchor_values = np.asarray(anchor_values, dtype=float)
    if anchor_idx.size == 0 or anchor_idx.size != anchor_values.size:
        raise ValueError("anchor indices and values must be non-empty and matched")
    knots = knot_grid(n_knots)
    free = np.setdiff1d(np.arange(n_knots), anchor_idx)

    k_aa = se_kernel(knots[anchor_idx], knots[anchor_idx], VARIANCE, rescale)
    chol_aa = _chol_with_escalation(k_aa)
    mean = np.empty(n_knots)
    mean[anchor_idx] = anchor_values
    draws = np.empty((n_draws, n_knots))
    draws[:, anchor_idx] = anchor_values
    if free.size:
        k_fa = se_kernel(knots[free], knots[anchor_idx], VARIANCE, rescale)
        k_ff = se_kernel(knots[free], knots[free], VARIANCE, rescale)
        mean[free] = k_fa @ cho_solve((chol_aa, True), anchor_values)
        cov_f = k_ff - k_fa @ cho_solve((chol_aa, True), k_fa.T)
        chol_f = _chol_with_escalation(cov_f)
        z = rng.standard_normal((n_draws, free.size))
        draws[:, free] = mean[free] + z @ chol_f.T
    return mean, draws
