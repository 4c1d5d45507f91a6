"""Gaussian-process prior on the transfer function and inverse-gamma noise prior.

The transfer function mu: [0,1] -> R carries a centered GP prior with
rescaled squared-exponential covariance

    K(x, x') = variance * exp(-A^2 (x - x')^2),

where the rescale A is a fixed float on the config, and the noise scale
sigma carries an inverse-gamma prior.  Pushing a (mu, sigma) draw through
the location-mixture map yields one draw from the induced prior on
densities.

Paths are sampled on a uniform knot grid via Cholesky factorization.  SE
kernels are badly conditioned for large knot counts, so the factorization
adds a diagonal jitter and escalates it (doubling, at most three times)
before failing loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky

from .grid_density import GridDensity, GridSpec
from .transfer_map import TransferFunction, mixture_density

MIN_PATH_KNOTS = 16
MAX_PATH_KNOTS = 1024
_MAX_JITTER_DOUBLINGS = 3


class ConditioningError(ArithmeticError):
    """Covariance factorization failed even after jitter escalation."""


@dataclass(frozen=True)
class GPPriorConfig:
    """Prior hyperparameters for (mu, sigma).

    ``rescale`` is the kernel rescale A, fixed for every draw and chain;
    ``sigma_prior`` holds the inverse-gamma (shape, rate) pair; the jitter
    must stay negligible relative to the marginal variance.
    """

    variance: float = 1.0
    rescale: float = 20.0
    sigma_prior: tuple = (3.0, 1.0)
    jitter: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance}")
        if not (math.isfinite(self.rescale) and self.rescale > 0):
            raise ValueError(f"rescale must be finite and positive, got {self.rescale}")
        a, b = self.sigma_prior
        if not (a > 0 and b > 0):
            raise ValueError(f"sigma_prior must be positive, got {self.sigma_prior}")
        if not (0 < self.jitter <= 1e-6 * self.variance):
            raise ValueError(
                f"jitter must lie in (0, 1e-6 * variance], got {self.jitter}"
            )


def se_kernel(x: np.ndarray, y: np.ndarray, variance: float, a: float) -> np.ndarray:
    """Rescaled squared-exponential covariance matrix."""
    d = np.subtract.outer(np.asarray(x, float), np.asarray(y, float))
    return variance * np.exp(-(a * d) ** 2)


def _chol_with_escalation(k: np.ndarray, jitter: float) -> np.ndarray:
    """Lower Cholesky factor of k + jitter*I, doubling jitter on failure."""
    j = jitter
    for _ in range(_MAX_JITTER_DOUBLINGS + 1):
        try:
            return cholesky(k + j * np.eye(k.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            j *= 2.0
    raise ConditioningError(
        f"Cholesky failed after {_MAX_JITTER_DOUBLINGS} jitter doublings "
        f"(final jitter {j / 2:.3e})"
    )


def sample_sigma(cfg: GPPriorConfig, rng: np.random.Generator) -> float:
    """Draw the noise scale from its inverse-gamma prior."""
    a, b = cfg.sigma_prior
    return float(1.0 / rng.gamma(a, 1.0 / b))


def sample_path(
    cfg: GPPriorConfig, n_knots: int, rng: np.random.Generator
) -> TransferFunction:
    """Draw one GP path on ``n_knots`` uniform knots in [0,1]."""
    if not (MIN_PATH_KNOTS <= n_knots <= MAX_PATH_KNOTS):
        raise ValueError(
            f"n_knots must lie in [{MIN_PATH_KNOTS}, {MAX_PATH_KNOTS}], got {n_knots}"
        )
    knots = np.linspace(0.0, 1.0, n_knots)
    k = se_kernel(knots, knots, cfg.variance, cfg.rescale)
    chol = _chol_with_escalation(k, cfg.jitter)
    return TransferFunction(knots, chol @ rng.standard_normal(n_knots))


def sample_path_conditional(
    cfg: GPPriorConfig,
    n_knots: int,
    anchor_idx: np.ndarray,
    anchor_values: np.ndarray,
    rng: np.random.Generator,
) -> TransferFunction:
    """Draw a GP path conditioned to pass through anchor knots exactly.

    Used by the support probe: conditioning the prior through a handful of
    knots of a target transfer function demonstrates constructively that
    paths near the target carry positive prior mass.
    """
    if not (MIN_PATH_KNOTS <= n_knots <= MAX_PATH_KNOTS):
        raise ValueError(
            f"n_knots must lie in [{MIN_PATH_KNOTS}, {MAX_PATH_KNOTS}], got {n_knots}"
        )
    anchor_idx = np.asarray(anchor_idx, dtype=int)
    anchor_values = np.asarray(anchor_values, dtype=float)
    if anchor_idx.size == 0 or anchor_idx.size != anchor_values.size:
        raise ValueError("anchor indices and values must be non-empty and matched")
    knots = np.linspace(0.0, 1.0, n_knots)
    free = np.setdiff1d(np.arange(n_knots), anchor_idx)
    a = cfg.rescale

    k_aa = se_kernel(knots[anchor_idx], knots[anchor_idx], cfg.variance, a)
    chol_aa = _chol_with_escalation(k_aa, cfg.jitter)
    values = np.empty(n_knots)
    values[anchor_idx] = anchor_values
    if free.size:
        k_fa = se_kernel(knots[free], knots[anchor_idx], cfg.variance, a)
        k_ff = se_kernel(knots[free], knots[free], cfg.variance, a)
        solve_a = cho_solve((chol_aa, True), anchor_values)
        mean_f = k_fa @ solve_a
        cov_f = k_ff - k_fa @ cho_solve((chol_aa, True), k_fa.T)
        chol_f = _chol_with_escalation(cov_f, cfg.jitter)
        values[free] = mean_f + chol_f @ rng.standard_normal(free.size)
    return TransferFunction(knots, values)


def prior_draw_density(
    cfg: GPPriorConfig,
    spec: GridSpec,
    rng: np.random.Generator,
    *,
    n_knots: int = 64,
) -> GridDensity:
    """One draw from the induced prior on densities.

    Composes a GP path and a noise-scale draw, then pushes the pair through
    the location-mixture map on ``spec``.
    """
    mu = sample_path(cfg, n_knots, rng)
    sigma = sample_sigma(cfg, rng)
    return mixture_density(mu, sigma, spec)
