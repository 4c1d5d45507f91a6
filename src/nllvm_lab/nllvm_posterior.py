"""Blocked Gibbs sampler for the latent-transfer noise model.

The model: each observation satisfies y_i = mu(eta_i) + eps_i with
eta_i ~ U(0,1) latent, mu a GP-distributed transfer function, and
eps_i ~ N(0, sigma^2).  Conditioning on the latents restores conjugacy for
mu (a GP regression update), the latents have tractable one-dimensional
full conditionals, and 1/sigma is drawn from its log-concave full
conditional by rejection from a gamma proposal.  Every step draws exactly
from its full conditional, with one exception: a datum whose segment masses
all underflow to 0.0 (about 38.5 sigma or more from range(mu)) gets a
uniform latent and a logged warning (ROADMAP item 14).  No step is tuned.

One Gibbs cycle is update_latents -> update_transfer -> update_sigma; each
step takes the blocks it conditions on and returns the block it draws.  The
transfer function is represented by its values on a fixed uniform knot grid
in [0,1] and interpolated linearly in between; the GP rescale A stays fixed
for the whole run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special
from scipy.linalg import cho_solve, solve_triangular

from ._runtime import parallel_map, seeded_rng
from .gp_prior import RESCALE, SIGMA_PRIOR, VARIANCE, _chol_with_escalation, knot_cholesky
from .grid_density import HELLINGER_SQ, GridDensity, GridSpec, divergence
from .reports import SlopeReport, sample_sizes, slope_fit
from .transfer_map import TransferFunction, _flat_segments, knot_grid, mixture_density
from .transfer_map import segment_masses

logger = logging.getLogger(__name__)

# contraction_experiment: the smoothness beta and the q of the target rate,
# and the knot count of its fits
_RATE_BETA = 2.0
_RATE_Q = 0.0
_CONTRACT_KNOTS = 32


def _check_states(sigma, log_post, eta=None) -> None:
    """Raise unless each sigma > 0, each log_post is finite and each latent given is in [0, 1]."""
    if not np.all(sigma > 0):
        raise ValueError(f"sigma must be positive, got {np.min(sigma)}")
    if eta is not None and not (np.min(eta) >= 0.0 and np.max(eta) <= 1.0):
        raise ValueError("all latents must lie in [0, 1]")
    bad = np.extract(~np.isfinite(log_post), log_post)
    if bad.size:
        raise ValueError(f"log_post must be finite, got {bad[0]}")


@dataclass(eq=False)
class PosteriorSamples:
    """Kept post-burn-in states of one chain, one row per state; no latents."""

    mu_values: np.ndarray  # (S, K): the transfer on the uniform knot grid of [0, 1]
    sigma: np.ndarray  # (S,)
    log_post: np.ndarray  # (S,): the unnormalized log posterior

    def __post_init__(self) -> None:
        arrays = [np.asarray(a, float) for a in (self.mu_values, self.sigma, self.log_post)]
        self.mu_values, self.sigma, self.log_post = arrays
        if not self.sigma.size:
            raise ValueError("no kept states")
        if [a.ndim for a in arrays] != [2, 1, 1] or len({len(a) for a in arrays}) > 1:
            raise ValueError(f"need (S, K), (S,), (S,), got {[a.shape for a in arrays]}")
        _check_states(self.sigma, self.log_post)

    def covering_window(self) -> tuple:
        """(min mu - 8 sigma_max, max mu + 8 sigma_max): holds every kept mixture's mass."""
        pad = 8.0 * float(self.sigma.max())
        return float(self.mu_values.min()) - pad, float(self.mu_values.max()) + pad


def update_latents(
    mu: TransferFunction, sigma: float, data: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw the latents from their full conditionals on [0,1] given mu and sigma.

    The conditional density of eta_i is proportional to
    phi_sigma(y_i - mu(eta_i)).  With mu linear between knots it is a
    mixture over knot segments with the masses of :func:`segment_masses`,
    and within a segment a normal truncated to [v_k, v_{k+1}] in mu-space,
    mapped back to x linearly.  One uniform per datum picks the segment by
    inverse CDF, counting the cumulative masses below it, and, rescaled,
    inverts the truncated normal on the side of the segment where the
    normal CDF is small; a flat segment is uniform in x.  The masses are
    summed over segments in place, so the step holds one K x n table.  If
    every segment mass underflows to zero the draw falls back to a uniform
    with a logged warning.
    """
    cum = segment_masses(mu, sigma, data)
    for k in range(1, cum.shape[0]):
        cum[k] += cum[k - 1]
    total = cum[-1]
    dead = total <= 0.0

    u = rng.random(data.size)
    r = u * total
    idx = np.arange(data.size)
    seg = np.minimum(np.count_nonzero(cum < r, axis=0), cum.shape[0] - 1)
    prev = np.where(seg > 0, cum[np.maximum(seg - 1, 0), idx], 0.0)
    # prev <= r <= cum[seg] puts w in [0, 1]; the floor keeps 0 / 0 finite
    w = (r - prev) / np.maximum(cum[seg, idx] - prev, 1e-300)

    # standardized residuals at the chosen segment's ends; where both sit
    # above zero, work with -z so that the CDF values stay small
    za = (data - mu.values[seg]) / sigma
    zb = (data - mu.values[seg + 1]) / sigma
    side = np.where(za + zb > 0.0, -1.0, 1.0)
    pa, pb = special.ndtr(side * za), special.ndtr(side * zb)
    z = side * special.ndtri(pa + w * (pb - pa))
    flat = _flat_segments(mu, sigma)[seg]
    frac = np.where(flat, w, (za - z) / np.where(flat, 1.0, za - zb))
    eta = mu.knots[seg] + np.clip(frac, 0.0, 1.0) * np.diff(mu.knots)[seg]

    if np.any(dead):
        logger.warning(
            "latent conditional underflowed for %d/%d observations; "
            "falling back to uniform draws",
            int(dead.sum()),
            data.size,
        )
        eta = np.where(dead, u, eta)

    return eta


def _tridiagonal_gram(eta: np.ndarray, data: np.ndarray, n_knots: int) -> tuple:
    """W^T W and W^T y for the linear-interpolation design W of the latents.

    The knots are the transfer's, ``knot_grid(n_knots)``: j / (n_knots - 1) for knot j.
    Row i of W holds 1 - t_i and t_i at the knots left and right of eta_i,
    so W^T W is tridiagonal; both are summed per knot with bincount.
    """
    pos = eta * (n_knots - 1)
    left = np.minimum(pos.astype(int), n_knots - 2)
    t = pos - left
    s = 1.0 - t
    diag = np.bincount(left, s * s, n_knots) + np.bincount(left + 1, t * t, n_knots)
    off = np.bincount(left, s * t, n_knots - 1)
    wty = np.bincount(left, s * data, n_knots) + np.bincount(left + 1, t * data, n_knots)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), wty


def update_transfer(
    eta: np.ndarray,
    sigma: float,
    data: np.ndarray,
    rng: np.random.Generator,
    k_inv: np.ndarray,
) -> np.ndarray:
    """Draw the knot values of mu from their GP-regression conditional given eta and sigma.

    Given the latents, the model is a Gaussian regression of y on mu at the
    interpolated latent positions, so the conditional of the knot values is
    Gaussian with precision K^-1 + W^T W / sigma^2 and mean
    prec^-1 W^T y / sigma^2.  ``k_inv`` is K^-1 on the knots, fixed for a
    run; with no data the draw comes from the prior.
    """
    k = k_inv.shape[0]
    gram, wty = _tridiagonal_gram(eta, data, k)
    prec_chol = _chol_with_escalation(k_inv + gram / sigma**2)
    mean = cho_solve((prec_chol, True), wty / sigma**2)
    z = rng.standard_normal(k)
    return mean + solve_triangular(prec_chol.T, z, lower=False)


def _sigma_logtarget(sigma: float, ss: float, n: int) -> float:
    a, b = SIGMA_PRIOR
    return (
        -(a + 1.0) * math.log(sigma)
        - b / sigma
        - n * math.log(sigma)
        - ss / (2.0 * sigma**2)
    )


def update_sigma(resid: np.ndarray, rng: np.random.Generator) -> float:
    """Exact Gibbs draw of sigma from its full conditional, given the residuals y - mu(eta).

    With the IG(a, b) prior and residual sum of squares S over n data,
    t = 1/sigma has log-density k log t - b t - S t^2 / 2, k = a + n - 1,
    with mode m = 2k / (b + sqrt(b^2 + 4 S k)).  A Gamma(k + 1, scale m/k)
    proposal is accepted with probability exp(-S (t - m)^2 / 2): because
    k/m = b + S m, that factor is the target-to-proposal ratio up to a
    constant, and its maximum is 1.  Each proposal takes one gamma and one
    uniform from ``rng``.
    """
    a, b = SIGMA_PRIOR
    ss = float(resid @ resid)
    k = a + resid.size - 1.0
    mode = 2.0 * k / (b + math.sqrt(b * b + 4.0 * ss * k))
    while True:
        t = rng.gamma(k + 1.0, mode / k)
        if rng.random() < math.exp(-0.5 * ss * (t - mode) ** 2):
            return 1.0 / t


def fit_mcmc(
    data, *, iters: int, burn_in: int, thin: int = 1, seed: int = 0, n_knots: int = 64
) -> PosteriorSamples:
    """Run the blocked Gibbs chain and return thinned post-burn-in states.

    The chain runs ``iters`` cycles and keeps every ``thin``-th state after
    the first ``burn_in``.  Every step draws from its exact full
    conditional, except the uniform fallback of :func:`update_latents` for
    a datum whose segment masses all underflow (ROADMAP item 14), so the
    burn-in serves convergence from the start state only; nothing is tuned.
    The chain sorts the data once and runs on the sorted copy, so any order
    of the same data gives the same states.  The latents are data
    augmentation: a kept state's are checked to lie in [0, 1], not kept.
    A failure in any cycle, the checks on a kept state included, aborts the
    chain with a ``RuntimeError``; data that are not a finite 1-D array of
    at least 10 points raise before the first draw.
    """
    if burn_in < 0 or iters <= burn_in:
        raise ValueError(f"need iters > burn_in >= 0, got ({iters}, {burn_in})")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise ValueError(f"data must be 1-D, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")
    if data.size < 10:
        raise ValueError(f"need at least 10 observations, got {data.size}")

    # the chain runs on the sorted data, where the knot-major normal CDFs of
    # segment_masses stay branch-predictable
    data = np.sort(data, kind="stable")

    rng = seeded_rng(seed, "mcmc")
    kernel_chol = knot_cholesky(n_knots, VARIANCE, RESCALE)
    k_inv = cho_solve((kernel_chol, True), np.eye(n_knots))

    kept = range(burn_in + 1, iters + 1, thin)
    mus = np.empty((len(kept), n_knots))
    sigmas, log_posts = np.empty(len(kept)), np.empty(len(kept))
    j = 0

    # empirical quantiles put the transfer near the truth-quantile map
    mu = TransferFunction(np.quantile(data, knot_grid(n_knots)))
    sigma = max(0.5 * float(np.std(data)), 1e-3)
    for it in range(1, iters + 1):
        try:
            eta = update_latents(mu, sigma, data, rng)
            mu = TransferFunction(update_transfer(eta, sigma, data, rng, k_inv))
            resid = data - mu(eta)
            sigma = update_sigma(resid, rng)
            if it in kept:
                v = solve_triangular(kernel_chol, mu.values, lower=True)
                ss = float(resid @ resid)
                log_post = float(-0.5 * (v @ v)) + _sigma_logtarget(sigma, ss, data.size)
                _check_states(sigma, log_post, eta)
                mus[j], sigmas[j], log_posts[j] = mu.values, sigma, log_post
                j += 1
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(
                f"chain aborted at iteration {it} "
                f"(kept {j} states, sigma={sigma:.4g}): {exc}"
            ) from exc

    return PosteriorSamples(mus, sigmas, log_posts)


def predictive_density(samples: PosteriorSamples, spec: GridSpec) -> GridDensity:
    """Posterior predictive density: the average of per-state mixtures.

    Each state's mixture is the exact closed form of
    :func:`mixture_density`, so the only error left is the Monte Carlo
    spread of the ensemble average.
    """
    acc = np.zeros(spec.n)
    for values, sigma in zip(samples.mu_values, samples.sigma):
        acc += mixture_density(TransferFunction(values), sigma, spec).values
    return GridDensity(spec.lo, spec.hi, acc / samples.sigma.size)


def theoretical_rate_exponent(beta: float, q: float) -> float:
    """Log-factor exponent t in the contraction target rate."""
    return beta * max(2.0, q) / (2.0 * beta + 1.0) + 1.0


def _target_slope(n_list: np.ndarray) -> float:
    beta, t = _RATE_BETA, theoretical_rate_exponent(_RATE_BETA, _RATE_Q)
    eps2 = n_list ** (-2.0 * beta / (2.0 * beta + 1.0)) * np.log(n_list) ** (2.0 * t)
    slope, _ = slope_fit(n_list, eps2)
    return slope


def contraction_experiment(
    f0: GridDensity,
    n_list: Sequence[int],
    reps: int,
    seed: int,
    *,
    mcmc_iters: int = 1500,
    burn_in: int = 500,
    thin: int = 5,
) -> SlopeReport:
    """Squared-Hellinger decay of the posterior predictive as n grows.

    For each of at least three n, draws ``reps`` datasets from f0, fits the
    sampler on 32 knots, and records the median squared Hellinger distance
    between the predictive and f0.  The fitted log-log slope is reported
    next to the numerical slope of the theoretical rate eps_n^2 (beta = 2,
    q = 0) over the same n values; the pass flag asserts only that the
    medians decrease.  A chain that aborts raises its ``RuntimeError``.
    """
    n_arr = np.asarray(sorted(sample_sizes(n_list, reps, 3)), dtype=int)
    if n_arr[-1] < 16 * n_arr[0]:
        raise ValueError(
            f"n_list must span a factor of 16, got {n_arr[0]} .. {n_arr[-1]}"
        )

    tasks = [(int(n), rep) for n in n_arr for rep in range(reps)]

    def one(task) -> float:
        n, rep = task
        rng = seeded_rng(seed, "contract", n, rep)
        data = f0.draw(rng, n)
        run_seed = int(rng.integers(0, 2**31 - 1))
        samples = fit_mcmc(
            data,
            iters=mcmc_iters,
            burn_in=burn_in,
            thin=thin,
            seed=run_seed,
            n_knots=_CONTRACT_KNOTS,
        )
        # pad the evaluation window so every kept state's mixture keeps its
        # kernel mass (diffuse early states can stray past the f0 window);
        # f0 extends by zero, so the Hellinger integral is unchanged
        lo, hi = samples.covering_window()
        lo, hi = min(f0.lo, lo), max(f0.hi, hi)
        n_grid = min(8192, int(round((hi - lo) / f0.spacing)) + 1)
        wide = GridSpec(lo, hi, n_grid)
        pred = predictive_density(samples, wide)
        f0_wide = GridDensity(lo, hi, f0.pdf_at(wide.points()))
        return divergence(HELLINGER_SQ, pred, f0_wide)

    h2 = np.asarray(parallel_map(one, tasks)).reshape(n_arr.size, reps)

    medians = np.median(h2, axis=1)
    slope, r2 = slope_fit(n_arr.astype(float), medians)
    decreasing = bool(np.all(np.diff(medians) < 0))
    t = theoretical_rate_exponent(_RATE_BETA, _RATE_Q)
    return SlopeReport(
        xs=[float(v) for v in n_arr],
        ys=[float(v) for v in medians],
        slope=slope,
        r2=r2,
        target=_target_slope(n_arr.astype(float)),
        passed=decreasing,
        note=f"log-factor exponent t={t:.3f}; slope target is informational",
    )
