"""Blocked Gibbs sampler for the latent-transfer noise model.

The model: each observation satisfies y_i = mu(eta_i) + eps_i with
eta_i ~ U(0,1) latent, mu a GP-distributed transfer function, and
eps_i ~ N(0, sigma^2).  Conditioning on the latents restores conjugacy for
mu (a GP regression update), the latents have tractable one-dimensional
full conditionals, and sigma moves by random-walk Metropolis on log sigma.

One Gibbs cycle is update_latents -> update_transfer -> update_sigma.  The
transfer function is represented by its values on a fixed uniform knot grid
in [0,1] and interpolated linearly in between; the GP rescale A stays fixed
for the whole run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import special
from scipy.linalg import cho_solve, solve_triangular

from ._runtime import parallel_map, seeded_rng
from .gp_prior import RESCALE, SIGMA_PRIOR, VARIANCE, _chol_with_escalation, se_kernel
from .grid_density import HELLINGER_SQ, GridDensity, GridSpec, divergence
from .reports import SlopeReport, sample_sizes, slope_fit
from .transfer_map import FLAT_RISE, TransferFunction, mixture_density, segment_masses

logger = logging.getLogger(__name__)

_ADAPT_WINDOW = 50
_STEP_BOUNDS = (1e-3, 2.0)
# contraction_experiment: the smoothness beta and the q of the target rate,
# and the knot count of its fits
_RATE_BETA = 2.0
_RATE_Q = 0.0
_CONTRACT_KNOTS = 32


@dataclass(eq=False)
class NLLVMState:
    """One point of the (mu, sigma, eta) chain.

    ``log_post`` is the unnormalized log posterior that :func:`fit_mcmc`
    sets on every kept state; the update steps carry it over unchanged.
    """

    mu_values: np.ndarray
    sigma: float
    eta: np.ndarray
    log_post: float

    def __post_init__(self) -> None:
        self.mu_values = np.asarray(self.mu_values, dtype=float)
        self.eta = np.asarray(self.eta, dtype=float)
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.eta.size and not (
            np.min(self.eta) >= 0.0 and np.max(self.eta) <= 1.0
        ):
            raise ValueError("all latents must lie in [0, 1]")
        if not np.isfinite(self.log_post):
            raise ValueError(f"log_post must be finite, got {self.log_post}")

    def transfer(self) -> TransferFunction:
        knots = np.linspace(0.0, 1.0, self.mu_values.size)
        return TransferFunction(knots, self.mu_values)


@dataclass(eq=False)
class PosteriorSamples:
    """Kept post-burn-in states and the acceptance rate of each block."""

    states: list
    acceptance: dict

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("no kept states")
        for name, rate in self.acceptance.items():
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"acceptance rate for {name} out of [0,1]: {rate}")


def _residual_ss(state: NLLVMState, data: np.ndarray) -> float:
    knots = np.linspace(0.0, 1.0, state.mu_values.size)
    resid = data - np.interp(state.eta, knots, state.mu_values)
    return float(resid @ resid)


def update_latents(
    state: NLLVMState, data: np.ndarray, rng: np.random.Generator
) -> NLLVMState:
    """Resample every latent from its exact full conditional on [0,1].

    The conditional density of eta_i is proportional to
    phi_sigma(y_i - mu(eta_i)).  With mu linear between knots it is a
    mixture over knot segments with the masses of :func:`segment_masses`,
    and within a segment a normal truncated to [v_k, v_{k+1}] in mu-space,
    mapped back to x linearly.  One uniform per datum picks the segment by
    inverse CDF and, rescaled, inverts the truncated normal on the side of
    the segment where the normal CDF is small; a flat segment is uniform in
    x.  If every segment mass underflows to zero the draw falls back to a
    uniform with a logged warning.
    """
    data = np.asarray(data, dtype=float)
    mu = state.transfer()
    masses = segment_masses(mu, state.sigma, data)
    cum = np.cumsum(masses, axis=1)
    total = cum[:, -1]
    dead = total <= 0.0

    u = rng.random(data.size)
    r = u * total
    seg = np.minimum((cum < r[:, None]).sum(axis=1), masses.shape[1] - 1)
    prev = np.where(seg > 0, np.take_along_axis(cum, np.maximum(seg - 1, 0)[:, None], 1)[:, 0], 0.0)
    mass = masses[np.arange(data.size), seg]
    w = np.clip((r - prev) / np.maximum(mass, 1e-300), 0.0, 1.0)

    # standardized residuals at the chosen segment's ends; where both sit
    # above zero, work with -z so that the CDF values stay small
    za = (data - mu.values[seg]) / state.sigma
    zb = (data - mu.values[seg + 1]) / state.sigma
    side = np.where(za + zb > 0.0, -1.0, 1.0)
    pa, pb = special.ndtr(side * za), special.ndtr(side * zb)
    z = side * special.ndtri(pa + w * (pb - pa))
    flat = (np.abs(np.diff(mu.values)) / state.sigma < FLAT_RISE)[seg]
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

    return replace(state, eta=eta)


def _tridiagonal_gram(eta: np.ndarray, data: np.ndarray, n_knots: int) -> tuple:
    """W^T W and W^T y for the linear-interpolation design W of the latents.

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
    state: NLLVMState,
    data: np.ndarray,
    rng: np.random.Generator,
    k_inv: np.ndarray,
) -> NLLVMState:
    """Gibbs draw of the transfer values from the GP-regression conditional.

    Given the latents, the model is a Gaussian regression of y on mu at the
    interpolated latent positions, so the conditional of the knot values is
    Gaussian with precision K^-1 + W^T W / sigma^2 and mean
    prec^-1 W^T y / sigma^2.  ``k_inv`` is K^-1 on the knots, fixed for a
    run; with no data the draw comes from the prior.
    """
    data = np.asarray(data, dtype=float)
    k = state.mu_values.size
    gram, wty = _tridiagonal_gram(state.eta, data, k)
    prec_chol = _chol_with_escalation(k_inv + gram / state.sigma**2)
    mean = cho_solve((prec_chol, True), wty / state.sigma**2)
    z = rng.standard_normal(k)
    return replace(state, mu_values=mean + solve_triangular(prec_chol.T, z, lower=False))


def _sigma_logtarget(sigma: float, ss: float, n: int) -> float:
    a, b = SIGMA_PRIOR
    return (
        -(a + 1.0) * math.log(sigma)
        - b / sigma
        - n * math.log(sigma)
        - ss / (2.0 * sigma**2)
    )


def update_sigma(
    state: NLLVMState,
    data: np.ndarray,
    rng: np.random.Generator,
    *,
    step: float = 0.1,
) -> NLLVMState:
    """Random-walk Metropolis on log sigma.

    The target combines the inverse-gamma prior with the Gaussian residual
    likelihood; the log-scale proposal contributes the usual Jacobian term.
    A rejected proposal returns the state unchanged, so callers can detect
    acceptance by comparing sigma values.
    """
    data = np.asarray(data, dtype=float)
    ss = _residual_ss(state, data)
    n = data.size

    log_prop = math.log(state.sigma) + step * rng.standard_normal()
    prop = math.exp(log_prop)
    log_ratio = (
        _sigma_logtarget(prop, ss, n)
        - _sigma_logtarget(state.sigma, ss, n)
        + log_prop
        - math.log(state.sigma)
    )
    if math.log(1.0 - rng.random()) < log_ratio:
        return replace(state, sigma=prop)
    return state


def _initial_state(data: np.ndarray, n_knots: int) -> NLLVMState:
    n = data.size
    ranks = np.empty(n)
    ranks[np.argsort(data, kind="stable")] = np.arange(n)
    return NLLVMState(
        # empirical quantiles put the transfer near the truth-quantile map
        mu_values=np.quantile(data, np.linspace(0.0, 1.0, n_knots)),
        sigma=max(0.5 * float(np.std(data)), 1e-3),
        eta=(ranks + 0.5) / n,
        log_post=0.0,
    )


def fit_mcmc(
    data, *, iters: int, burn_in: int, thin: int = 1, seed: int = 0, n_knots: int = 64
) -> PosteriorSamples:
    """Run the blocked Gibbs chain and return thinned post-burn-in states.

    The chain runs ``iters`` cycles and keeps every ``thin``-th state after
    the first ``burn_in``.  The log-sigma step size adapts toward a
    0.3 +/- 0.1 acceptance rate in windows of 50 during burn-in only,
    keeping the kept chain a fixed-kernel Markov chain.
    """
    if burn_in < 0 or iters <= burn_in:
        raise ValueError(f"need iters > burn_in >= 0, got ({iters}, {burn_in})")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    data = np.asarray(list(data), dtype=float)
    if data.size < 10:
        raise ValueError(f"need at least 10 observations, got {data.size}")

    rng = seeded_rng(seed, "mcmc")
    knots = np.linspace(0.0, 1.0, n_knots)
    kernel_chol = _chol_with_escalation(se_kernel(knots, knots, VARIANCE, RESCALE))
    k_inv = cho_solve((kernel_chol, True), np.eye(n_knots))

    state = _initial_state(data, n_knots)

    step = 0.1
    kept = []
    accepted_total = 0
    window_accepted = 0
    for it in range(1, iters + 1):
        try:
            state = update_latents(state, data, rng)
            state = update_transfer(state, data, rng, k_inv)
            prev_sigma = state.sigma
            state = update_sigma(state, data, rng, step=step)
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(
                f"chain aborted at iteration {it} "
                f"(kept {len(kept)} states, sigma={state.sigma:.4g}): {exc}"
            ) from exc
        accepted = state.sigma != prev_sigma
        accepted_total += accepted
        window_accepted += accepted

        if it <= burn_in and it % _ADAPT_WINDOW == 0:
            rate = window_accepted / _ADAPT_WINDOW
            if rate > 0.4:
                step *= 1.5
            elif rate < 0.2:
                step /= 1.5
            step = float(np.clip(step, *_STEP_BOUNDS))
            window_accepted = 0

        if it > burn_in and (it - burn_in - 1) % thin == 0:
            state = replace(state, log_post=_full_log_post(state, data, kernel_chol))
            kept.append(state)

    return PosteriorSamples(
        states=kept,
        acceptance={
            "latents": 1.0,
            "transfer": 1.0,
            "sigma": accepted_total / iters,
        },
    )


def _full_log_post(
    state: NLLVMState, data: np.ndarray, kernel_chol: np.ndarray
) -> float:
    v = solve_triangular(kernel_chol, state.mu_values, lower=True)
    return float(-0.5 * (v @ v)) + _sigma_logtarget(
        state.sigma, _residual_ss(state, data), data.size
    )


def predictive_density(samples: PosteriorSamples, spec: GridSpec) -> GridDensity:
    """Posterior predictive density: the average of per-state mixtures.

    Each state's mixture is the exact closed form of
    :func:`mixture_density`, so the only error left is the Monte Carlo
    spread of the ensemble average.
    """
    acc = np.zeros(spec.n)
    for state in samples.states:
        dens = mixture_density(state.transfer(), state.sigma, spec)
        acc += dens.values
    return GridDensity(spec.lo, spec.hi, acc / len(samples.states))


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
        sig_cap = max(s.sigma for s in samples.states)
        lo = min(f0.lo, min(float(s.mu_values.min()) for s in samples.states) - 8 * sig_cap)
        hi = max(f0.hi, max(float(s.mu_values.max()) for s in samples.states) + 8 * sig_cap)
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
