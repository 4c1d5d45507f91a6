"""Implicit variational inference with a latent-transfer Gaussian family.

The variational density is the same object the sampler targets: a latent
eta ~ U(0,1) pushed through a transfer function mu and smoothed by Gaussian
noise, q(theta) = integral phi_sigma(theta - mu(eta)) deta.  With mu
piecewise linear the implicit density has a closed form (a sum of normal CDF
differences over the knot segments), so the tempered variational objective

    alpha * E_q[-sum_i log p(y_i | theta)] + KL(q || prior)

is computed exactly on a grid — no density-ratio estimation anywhere.

The module also ships the quantities used by the risk analysis: KL
neighborhoods of the true parameter, prior mass of those neighborhoods, the
per-datum Renyi risk of a fitted q, and the restricted Gaussian-family
minimum KL to a Gaussian posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import ndtri, softmax

from .grid_density import (
    DENSITY_FLOOR,
    GridDensity,
    GridSpec,
    ResolutionError,
    kl_values,
    trapezoid,
    trapezoid_weights,
)
from .transfer_map import QUANTILE_CLIP, TransferFunction, _live_masses, knot_grid
from .transfer_map import mixture_density, mixture_vjp

D_CONST = 2.0
_ABS_CONTINUITY_TOL = 1e-8
# q puts less than a tenth of the support tolerance beyond this many sigma of
# range(mu), which also meets the 1e-4 coverage check of mixture_density
_MARGIN_Z = float(-ndtri(0.1 * _ABS_CONTINUITY_TOL))
MIN_OPT_KNOTS = 8
MAX_OPT_KNOTS = 256
# the prior grid of the models with a Gaussian prior
PRIOR_WINDOW = (-8.0, 8.0)


class SupportError(ValueError):
    """The variational density puts mass where the prior has none."""


@dataclass(eq=False)
class BayesModel:
    """A one-parameter IID Bayesian model with analytic per-datum divergences.

    ``loglik_sum(data, thetas)`` is sum_i log p(y_i | theta) at every theta
    of an array, 0 for empty data; the shipped models compute it from the
    sufficient statistics of ``data``.  ``kl1(thetas)`` and ``v1(thetas)``
    are KL(p_theta_star || p_theta) and the matching second log-ratio moment
    per datum, ``renyi1(alpha, thetas)`` is D_alpha(p_theta || p_theta_star)
    per datum, and ``sample_data(rng, n)`` draws n observations under
    theta_star.  Nothing more is needed: :func:`quadrature_posterior` gives
    every model's tempered posterior on the prior's grid, :func:`optimize`
    starts from its moments, and :func:`risk_bound_experiment` in
    ``verify_harness`` runs on the divergences and ``sample_data``.
    """

    loglik_sum: Callable[[Any, Any], Any]
    theta_star: float
    prior_density: GridDensity
    kl1: Callable[[Any], Any]
    v1: Callable[[Any], Any]
    renyi1: Callable[[float, Any], Any]
    sample_data: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(eq=False)
class VariationalParams:
    """Transfer function plus log noise scale: one member of the family."""

    mu: TransferFunction
    log_sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.log_sigma):
            raise ValueError(f"log_sigma must be finite, got {self.log_sigma}")

    @property
    def sigma(self) -> float:
        return math.exp(self.log_sigma)


def normal_quantile_transfer(m: float, tau: float, *, n_knots: int = 513) -> TransferFunction:
    """Transfer function equal to the N(m, tau^2) quantile map on [0,1].

    Pushing U(0,1) through it and adding N(0, sigma^2) noise yields
    approximately N(m, tau^2 + sigma^2); the quantile levels are clipped at
    ``QUANTILE_CLIP`` to keep the endpoint values finite.
    """
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    levels = np.clip(knot_grid(n_knots), QUANTILE_CLIP, 1.0 - QUANTILE_CLIP)
    return TransferFunction(m + tau * ndtri(levels))


def q_density(params: VariationalParams, spec: GridSpec) -> GridDensity:
    """The explicit density of the implicit family member ``params``."""
    return mixture_density(params.mu, params.sigma, spec)


# ---------------------------------------------------------------------------
# KL neighborhoods


def kl_ball_mask(model: BayesModel, eps: float, thetas) -> np.ndarray:
    """Vectorized membership test for the KL neighborhood of radius ``eps``."""
    if not (0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    bound = eps**2
    return (model.kl1(thetas) <= bound) & (model.v1(thetas) <= bound)


# ---------------------------------------------------------------------------
# the variational objective


def _check_support(q: GridDensity, prior_vals: np.ndarray) -> None:
    outside = float(
        trapezoid(np.where(prior_vals <= DENSITY_FLOOR, q.values, 0.0), dx=q.spacing)
    )
    if outside > _ABS_CONTINUITY_TOL:
        raise SupportError(
            f"variational mass {outside:.3e} sits outside the prior support"
        )


def practical_objective(
    q: GridDensity, prior: np.ndarray, loglik: np.ndarray, alpha: float
) -> float:
    """The tempered variational objective alpha * fit + KL(q || prior) of a grid density.

    ``prior`` and ``loglik`` are the prior density and the data's
    log-likelihood sum at q's grid points.  The value equals, up to an
    additive constant free of q, alpha times the regularized model-fit
    functional; all expectations are quadratures against q.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    _check_support(q, prior)
    kl = kl_values(q.values, prior, q.spacing)
    return alpha * -float(trapezoid(q.values * loglik, dx=q.spacing)) + kl


# ---------------------------------------------------------------------------
# optimizer


@dataclass(eq=False)
class OptimizeResult:
    """Best parameters found plus convergence bookkeeping."""

    params: VariationalParams
    objective: float
    converged: bool
    stalled: bool
    n_sweeps: int


def _prior_support(model: BayesModel) -> tuple:
    """The first and last grid points where the prior exceeds ``DENSITY_FLOOR``."""
    prior = model.prior_density
    support = prior.grid[prior.values > DENSITY_FLOOR]
    return float(support[0]), float(support[-1])


def _default_init(
    model: BayesModel, data: np.ndarray, alpha: float, knots: int
) -> VariationalParams:
    """Moment-matched start: the mean and variance of the tempered grid posterior.

    The mean is kept 50 grid steps h inside the prior's support, and the
    spread capped at a tenth of the room to the support's nearer end, so
    sqrt(2) h <= tau <= room / (10 sqrt 2).  The knots and their ``_MARGIN_Z``
    sigma margin reach (4.75 + 6.0) tau from the mean, so the start lies in
    :class:`_FeasibleMap`, also for data far outside the support.
    """
    post = quadrature_posterior(model, data, alpha)
    grid, h = post.grid, post.spacing
    mean = float(trapezoid(post.values * grid, dx=h))
    var = float(trapezoid(post.values * (grid - mean) ** 2, dx=h))
    lo, hi = _prior_support(model)
    mean = min(max(mean, lo + 50.0 * h), hi - 50.0 * h)
    room = min(mean - lo, hi - mean)
    sd = min(max(math.sqrt(max(var, 0.0)), 2.0 * h), room / 10.0)
    tau = sd / math.sqrt(2.0)
    return VariationalParams(
        mu=normal_quantile_transfer(mean, tau, n_knots=knots),
        log_sigma=math.log(tau),
    )


def _work_window(init: VariationalParams, n_grid: int = 1024) -> GridSpec:
    values = init.mu.values
    sigma = init.sigma
    scale = max(sigma, float(np.std(values)), 1e-4)
    center = 0.5 * (float(values.min()) + float(values.max()))
    half = max(20.0 * scale, 0.5 * float(values.max() - values.min()) + 10.0 * scale)
    return GridSpec(center - half, center + half, n_grid)


@dataclass(frozen=True)
class _FeasibleMap:
    """Unconstrained coordinates of the members whose mass stays in [lo, hi].

    A point x holds K + 1 increment logits and log sigma; its K knot
    values lo + z sigma + (hi - lo - 2 z sigma) * cumsum(softmax(logits))[:-1]
    increase inside [lo + z sigma, hi - z sigma] with z = ``_MARGIN_Z``, so
    every x whose log sigma lies in ``log_sigma_bounds`` passes both the
    coverage and the support check.  [lo, hi] is the work window cut to the
    prior's support.  The map also keeps what stays fixed for the fit: the
    window's ``points``, their trapezoid ``weights``, the ``prior`` there
    floored at ``DENSITY_FLOOR``, ``loglik``, the data's log-likelihood sum
    there, and ``missed_mass``, the prior mass outside the window.
    """

    spec: GridSpec
    lo: float
    hi: float
    points: np.ndarray
    weights: np.ndarray
    prior: np.ndarray
    loglik: np.ndarray
    missed_mass: float

    @classmethod
    def around(
        cls, init: VariationalParams, model: BayesModel, data: np.ndarray
    ) -> "_FeasibleMap":
        spec = _work_window(init)
        lo, hi = _prior_support(model)
        points = spec.points()
        weights = trapezoid_weights(spec.n, spec.spacing)
        prior = np.maximum(model.prior_density.pdf_at(points), DENSITY_FLOOR)
        return cls(
            spec,
            max(spec.lo, lo),
            min(spec.hi, hi),
            points,
            weights,
            prior,
            model.loglik_sum(data, points),
            1.0 - float(weights @ prior),
        )

    @property
    def log_sigma_bounds(self) -> tuple:
        sigma_hi = min(
            0.5 * (self.spec.hi - self.spec.lo),
            0.999 * (self.hi - self.lo) / (2.0 * _MARGIN_Z),
        )
        return math.log(2.0 * self.spec.spacing), math.log(sigma_hi)

    def params(self, x: np.ndarray) -> VariationalParams:
        margin = _MARGIN_Z * math.exp(x[-1])
        steps = np.cumsum(softmax(x[:-1]))[:-1]
        values = self.lo + margin + (self.hi - self.lo - 2.0 * margin) * steps
        return VariationalParams(TransferFunction(values), float(x[-1]))

    def pullback(self, x: np.ndarray, grad_v: np.ndarray, grad_sigma: float) -> np.ndarray:
        """Gradient in x of a function with gradient (grad_v, grad_sigma) at params(x)."""
        sigma = math.exp(x[-1])
        p = softmax(x[:-1])
        steps = np.cumsum(p)[:-1]
        width = self.hi - self.lo - 2.0 * _MARGIN_Z * sigma
        grad_p = np.append(width * np.cumsum(grad_v[::-1])[::-1], 0.0)
        grad_log_sigma = sigma * (grad_sigma + _MARGIN_Z * grad_v @ (1.0 - 2.0 * steps))
        return np.append(p * (grad_p - p @ grad_p), grad_log_sigma)

    def coords(self, params: VariationalParams) -> np.ndarray:
        """The x that :meth:`params` maps to ``params``; raises if there is none."""
        sigma_lo, sigma_hi = self.log_sigma_bounds
        if not sigma_lo <= params.log_sigma <= sigma_hi:
            raise ValueError("initialization is infeasible for the objective")
        margin = _MARGIN_Z * params.sigma
        u = (params.mu.values - self.lo - margin) / (self.hi - self.lo - 2.0 * margin)
        increments = np.diff(u, prepend=0.0, append=1.0)
        if not np.all(increments > 0):
            raise ValueError("initialization is infeasible for the objective")
        logits = np.log(increments)
        return np.append(logits - logits.mean(), params.log_sigma)


def _objective_and_gradient(x: np.ndarray, feasible: _FeasibleMap, alpha: float) -> tuple:
    """:func:`practical_objective` at ``feasible.params(x)`` and its exact gradient in x.

    Both from one build of the masses on ``feasible.spec``, with trapezoid
    weights w: q = q_raw / Z, Z = sum_i w_i q_raw_i, and the objective is
    sum_j w_j (kl_div(q_j, p_j) - alpha q_j loglik_j) for the floored prior
    p.  Its derivative in q_j is g_j = w_j (log(q_j / p_j) - alpha loglik_j),
    0 where q_j = 0, and in q_raw_i (g_i - w_i sum_j g_j q_j) / Z, which
    :func:`mixture_vjp` carries to the knot values and sigma.  The grid, w,
    p and loglik are the ones ``feasible`` keeps for the fit.
    """
    params, w, loglik = feasible.params(x), feasible.weights, feasible.loglik
    q, live, masses = _live_masses(params.mu, params.sigma, feasible.spec)
    value = practical_objective(q, feasible.prior, loglik, alpha)
    log_ratio = np.log(q.values / feasible.prior, out=np.zeros(w.size), where=q.values > 0)
    g = w * (log_ratio - alpha * loglik)
    r = (g - w * (g @ q.values)) / (1.0 - q.mass_loss)
    vjp = mixture_vjp(params.mu, params.sigma, feasible.points[live], masses, r[live])
    return value, feasible.pullback(x, *vjp)


def optimize(
    model: BayesModel,
    data,
    alpha: float,
    knots: int = 16,
    iters: int = 60,
) -> OptimizeResult:
    """L-BFGS-B on the tempered objective over (transfer knot values, log sigma).

    The search runs in the coordinates of :class:`_FeasibleMap`, where the
    only constraint is a box on log sigma, with the exact gradient
    (:func:`_objective_and_gradient`) and at most ``iters`` iterations.
    ``converged`` is scipy's status 0, ``stalled`` its status 2 (the line
    search failed) and ``n_sweeps`` the iteration count.  ``objective`` is
    the tempered objective of the fit: the work window's value plus the
    prior mass outside the window, which the window's KL integrand
    q log(q/p) - q + p leaves out.  The procedure is deterministic.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if not (MIN_OPT_KNOTS <= knots <= MAX_OPT_KNOTS):
        raise ValueError(
            f"knots must lie in [{MIN_OPT_KNOTS}, {MAX_OPT_KNOTS}], got {knots}"
        )
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data must be non-empty")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    from scipy.optimize import minimize  # loaded at the first fit, not with the package

    init = _default_init(model, data, alpha, knots)
    feasible = _FeasibleMap.around(init, model, data)
    res = minimize(
        _objective_and_gradient,
        feasible.coords(init),
        args=(feasible, alpha),
        method="L-BFGS-B",
        jac=True,
        bounds=[(None, None)] * (knots + 1) + [feasible.log_sigma_bounds],
        options={"maxiter": iters},
    )
    return OptimizeResult(
        params=feasible.params(res.x),
        objective=float(res.fun) + feasible.missed_mass,
        converged=res.status == 0,
        stalled=res.status == 2,
        n_sweeps=int(res.nit),
    )


# ---------------------------------------------------------------------------
# restricted comparator family


class RestrictedFamily:
    """The mean x tau comparator lattice, summarized by one member per tau.

    A member is the 513-knot N(m, tau^2) quantile transfer with noise
    sigma_n.  Members that share tau are translates of one base member g_tau,
    built at the window's centre c where it has the most room, so against a
    Gaussian posterior N(a, b^2) each lattice KL has the closed form

        KL(m, tau) = int g log g + log(2 pi b^2) / 2
                     + (V + (m - c + m1 - a)^2) / (2 b^2)

    in three grid-trapezoid numbers per tau: int g log g (log floored at
    DENSITY_FLOOR), the mean m1 and the variance V of g_tau.  The means span
    [-M, M] and the taus [sigma_n, sqrt(c0) sigma_n].
    """

    N_MEANS = 41
    N_TAUS = 9

    def __init__(self, M: float, sigma_n: float, c0: float, grid_spec: GridSpec) -> None:
        if not (M > 0 and sigma_n > 0):
            raise ValueError("M and sigma_n must be positive")
        if c0 < 1:
            raise ValueError(f"c0 must be >= 1, got {c0}")
        self.sigma_n = sigma_n
        self.grid_spec = grid_spec
        self.means = np.linspace(-M, M, self.N_MEANS)
        self.taus = np.geomspace(sigma_n, math.sqrt(c0) * sigma_n, self.N_TAUS)
        self._center = 0.5 * (grid_spec.lo + grid_spec.hi)
        grid, h = grid_spec.points(), grid_spec.spacing
        base = np.array([
            mixture_density(
                normal_quantile_transfer(self._center, tau), sigma_n, grid_spec
            ).values
            for tau in self.taus
        ])
        self._neg_entropy = trapezoid(base * np.log(np.maximum(base, DENSITY_FLOOR)), dx=h)
        self._mean = trapezoid(base * grid, dx=h)
        self._var = trapezoid(base * (grid - self._mean[:, None]) ** 2, dx=h)

    def min_kl(self, post_mean: float, post_sd: float) -> float:
        """min over the lattice of KL(member || N(post_mean, post_sd^2))."""
        if not post_sd > 0:
            raise ValueError(f"post_sd must be positive, got {post_sd}")
        var = post_sd**2
        offset = self.means[:, None] - self._center + self._mean - post_mean
        kls = (
            self._neg_entropy
            + 0.5 * math.log(2.0 * math.pi * var)
            + (self._var + offset**2) / (2.0 * var)
        )
        return float(kls.min())


# ---------------------------------------------------------------------------
# risk quantities


def risk_integral(params: VariationalParams, model: BayesModel, alpha: float) -> float:
    """Per-datum Renyi risk of q: integral of D_alpha(p_theta || p_star) dq.

    For IID data the n-datum divergence is n times the per-datum one, so
    this equals the scaled n-datum risk for every n.  q lives on the
    prior's grid.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    q = q_density(params, model.prior_density.spec)
    return float(trapezoid(q.values * model.renyi1(alpha, q.grid), dx=q.spacing))


@dataclass(eq=False)
class RiskBound:
    """Right-hand side of the high-probability risk bound, split into parts."""

    rhs: float
    remainder: float
    ball_mass: float
    complexity: float
    a1_holds: bool


def risk_bound_rhs(model: BayesModel, n: int, alpha: float, eps: float) -> RiskBound:
    """Evaluate D*alpha/(1-alpha)*eps^2 plus the prior-complexity term.

    D is ``D_CONST``.  The KL-neighborhood mass is a quadrature of the prior
    over the membership mask; the O(1/n) remainder
    log((D-1)^2 n eps^2)/(n(1-alpha)) is reported separately rather than
    folded into the bound.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    prior = model.prior_density
    mask = kl_ball_mask(model, eps, prior.grid)
    mass = float(trapezoid(np.where(mask, prior.values, 0.0), dx=prior.spacing))
    if mass <= 0.0:
        raise ResolutionError(
            f"KL neighborhood at eps={eps:.4g} carries no prior mass on the "
            f"grid (spacing {prior.spacing:.3e}); use a finer grid"
        )
    mass = min(mass, 1.0)
    log_inv_mass = math.log(1.0 / mass)
    complexity = log_inv_mass / (n * (1.0 - alpha))
    rhs = D_CONST * alpha / (1.0 - alpha) * eps**2 + complexity
    remainder = math.log((D_CONST - 1.0) ** 2 * n * eps**2) / (n * (1.0 - alpha))
    return RiskBound(
        rhs=rhs,
        remainder=remainder,
        ball_mass=mass,
        complexity=complexity,
        a1_holds=log_inv_mass <= n * eps**2,
    )


# ---------------------------------------------------------------------------
# shipped models


def _check_params(scales: dict, values: dict) -> None:
    """Reject a scale outside (0, inf) or a non-finite value, naming it."""
    for name, x in scales.items():
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x}")
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def _gaussian_hooks(sigma: float, theta_star: float) -> dict:
    """The data-side hooks of the observation model y ~ N(theta, sigma^2)."""
    log_norm = -0.5 * math.log(2.0 * math.pi * sigma**2)

    def loglik_sum(data, thetas):
        # centred, so the quadratic in theta does not cancel at large n;
        # max(n, 1) makes empty data sum to 0
        data = np.asarray(data, float)
        n = data.size
        ybar = data.sum() / max(n, 1)
        ss = np.sum((data - ybar) ** 2)
        return n * log_norm - (ss + n * (ybar - np.asarray(thetas, float)) ** 2) / (
            2.0 * sigma**2
        )

    def kl1(thetas):
        return (np.asarray(thetas, float) - theta_star) ** 2 / (2.0 * sigma**2)

    def v1(thetas):
        d2 = (np.asarray(thetas, float) - theta_star) ** 2 / sigma**2
        return (d2 / 2.0) ** 2 + d2

    def renyi1(alpha: float, thetas):
        return alpha * (np.asarray(thetas, float) - theta_star) ** 2 / (2.0 * sigma**2)

    def sample_data(rng, n):
        return theta_star + sigma * rng.standard_normal(n)

    return dict(
        loglik_sum=loglik_sum, kl1=kl1, v1=v1, renyi1=renyi1, sample_data=sample_data
    )


def normal_mean_model(
    sigma: float = 0.3,
    theta_star: float = 0.3,
    *,
    prior_halfwidth: float = 1.0,
    grid_n: int = 2048,
) -> BayesModel:
    """Known-variance Gaussian location model with a flat prior.

    The prior is uniform on [-prior_halfwidth, prior_halfwidth], which makes
    KL-neighborhood masses exact length ratios — convenient for checking the
    complexity term by hand.
    """
    _check_params(
        {"sigma": sigma, "prior_halfwidth": prior_halfwidth}, {"theta_star": theta_star}
    )
    if abs(theta_star) >= prior_halfwidth:
        raise ValueError("theta_star must lie inside the prior support")
    prior_spec = GridSpec(-prior_halfwidth, prior_halfwidth, grid_n)
    prior = GridDensity(prior_spec.lo, prior_spec.hi, np.ones(grid_n))
    return BayesModel(
        theta_star=theta_star,
        prior_density=prior,
        **_gaussian_hooks(sigma, theta_star),
    )


def normal_normal_model(
    sigma: float = 1.0,
    prior_mu: float = 0.0,
    prior_sigma: float = 1.0,
    theta_star: float = 0.3,
    *,
    grid_n: int = 4096,
) -> BayesModel:
    """Conjugate Gaussian location model with a Gaussian prior on ``PRIOR_WINDOW``."""
    _check_params(
        {"sigma": sigma, "prior_sigma": prior_sigma},
        {"prior_mu": prior_mu, "theta_star": theta_star},
    )
    prior_spec = GridSpec(*PRIOR_WINDOW, grid_n)
    grid = prior_spec.points()
    prior = GridDensity(
        prior_spec.lo,
        prior_spec.hi,
        np.exp(-((grid - prior_mu) ** 2) / (2.0 * prior_sigma**2)),
    )
    return BayesModel(
        theta_star=theta_star,
        prior_density=prior,
        **_gaussian_hooks(sigma, theta_star),
    )


def logistic_model(
    theta_star: float = 0.5,
    prior_sigma: float = 2.0,
    *,
    grid_n: int = 2048,
) -> BayesModel:
    """Intercept-only Bernoulli model: y ~ Bernoulli(sigmoid(theta)).

    The prior is N(0, prior_sigma^2) on ``PRIOR_WINDOW``.  The outcome space
    is {0, 1}, so the per-datum divergences are two-point sums, supplied
    analytically.
    """
    _check_params({"prior_sigma": prior_sigma}, {"theta_star": theta_star})
    prior_spec = GridSpec(*PRIOR_WINDOW, grid_n)
    grid = prior_spec.points()
    prior = GridDensity(
        prior_spec.lo, prior_spec.hi, np.exp(-(grid**2) / (2.0 * prior_sigma**2))
    )

    def loglik_sum(data, thetas):
        data = np.asarray(data, float)
        bad = data[(data != 0.0) & (data != 1.0)]
        if bad.size:
            raise ValueError(f"logistic-intercept data must be 0 or 1, got {bad[0]}")
        thetas = np.asarray(thetas, float)
        # sum_i y_i theta - log(1 + exp(theta)) in a stable form
        return data.sum() * thetas - data.size * np.logaddexp(0.0, thetas)

    def _log_pq(theta):
        theta = np.asarray(theta, float)
        log_p1 = -np.logaddexp(0.0, -theta)
        log_p0 = -np.logaddexp(0.0, theta)
        return log_p1, log_p0

    lp1_star, lp0_star = _log_pq(theta_star)
    p1_star, p0_star = math.exp(lp1_star), math.exp(lp0_star)

    def kl1(thetas):
        lp1, lp0 = _log_pq(thetas)
        return p1_star * (lp1_star - lp1) + p0_star * (lp0_star - lp0)

    def v1(thetas):
        lp1, lp0 = _log_pq(thetas)
        return p1_star * (lp1_star - lp1) ** 2 + p0_star * (lp0_star - lp0) ** 2

    def renyi1(alpha, thetas):
        lp1, lp0 = _log_pq(thetas)
        mix = np.logaddexp(
            alpha * lp1 + (1.0 - alpha) * lp1_star,
            alpha * lp0 + (1.0 - alpha) * lp0_star,
        )
        return mix / (alpha - 1.0)

    def sample_data(rng, n):
        return (rng.random(n) < p1_star).astype(float)

    return BayesModel(
        loglik_sum=loglik_sum,
        theta_star=theta_star,
        prior_density=prior,
        kl1=kl1,
        v1=v1,
        renyi1=renyi1,
        sample_data=sample_data,
    )


def quadrature_posterior(model: BayesModel, data, alpha: float) -> GridDensity:
    """The alpha-tempered posterior, prior times likelihood^alpha, on the prior's grid."""
    prior = model.prior_density
    logpost = alpha * model.loglik_sum(data, prior.grid) + np.log(
        np.maximum(prior.values, DENSITY_FLOOR)
    )
    return GridDensity(prior.lo, prior.hi, np.exp(logpost - logpost.max()))
