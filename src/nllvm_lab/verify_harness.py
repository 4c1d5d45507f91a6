"""Randomized verification experiments behind the ``verify`` CLI command.

Each experiment turns one analytic claim about the latent-transfer mixture
model or the variational risk analysis into a reproducible check:
divergence inequalities between mixture densities, the chi-square limit of
the posterior-to-variational KL in the conjugate model, approximation
searches witnessing prior support, and the high-probability risk bound with
its truncated witness density.

Every experiment is a pure function of its parameters, among them the seed
of each one that draws random numbers (``l1_support_search`` draws none and
takes no seed).  Each reports a ``CheckReport`` or ``SlopeReport`` and
counts a violation only when a margin (lhs - rhs - slack) is positive, so a
clean report always has ``worst_margin <= 0``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import chdtr

from ._runtime import parallel_map, seeded_rng
from .gp_prior import (
    VARIANCE,
    _chol_with_escalation,
    sample_path_conditional,
    se_kernel,
)
from .gpivi import (
    D_CONST,
    BayesModel,
    RestrictedFamily,
    _work_window,
    kl_ball_mask,
    optimize,
    per_datum_renyi,
    risk_bound_rhs,
    risk_integral,
)
from .grid_density import (
    DENSITY_FLOOR,
    HELLINGER_SQ,
    KL,
    L1,
    SUP_LOG_RATIO,
    GridDensity,
    GridSpec,
    convolve_gaussian,
    divergence,
    trapezoid,
)
from .hi_order_kernel import fbeta_iterative
from .reports import CheckReport, SlopeReport, sample_sizes, slope_fit
from .transfer_map import TransferFunction, mixture_density, quantile_of

__all__ = [
    "CheckReport",
    "SlopeReport",
    "slope_fit",
    "check_hellinger_bound",
    "check_logsup_bound",
    "chi2_limit_experiment",
    "l1_support_search",
    "risk_bound_experiment",
    "hellinger_risk_experiment",
    "restricted_min_kl_experiment",
    "gp_support_probe",
]

_QUAD_SLACK = 1e-6
# the conjugate Gaussian model of chi2_limit_experiment
_CHI2_THETA_STAR = 0.3
_CHI2_PRIOR_SIGMA = 0.3
_CHI2_OBS_SIGMA = 1.0
_L1_KNOTS = 256
_L1_SIGMAS = np.geomspace(0.5, 0.005, 25)
_WITNESS_GRID_N = 8192
# variational fits of risk_bound_experiment and hellinger_risk_experiment
_FIT_KNOTS = 12
_FIT_ITERS = 40
# the conjugate Gaussian model and comparator family of
# restricted_min_kl_experiment
_KL_SIGMA_MODEL = 0.3
_KL_PRIOR_SIGMA = 1.0
_KL_M_BOUND = 1.0
_KL_C0 = 2.0
_KL_RATIO_CAP = 1.5
# odd, so the anchors of gp_support_probe interleave the path grid exactly
_PROBE_KNOTS = 65


def _check_deltas(deltas: Sequence[float]) -> None:
    """Reject deltas that are empty, not in (0, inf), or share a report key.

    Results are reported per delta under the key ``f"{delta:g}"``, so two
    deltas with one key would leave a single entry for two runs.
    """
    if len(deltas) == 0:
        raise ValueError("deltas must be non-empty")
    seen = {}
    for delta in deltas:
        if not (0 < delta < math.inf):
            raise ValueError(f"deltas must be positive and finite, got {delta}")
        key = f"{delta:g}"
        if key in seen:
            raise ValueError(
                f"deltas {seen[key]} and {delta} share the report key {key!r}"
            )
        seen[key] = delta


def check_hellinger_bound(trials: int = 200, seed: int = 0) -> CheckReport:
    """Squared Hellinger distance between two mixtures vs its analytic cap.

    Random transfer pairs come from GP draws (shared knot grid, so the
    sup-norm gap is exact); bandwidths are uniform in [0.05, 0.5].  The cap
    is 1 - sqrt(2 s1 s2 / (s1^2 + s2^2)) * exp(-||mu1-mu2||_inf^2 /
    (4 (s1^2 + s2^2))), plus a small quadrature slack.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    rng = seeded_rng(seed, "hellinger-bound")
    spec = GridSpec(-8.0, 8.0, 2048)
    n_knots = 64
    knots = np.linspace(0.0, 1.0, n_knots)
    variance = 0.5

    worst = -math.inf
    violations = 0
    for _ in range(trials):
        a = rng.uniform(2.0, 15.0)
        chol = _chol_with_escalation(se_kernel(knots, knots, variance, a))
        mu1 = TransferFunction(knots, chol @ rng.standard_normal(n_knots))
        mu2 = TransferFunction(knots, chol @ rng.standard_normal(n_knots))
        s1, s2 = rng.uniform(0.05, 0.5, size=2)
        f1 = mixture_density(mu1, s1, spec)
        f2 = mixture_density(mu2, s2, spec)
        lhs = divergence(HELLINGER_SQ, f1, f2)
        gap = mu1.sup_distance(mu2)
        ssum = s1**2 + s2**2
        rhs = 1.0 - math.sqrt(2.0 * s1 * s2 / ssum) * math.exp(-(gap**2) / (4.0 * ssum))
        margin = lhs - rhs - _QUAD_SLACK
        worst = max(worst, margin)
        violations += margin > 0
    return CheckReport(
        name="hellinger-bound",
        trials=trials,
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        params={
            "sigma_range": [0.05, 0.5],
            "rescale_range": [2.0, 15.0],
            "gp_variance": variance,
            "slack": _QUAD_SLACK,
        },
    )


def check_logsup_bound(
    f0: GridDensity,
    sigma: float = 0.1,
    deltas: Sequence[float] = (0.05, 0.1, 0.2),
    trials: int = 50,
    seed: int = 0,
) -> CheckReport:
    """Sup log-ratio of f0 against a perturbed mixture vs delta^2/sigma^2.

    The transfer is the clipped quantile of f0 plus a smooth perturbation
    rescaled to exact sup-norm delta; the claim is that the sup of
    log(f0 / f_mu_sigma) exceeds the delta = 0 baseline by at most
    delta^2/sigma^2 plus a constant, here budgeted at 0.5.
    """
    if not (0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    _check_deltas(deltas)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = seeded_rng(seed, "logsup-bound")
    mu0 = quantile_of(f0, n_knots=256)
    baseline = divergence(
        SUP_LOG_RATIO, f0, mixture_density(mu0, sigma, f0.spec)
    )
    n_knots = mu0.knots.size
    knots = mu0.knots
    chol = _chol_with_escalation(se_kernel(knots, knots, 1.0, 2.0))

    worst = -math.inf
    violations = 0
    mean_slr = {}
    for delta in deltas:
        slrs = []
        for _ in range(trials):
            path = chol @ rng.standard_normal(n_knots)
            path *= delta / np.max(np.abs(path))
            mu = TransferFunction(knots, mu0.values + path)
            f = mixture_density(mu, sigma, f0.spec)
            slr = divergence(SUP_LOG_RATIO, f0, f)
            slrs.append(slr)
            margin = slr - delta**2 / sigma**2 - baseline - 0.5
            worst = max(worst, margin)
            violations += margin > 0
        mean_slr[f"{delta:g}"] = float(np.mean(slrs))
    return CheckReport(
        name="logsup-bound",
        trials=trials * len(deltas),
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        params={
            "sigma": sigma,
            "deltas": [float(d) for d in deltas],
            "baseline": float(baseline),
            "slack": 0.5,
            "mean_sup_log_ratio": mean_slr,
        },
    )


def _conjugate_posterior(sums, n: int, obs_sigma: float, prior_sigma: float):
    """Conjugate posterior (mean, variance) of a normal mean.

    ``n`` draws with sum ``sums`` (an array for several data sets), noise
    ``obs_sigma``, prior N(0, prior_sigma^2).  With ``alpha * sums`` and
    ``alpha * n`` it is the alpha-tempered posterior.
    """
    var = 1.0 / (n / obs_sigma**2 + 1.0 / prior_sigma**2)
    return sums / obs_sigma**2 * var, var


def _ks_distance_chi2_1(x: np.ndarray) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov distance of ``x`` to chi-square(1).

    The formula of ``scipy.stats.kstest(x, "chi2", args=(1,))``: with F_i the
    CDF at the i-th smallest of n values, the larger of max(i/n - F_i) and
    max(F_i - (i-1)/n).  Negative values get F = 0, as in ``chi2.cdf``.
    """
    cdf = chdtr(1, np.maximum(np.sort(x), 0.0))
    n = cdf.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def chi2_limit_experiment(n: int, reps: int, *, seed: int = 0) -> CheckReport:
    """Distribution of twice the posterior-centering KL against chi-square(1).

    In the conjugate Gaussian model (theta_star 0.3, noise sigma 1, prior
    N(0, 0.3^2)) the KL between the oracle sampling law
    N(theta_star, sigma^2/n) and the posterior N(mu_n, sigma_n^2) has, as n
    grows, twice-its-value converging in law to chi-square with one degree
    of freedom.  Checked via the Kolmogorov-Smirnov distance (cap
    0.05) and the first moment (within [0.85, 1.15]).
    """
    if reps < 500:
        raise ValueError(f"need at least 500 replicates, got {reps}")
    if n < 1000:
        raise ValueError(f"need n >= 1000, got {n}")
    rng = seeded_rng(seed, "chi2-limit", n)

    oracle_var = _CHI2_OBS_SIGMA**2 / n

    kls = np.empty(reps)
    chunk = max(1, int(2_000_000 / n))
    for start in range(0, reps, chunk):
        size = min(chunk, reps - start)
        draws = rng.normal(_CHI2_THETA_STAR, _CHI2_OBS_SIGMA, size=(size, n))
        post_mean, post_var = _conjugate_posterior(
            draws.sum(axis=1), n, _CHI2_OBS_SIGMA, _CHI2_PRIOR_SIGMA
        )
        kls[start : start + size] = (
            0.5 * math.log(post_var / oracle_var)
            + (oracle_var + (_CHI2_THETA_STAR - post_mean) ** 2) / (2.0 * post_var)
            - 0.5
        )
    stats = 2.0 * kls
    ks = _ks_distance_chi2_1(stats)
    mean_stat = float(stats.mean())

    margins = [ks - 0.05, abs(mean_stat - 1.0) - 0.15]
    violations = sum(m > 0 for m in margins)
    return CheckReport(
        name="chi2-limit",
        trials=reps,
        violations=violations,
        worst_margin=max(margins),
        passed=violations == 0,
        params={
            "n": n,
            "ks": ks,
            "ks_cap": 0.05,
            "mean_statistic": mean_stat,
            "mean_window": [0.85, 1.15],
            "mean_kl": float(kls.mean()),
            "min_kl": float(kls.min()),
        },
    )


def _widened(f0: GridDensity, pad: float) -> GridDensity:
    """f0 re-gridded onto a window padded by ``pad`` on both sides."""
    spacing = f0.spacing
    extra = int(math.ceil(pad / spacing))
    n = f0.n + 2 * extra
    lo = f0.lo - extra * spacing
    hi = f0.hi + extra * spacing
    grid = np.linspace(lo, hi, n)
    return GridDensity(lo, hi, f0.pdf_at(grid))


def l1_support_search(f0: GridDensity, eps: float) -> CheckReport:
    """Scan bandwidths for an L1 approximation of f0 by a quantile mixture.

    The transfer is the 256-knot clipped quantile map of f0 (clip 1e-4); the
    scan walks 25 bandwidths from 0.5 down to 0.005 and stops at the first
    L1 distance below ``eps``.  Distances are honest: densities are compared
    on a grid padded by eight times the largest bandwidth, so no kernel mass
    is lost.
    """
    if not (0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")

    mu0 = quantile_of(f0, n_knots=_L1_KNOTS, clip=1e-4)
    wide = _widened(f0, 8.0 * float(_L1_SIGMAS[0]))

    best_l1 = math.inf
    best_sigma = math.nan
    found = False
    tried = 0
    for s in _L1_SIGMAS:
        tried += 1
        f = mixture_density(mu0, s, wide.spec)
        l1 = divergence(L1, f, wide)
        if l1 < best_l1:
            best_l1, best_sigma = l1, float(s)
        if l1 < eps:
            found = True
            break
    delta = eps * best_sigma / 4.0 if found else math.nan
    return CheckReport(
        name="l1-support-search",
        trials=tried,
        violations=0 if found else tried,
        worst_margin=best_l1 - eps,
        passed=found,
        params={
            "eps": eps,
            "sigma": best_sigma,
            "l1": best_l1,
            "delta_bookkeeping": delta,
            "clip": 1e-4,
            "n_knots": _L1_KNOTS,
        },
    )


def _witness_regularization(model: BayesModel, eps: float) -> tuple:
    """KL(witness || prior) for the smoothed, ball-truncated prior witness.

    The witness takes the corrected kernel iterate of the prior, truncates
    it to the KL neighborhood, renormalizes, and re-smooths at a bandwidth
    tied to the neighborhood width.  Its regularization cost should track
    log(1 / prior ball mass).
    """
    base = model.prior_density
    wspec = GridSpec(base.lo, base.hi, _WITNESS_GRID_N)
    prior = GridDensity(wspec.lo, wspec.hi, base.pdf_at(wspec.points()))
    mask = kl_ball_mask(model, eps, prior.grid)
    mass = float(trapezoid(np.where(mask, prior.values, 0.0), dx=prior.spacing))
    if mass <= 0.0 or mask.sum() < 8:
        raise ValueError("KL neighborhood is below grid resolution for the witness")
    inside = prior.grid[mask]
    halfwidth = 0.5 * float(inside.max() - inside.min())

    smooth = fbeta_iterative(prior, 0.05, 1).density
    trunc = GridDensity(wspec.lo, wspec.hi, np.where(mask, smooth.values, 0.0))
    s_w = max(halfwidth / 3.0, 4.2 * wspec.spacing)
    witness = convolve_gaussian(trunc, s_w)
    reg = divergence(KL, witness, prior)
    return reg, mass


def risk_bound_experiment(
    model: BayesModel,
    n_list: Sequence[int],
    alpha: float,
    eps_scale: float = 1.0,
    reps: int = 20,
    seed: int = 0,
) -> CheckReport:
    """Fitted per-datum Renyi risk against its high-probability bound.

    Per sample size and replicate: fit the variational density, evaluate
    the per-datum Renyi risk, and compare with the bound evaluated at
    eps(n) = eps_scale / sqrt(n).  Up to one violation in twenty
    replicates is tolerated per sample size.  Each sample size also checks
    the truncated witness density: its KL to the prior must stay within
    1.1x the neighborhood's log inverse mass.  The sizes run in increasing
    order, and at least two are needed: the median risk must fall from the
    smallest to the largest.  Any model runs: the check reads only its
    ``kl1``, ``v1``, ``renyi1`` and ``sample_data`` hooks and its prior.
    """
    n_arr = sorted(sample_sizes(n_list, reps, 2))
    for n in n_arr:
        eps = eps_scale / math.sqrt(n)
        if not (0 < eps < math.inf):
            raise ValueError(
                f"eps_scale / sqrt({n}) must be positive and finite, got {eps}"
            )

    per_n = {}
    worst = -math.inf
    violations = 0
    trials = 0
    for n in n_arr:
        eps = eps_scale / math.sqrt(n)
        reg, mass = _witness_regularization(model, eps)
        witness_bound = 1.1 * math.log(1.0 / mass)
        trials += 1
        witness_margin = reg - witness_bound
        worst = max(worst, witness_margin)
        violations += witness_margin > 0

        probe_data = model.sample_data(seeded_rng(seed, "risk-probe", n), n)
        bound = risk_bound_rhs(model, probe_data, alpha, eps)
        rhs_total = bound.rhs + bound.remainder

        def one(rep: int, n=n, rhs_total=rhs_total) -> tuple:
            rng = seeded_rng(seed, "risk", n, rep)
            data = model.sample_data(rng, n)
            fit = optimize(model, data, alpha, knots=_FIT_KNOTS, iters=_FIT_ITERS)
            lhs = risk_integral(fit.params, model, alpha)
            return lhs, lhs - rhs_total

        results = parallel_map(one, list(range(reps)))
        lhs_vals = [r[0] for r in results]
        margins = [r[1] for r in results]
        trials += reps
        n_viol = sum(m > 0 for m in margins)
        violations += n_viol
        worst = max(worst, max(margins))
        per_n[str(n)] = {
            "eps": eps,
            "median_lhs": float(np.median(lhs_vals)),
            "rhs": bound.rhs,
            "remainder": bound.remainder,
            "ball_mass": bound.ball_mass,
            "witness_reg": reg,
            "witness_bound": witness_bound,
            "violations": int(n_viol),
            "a1_holds": bound.a1_holds,
        }

    medians = [per_n[str(n)]["median_lhs"] for n in n_arr]
    decay_ok = medians[-1] < medians[0]
    budget_ok = all(
        per_n[str(n)]["violations"] <= max(1, reps // 20) for n in n_arr
    )
    witness_ok = all(
        per_n[str(n)]["witness_reg"] <= per_n[str(n)]["witness_bound"] for n in n_arr
    )
    return CheckReport(
        name="risk-bound",
        trials=trials,
        violations=violations,
        worst_margin=worst,
        passed=budget_ok and witness_ok and decay_ok,
        params={
            "alpha": alpha,
            "d_const": D_CONST,
            "reps": reps,
            "knots": _FIT_KNOTS,
            "per_n": per_n,
            "median_decay_ok": decay_ok,
        },
    )


def hellinger_risk_experiment(
    model: BayesModel,
    n_list: Sequence[int] = (50, 200, 800, 3200),
    alpha: float = 0.5,
    reps: int = 5,
    seed: int = 0,
) -> SlopeReport:
    """Decay rate of the fitted squared-Hellinger risk as n grows.

    The per-datum squared Hellinger distance is recovered from the
    order-1/2 Renyi divergence; the report passes when the fitted log-log
    slope is at most -0.8, the parametric 1/n behaviour up to fit noise,
    over at least three sample sizes.
    """
    n_arr = sorted(sample_sizes(n_list, reps, 3))
    tasks = [(n, rep) for n in n_arr for rep in range(reps)]

    def one(task) -> float:
        n, rep = task
        rng = seeded_rng(seed, "hellinger-risk", n, rep)
        data = model.sample_data(rng, n)
        fit = optimize(model, data, alpha, knots=_FIT_KNOTS, iters=_FIT_ITERS)
        qspec = _work_window(fit.params, n_grid=2048)
        q = mixture_density(fit.params.mu, fit.params.sigma, qspec)
        renyi_half = per_datum_renyi(model, 0.5, q.grid)
        h2 = 1.0 - np.exp(-renyi_half / 2.0)
        return float(trapezoid(q.values * h2, dx=q.spacing))

    risks = np.asarray(parallel_map(one, tasks)).reshape(len(n_arr), reps)
    medians = np.median(risks, axis=1)
    slope, r2 = slope_fit([float(n) for n in n_arr], medians)
    return SlopeReport(
        xs=[float(n) for n in n_arr],
        ys=[float(v) for v in medians],
        slope=slope,
        r2=r2,
        target=-1.0,
        passed=slope <= -0.8,
        note="pass threshold: slope <= -0.8 (parametric 1/n decay of the "
        "squared-Hellinger risk)",
    )


def restricted_min_kl_experiment(
    n_list: Sequence[int] = (100, 1000, 10000),
    reps: int = 200,
    seed: int = 0,
    *,
    grid_n: int = 16384,
) -> CheckReport:
    """Stochastic boundedness of the comparator-family minimum KL.

    For the conjugate Gaussian model at several sample sizes, the 95th
    percentile (over data replicates) of the minimum KL from the restricted
    family (M = 1, c0 = 2) to the conjugate posterior N(a, b^2) (data
    N(0, 0.3^2), prior N(0, 1)) must stay within 1.5 times its value at the
    smallest n — boundedness, not decay.
    """
    gspec = GridSpec(-2.0 * _KL_M_BOUND, 2.0 * _KL_M_BOUND, grid_n)
    n_arr = sorted(sample_sizes(n_list, reps))

    percentiles = []
    for n in n_arr:
        family = RestrictedFamily(_KL_M_BOUND, 1.0 / math.sqrt(n), _KL_C0, gspec)
        rng = seeded_rng(seed, "restricted-min-kl", n)
        vals = np.empty(reps)
        for rep in range(reps):
            data = _KL_SIGMA_MODEL * rng.standard_normal(n)
            post_mean, post_var = _conjugate_posterior(
                data.sum(), n, _KL_SIGMA_MODEL, _KL_PRIOR_SIGMA
            )
            vals[rep] = family.min_kl(post_mean, math.sqrt(post_var))
        percentiles.append(float(np.percentile(vals, 95)))

    base = percentiles[0]
    worst = max(p - _KL_RATIO_CAP * base for p in percentiles)
    violations = sum(p > _KL_RATIO_CAP * base for p in percentiles)
    return CheckReport(
        name="restricted-min-kl",
        trials=reps * len(n_arr),
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        params={
            "n_list": n_arr,
            "percentiles_95": percentiles,
            "ratio_cap": _KL_RATIO_CAP,
            "sigma_model": _KL_SIGMA_MODEL,
            "m_bound": _KL_M_BOUND,
            "c0": _KL_C0,
        },
    )


def gp_support_probe(
    f0: GridDensity,
    deltas: Sequence[float] = (0.3, 0.1),
    seed: int = 0,
    *,
    n_draws: int = 10000,
    n_conditional: int = 2000,
) -> CheckReport:
    """Constructive positive-mass probe for sup-norm balls around a target.

    Raw Monte Carlo over prior draws rarely lands in a tight sup-norm tube
    around the quantile transfer of f0 (reported, not asserted).  Positivity
    is instead established constructively: the target is the clipped
    quantile on a coarse knot set, paths live on a grid twice as fine, and
    a draw conditioned through all of the target's own knots interpolates
    it exactly; the conditional fluctuation between anchors is small enough
    that a positive fraction of conditional draws stays inside the tube.
    """
    _check_deltas(deltas)
    for name, count in (("n_draws", n_draws), ("n_conditional", n_conditional)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    rng = seeded_rng(seed, "gp-support")
    coarse = quantile_of(f0, n_knots=(_PROBE_KNOTS + 1) // 2)
    knots = np.linspace(0.0, 1.0, _PROBE_KNOTS)
    center = float(np.mean(coarse.values))
    target = coarse(knots) - center  # GP prior is centered; probe the shape
    anchor_idx = np.arange(0, _PROBE_KNOTS, 2)

    worst = -math.inf
    violations = 0
    per_delta = {}
    for delta in deltas:
        rescale = 1.0 / delta
        chol = _chol_with_escalation(se_kernel(knots, knots, VARIANCE, rescale))
        draws = chol @ rng.standard_normal((_PROBE_KNOTS, n_draws))
        mc_fraction = float(
            np.mean(np.max(np.abs(draws - target[:, None]), axis=0) < delta)
        )

        mean_path, cond_draws = sample_path_conditional(
            rescale, _PROBE_KNOTS, anchor_idx, target[anchor_idx], rng, n_conditional
        )
        cond_fraction = float(
            np.mean(np.max(np.abs(cond_draws - target), axis=1) < delta)
        )
        interp_err = float(np.max(np.abs(mean_path - target)))

        margin = interp_err - delta / 2.0
        if cond_fraction == 0.0:
            margin = max(margin, 1.0)
        worst = max(worst, margin)
        violations += margin > 0
        per_delta[f"{delta:g}"] = {
            "rescale": rescale,
            "mc_fraction": mc_fraction,
            "conditional_fraction": cond_fraction,
            "mean_interp_error": interp_err,
        }

    return CheckReport(
        name="gp-support-probe",
        trials=len(deltas),
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        params={"n_knots": _PROBE_KNOTS, "anchor_stride": 2, "per_delta": per_delta},
    )
