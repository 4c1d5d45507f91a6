"""Acceptance gate: one test per shipped claim, one summary line per test.

Each test exercises a headline capability end to end, appends a
``[NN] PASS/FAIL`` line to the session registry (printed by the conftest
terminal hook), and enforces a wall-clock budget so regressions in cost
fail loudly alongside regressions in accuracy.  Tolerances are frozen from
calibration runs with comfortable margin; every randomized ingredient is
seeded, so reruns are bit-for-bit repeatable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.stats import truncnorm

from nllvm_lab.cli import _truth_density
from nllvm_lab.gpivi import (
    normal_normal_model,
    optimize,
    q_density,
)
from nllvm_lab.grid_density import (
    HELLINGER_SQ,
    L1,
    GridDensity,
    GridSpec,
    divergence,
    kl_values,
    smooth_bump,
)
from nllvm_lab.hi_order_kernel import (
    approx_order_experiment,
    fbeta_closed_form,
    fbeta_iterative,
    kl_rate_experiment,
)
from nllvm_lab.nllvm_posterior import (
    contraction_experiment,
    fit_mcmc,
    predictive_density,
    theoretical_rate_exponent,
)
from nllvm_lab.transfer_map import mixture_density, quantile_of
from nllvm_lab.verify_harness import (
    check_hellinger_bound,
    check_logsup_bound,
    chi2_limit_experiment,
    hellinger_risk_experiment,
    l1_support_search,
    restricted_min_kl_experiment,
    risk_bound_experiment,
)


def _finish(log, num: int, title: str, cap_s: float, t0: float, ok: bool, detail: str):
    """Record the criterion line, then assert correctness and the budget."""
    elapsed = time.perf_counter() - t0
    status = "PASS" if (ok and elapsed <= cap_s) else "FAIL"
    log.append((num, f"[{num:02d}] {status} {title}: {detail} ({elapsed:.1f}s, cap {cap_s:.0f}s)"))
    assert ok, f"[{num:02d}] {title}: {detail}"
    assert elapsed <= cap_s, f"[{num:02d}] {title}: {elapsed:.1f}s over the {cap_s:.0f}s budget"


def test_c01_closed_form_matches_iterated_correction(acceptance_log):
    """Closed-form bias-corrected kernels equal the recursion to round-off."""
    t0 = time.perf_counter()
    spec = GridSpec(-1.5, 2.5, 2048)
    x = spec.points()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        vals = np.zeros(x.size)
        for _ in range(3):
            m = rng.uniform(0.2, 0.8)
            s = rng.uniform(0.12, 0.25)
            w = rng.uniform(0.3, 0.8)
            vals += w * np.exp(-((x - m) ** 2) / (2.0 * s**2))
        f0 = GridDensity(spec.lo, spec.hi, vals)
        for j in range(4):
            gap = np.max(
                np.abs(fbeta_closed_form(f0, 0.05, j).raw - fbeta_iterative(f0, 0.05, j).raw)
            )
            worst = max(worst, float(gap))
    _finish(
        acceptance_log, 1, "closed form matches iterated correction", 10.0, t0,
        worst < 1e-8,
        f"sup gap {worst:.2e} over 20 random densities x orders 0..3 (tol 1e-8)",
    )


def test_c02_interior_smoothing_error_order(acceptance_log):
    """Sup smoothing error decays at order 2j + 2 on the interior region."""
    t0 = time.perf_counter()
    f0 = smooth_bump(GridSpec(-4.0, 4.0, 8192), -3.0, 3.0, 4.0)
    ladder = np.geomspace(0.1, 0.01, 7)
    r0 = approx_order_experiment(f0, 0, ladder)
    r1 = approx_order_experiment(f0, 1, ladder)
    ok = (
        r0.passed
        and r1.passed
        and 1.7 <= r0.slope <= 2.3
        and 3.5 <= r1.slope <= 4.5
        and r0.r2 >= 0.98
        and r1.r2 >= 0.98
    )
    _finish(
        acceptance_log, 2, "interior smoothing error order", 30.0, t0, ok,
        f"order-0 slope {r0.slope:.2f} (target 2), order-1 slope {r1.slope:.2f} "
        f"(target 4), r2 {min(r0.r2, r1.r2):.3f}",
    )


def test_c03_kl_shrink_rate_doubles_the_order(acceptance_log):
    """KL to the smoothed corrected density decays at twice the sup rate."""
    t0 = time.perf_counter()
    spec = GridSpec(-4.5, 5.5, 8192)
    x = spec.points()
    f0 = GridDensity(spec.lo, spec.hi, 1.0 / np.cosh((x - 0.5) / 0.25))
    ladder = np.geomspace(0.15, 0.015, 7)
    r0 = kl_rate_experiment(f0, 0, ladder)
    r1 = kl_rate_experiment(f0, 1, ladder)
    ok = (
        r0.passed
        and r1.passed
        and 3.4 <= r0.slope <= 4.6
        and 6.5 <= r1.slope <= 9.5
        and r0.r2 >= 0.95
        and r1.r2 >= 0.95
    )
    _finish(
        acceptance_log, 3, "KL shrink rate doubles the order", 30.0, t0, ok,
        f"order-0 slope {r0.slope:.2f} (target 4), order-1 slope {r1.slope:.2f} "
        f"(target 8), r2 {min(r0.r2, r1.r2):.3f}",
    )


def test_c04_mixture_hellinger_bound(acceptance_log):
    """Hellinger between two random mixtures never beats the stated bound."""
    t0 = time.perf_counter()
    rep = check_hellinger_bound(trials=200, seed=0)
    ok = rep.passed and rep.violations == 0 and rep.worst_margin < 0
    _finish(
        acceptance_log, 4, "mixture Hellinger bound", 60.0, t0, ok,
        f"0/{rep.trials} violations, worst margin {rep.worst_margin:.3f}",
    )


def test_c05_sup_log_ratio_perturbation_budget(acceptance_log):
    """Sup log-ratio growth under transfer perturbations stays within budget."""
    t0 = time.perf_counter()
    f0 = _truth_density("bump", 2048)
    rep = check_logsup_bound(f0, sigma=0.1, deltas=(0.05, 0.1, 0.2), trials=50, seed=0)
    ok = rep.passed and rep.violations == 0 and rep.worst_margin < 0
    _finish(
        acceptance_log, 5, "sup log-ratio perturbation budget", 60.0, t0, ok,
        f"0/{rep.trials} violations across three amplitudes, "
        f"worst margin {rep.worst_margin:.3f}",
    )


# the bimodal truth has a zero-density gap between its modes
@pytest.mark.filterwarnings("ignore:flat CDF region")
def test_c06_l1_bandwidth_search(acceptance_log):
    """The bandwidth scan finds an L1-close quantile mixture on both truths."""
    t0 = time.perf_counter()
    achieved = []
    ok = True
    for name in ("bump", "bimodal"):
        rep = l1_support_search(_truth_density(name, 2048), 0.05)
        achieved.append(rep.params["l1"])
        ok = ok and rep.passed and rep.violations == 0 and rep.params["l1"] < 0.05
    _finish(
        acceptance_log, 6, "L1 bandwidth search", 20.0, t0, ok,
        f"achieved L1 {achieved[0]:.4f} (bump) and {achieved[1]:.4f} (bimodal), "
        f"tol 0.05",
    )


def test_c07_quantile_pushforward_equals_smoothing(acceptance_log):
    """Pushing uniforms through the quantile map reproduces the smoothed truth."""
    t0 = time.perf_counter()
    spec = GridSpec(-0.5, 1.5, 2048)
    x = spec.points()
    rng = np.random.default_rng(123)
    vals = np.full(x.size, 0.25)
    for _ in range(3):
        c = rng.uniform(0.0, 1.0)
        s = rng.uniform(0.08, 0.2)
        w = rng.uniform(0.5, 1.5)
        vals += w * np.exp(-((x - c) ** 2) / (2.0 * s**2))
    f0 = GridDensity(spec.lo, spec.hi, vals)
    mu0 = quantile_of(f0, n_knots=1024)
    wide = GridSpec(-1.5, 2.5, 4096)
    f0w = GridDensity(wide.lo, wide.hi, f0.pdf_at(wide.points()))
    gaps = []
    from nllvm_lab.grid_density import convolve_gaussian

    for sigma in (0.05, 0.1):
        mix = mixture_density(mu0, sigma, wide)
        conv = convolve_gaussian(f0w, sigma)
        gaps.append(float(np.max(np.abs(mix.values - conv.values))))
    ok = all(g < 2e-3 for g in gaps)
    _finish(
        acceptance_log, 7, "quantile pushforward equals smoothing", 10.0, t0, ok,
        f"sup gaps {gaps[0]:.1e} / {gaps[1]:.1e} at bandwidths 0.05 / 0.1 (tol 2e-3)",
    )


def test_c08_mcmc_predictive_accuracy_and_agreement(acceptance_log):
    """Two independent chains recover the truth and agree with each other."""
    t0 = time.perf_counter()
    a_std, b_std = (0.0 - 0.5) / 0.2, (1.0 - 0.5) / 0.2
    rng = np.random.default_rng(42)
    data = truncnorm.rvs(a_std, b_std, loc=0.5, scale=0.2, size=500, random_state=rng)
    spec = GridSpec(-1.5, 2.5, 2048)
    f0 = GridDensity(
        spec.lo, spec.hi, truncnorm.pdf(spec.points(), a_std, b_std, loc=0.5, scale=0.2)
    )
    preds = []
    for seed in (1, 2):
        samples = fit_mcmc(data, iters=3000, burn_in=1000, thin=10, seed=seed)
        preds.append(predictive_density(samples, spec))
    h2 = [divergence(HELLINGER_SQ, p, f0) for p in preds]
    between = divergence(L1, preds[0], preds[1])
    ok = max(h2) < 0.02 and between < 0.1
    _finish(
        acceptance_log, 8, "MCMC predictive accuracy and chain agreement", 300.0, t0, ok,
        f"squared Hellinger {h2[0]:.4f} / {h2[1]:.4f} (tol 0.02), "
        f"chain-to-chain L1 {between:.4f} (tol 0.1)",
    )


def test_c09_posterior_contraction_decay(acceptance_log):
    """Median predictive error shrinks as the sample size grows 100 -> 1600."""
    t0 = time.perf_counter()
    f0 = _truth_density("normal", 1024)
    rep = contraction_experiment(f0, [100, 400, 1600], 5, 0)
    decreasing = len(rep.ys) == 3 and rep.ys[0] > rep.ys[1] > rep.ys[2]
    exponent_ok = abs(theoretical_rate_exponent(2.0, 0.0) - 1.8) < 1e-12
    ok = rep.passed and decreasing and exponent_ok
    _finish(
        acceptance_log, 9, "posterior contraction decay", 1800.0, t0, ok,
        f"median squared Hellinger {rep.ys[0]:.4f} -> {rep.ys[-1]:.4f}, "
        f"slope {rep.slope:.2f} vs theory {rep.target:.2f}, log-factor exponent 1.8",
    )


def test_c10_chi_square_limit_of_centering_kl(acceptance_log):
    """Twice the oracle-to-posterior KL matches its chi-square(1) limit."""
    t0 = time.perf_counter()
    rep = chi2_limit_experiment(10000, 2000, seed=0)
    ok = (
        rep.passed
        and rep.params["ks"] <= rep.params["ks_cap"]
        and 0.85 <= rep.params["mean_statistic"] <= 1.15
        and rep.params["min_kl"] >= 0.0
    )
    _finish(
        acceptance_log, 10, "chi-square limit of centering KL", 120.0, t0, ok,
        f"KS distance {rep.params['ks']:.4f} (cap {rep.params['ks_cap']:.2f}), "
        f"mean statistic {rep.params['mean_statistic']:.3f}",
    )


def test_c11_restricted_family_min_kl_boundedness(acceptance_log):
    """The comparator family's min KL stays bounded as n grows 100 -> 10000."""
    t0 = time.perf_counter()
    rep = restricted_min_kl_experiment()
    p95 = rep.params["percentiles_95"]
    cap = rep.params["ratio_cap"]
    ok = rep.passed and all(v <= cap * p95[0] for v in p95[1:])
    _finish(
        acceptance_log, 11, "restricted-family min-KL boundedness", 600.0, t0, ok,
        f"95th percentiles {', '.join(f'{v:.2f}' for v in p95)} "
        f"(ratio cap {cap:.1f} of the smallest-n value)",
    )


def test_c12_renyi_risk_high_probability_bound(acceptance_log):
    """Fitted per-datum Renyi risk obeys its bound at two temperatures."""
    t0 = time.perf_counter()
    model = normal_normal_model()
    details = []
    ok = True
    for alpha in (0.5, 0.99):
        rep = risk_bound_experiment(model, [50, 200, 800], alpha, reps=20, seed=0)
        per_n_viol = max(v["violations"] for v in rep.params["per_n"].values())
        ok = ok and rep.passed and per_n_viol <= 1
        details.append(f"alpha {alpha}: {rep.violations}/{rep.trials} violations")
    _finish(
        acceptance_log, 12, "Renyi risk high-probability bound", 600.0, t0, ok,
        "; ".join(details) + " (at most 1 of 20 per sample size)",
    )


def test_c13_hellinger_risk_parametric_decay(acceptance_log):
    """Squared-Hellinger risk of the fit decays like 1/n over 50 -> 3200."""
    t0 = time.perf_counter()
    rep = hellinger_risk_experiment(normal_normal_model(), (50, 200, 800, 3200), 0.5, reps=5, seed=0)
    decreasing = all(a > b for a, b in zip(rep.ys, rep.ys[1:]))
    ok = rep.passed and rep.slope <= -0.8 and decreasing
    _finish(
        acceptance_log, 13, "Hellinger risk parametric decay", 600.0, t0, ok,
        f"slope {rep.slope:.2f} (threshold -0.8), "
        f"median risk {rep.ys[0]:.2e} -> {rep.ys[-1]:.2e}",
    )


def test_c14_variational_fit_recovers_conjugate_posterior(acceptance_log, conjugate_tempered):
    """L-BFGS-B lands on the closed-form tempered posterior of the conjugate model."""
    t0 = time.perf_counter()
    nn = normal_normal_model()
    data = nn.sample_data(np.random.default_rng(14), 100)
    res = optimize(nn, data, 0.99, knots=16, iters=60)
    q = q_density(res.params, nn.prior_density.spec)
    exact = conjugate_tempered(nn, data, 0.99)
    kl = kl_values(q.values, exact.values, q.spacing)
    ok = kl < 0.05
    _finish(
        acceptance_log, 14, "variational fit recovers conjugate posterior", 120.0, t0, ok,
        f"KL(fit || exact tempered posterior) {kl:.2e} (tol 0.05)",
    )
