"""Blocked Gibbs sampler: full conditionals, bookkeeping, and experiments.

Oracles
-------
* With the identity transfer and small noise, each latent's full
  conditional concentrates near its observation, so resampled latents
  land within a few noise scales of the data.
* With latents pinned at the knots, tiny noise, and repeated
  observations, the GP-regression conditional pulls the drawn knot
  values onto the regression targets.
* The per-knot sums behind the transfer step's tridiagonal W^T W and W^T y
  equal the products of a dense interpolation design W.
* The sigma draw's empirical CDF stays inside the DKW band around the
  quadrature CDF of its full conditional, written in sigma-space from the
  inverse-gamma prior and the Gaussian likelihood.
* Successive-conditional simulation (Geweke 2004, "Getting it right"):
  alternating a fresh y given the state with one Gibbs cycle leaves the
  prior invariant, so the chain's means of sigma, 1/sigma, mu_k and mu_k^2
  match the prior's.
* The posterior predictive of a single-state ensemble is exactly that
  state's location mixture.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import cho_solve
from scipy.special import ndtri
from scipy.stats import kstest

from nllvm_lab.gp_prior import (
    RESCALE,
    SIGMA_PRIOR,
    VARIANCE,
    _chol_with_escalation,
    se_kernel,
)
from nllvm_lab.grid_density import GridSpec
from nllvm_lab.nllvm_posterior import (
    NLLVMState,
    PosteriorSamples,
    _tridiagonal_gram,
    contraction_experiment,
    fit_mcmc,
    predictive_density,
    theoretical_rate_exponent,
    update_latents,
    update_sigma,
    update_transfer,
)
from nllvm_lab.transfer_map import TransferFunction, mixture_density

_IDENTITY = TransferFunction(np.linspace(0.0, 1.0, 16), np.linspace(0.0, 1.0, 16))


class TestConfigAndState:
    """Input validation on chain settings and states."""

    def test_mcmc_config_ordering(self, monkeypatch):
        data = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match="seed"):
            fit_mcmc(data, iters=100, burn_in=10, seed=-1)

        # chain lengths are rejected before any work: no stream is drawn
        def no_work(*args):
            raise AssertionError("chain started before validating its lengths")

        monkeypatch.setattr("nllvm_lab.nllvm_posterior.seeded_rng", no_work)
        with pytest.raises(ValueError, match=r"iters > burn_in >= 0, got \(50, 50\)"):
            fit_mcmc(data, iters=50, burn_in=50)
        with pytest.raises(ValueError, match="iters > burn_in"):
            fit_mcmc(data, iters=50, burn_in=-1)
        with pytest.raises(ValueError, match="thin must be >= 1, got 0"):
            fit_mcmc(data, iters=100, burn_in=10, thin=0)

    def test_state_validation(self):
        mu = np.linspace(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="sigma"):
            NLLVMState(mu, 0.0, np.array([0.5]), 0.0)
        with pytest.raises(ValueError, match="latents"):
            NLLVMState(mu, 0.1, np.array([0.5, 1.2]), 0.0)
        with pytest.raises(ValueError, match="log_post"):
            NLLVMState(mu, 0.1, np.array([0.5]), np.inf)

    def test_state_transfer(self):
        state = NLLVMState(np.linspace(-1.0, 1.0, 9), 0.1, np.array([0.5]), 0.0)
        assert state.transfer()(np.array([0.5]))[0] == pytest.approx(0.0)

    def test_samples_validation(self):
        with pytest.raises(ValueError, match="no kept states"):
            PosteriorSamples([])


class TestUpdateLatents:
    """Inverse-CDF resampling of the latent positions."""

    def test_concentrates_near_observations(self):
        # identity transfer, sigma = 0.05: eta_i should track y_i
        eta = update_latents(_IDENTITY, 0.05, np.array([0.2, 0.8]), np.random.default_rng(0))
        assert abs(eta[0] - 0.2) < 0.1
        assert abs(eta[1] - 0.8) < 0.1
        assert np.all((eta >= 0.0) & (eta <= 1.0))

    def test_reproducible(self):
        data = np.array([0.1, 0.5, 0.9])
        a = update_latents(_IDENTITY, 0.1, data, np.random.default_rng(3))
        b = update_latents(_IDENTITY, 0.1, data, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "values, y",
        [
            (np.sin(np.linspace(0.0, 4.0, 16)), 0.3),  # inside range(mu)
            (np.sin(np.linspace(0.0, 4.0, 16)), 1.0 + 4 * 0.1),  # 4 sigma above
            (np.sin(np.linspace(0.0, 4.0, 16)), 1.0 + 15 * 0.1),  # 15 sigma above
            (np.r_[np.linspace(0.0, 0.5, 6), np.full(5, 0.5), np.linspace(0.5, 1.0, 5)], 0.52),
        ],
        ids=["inside", "above", "far-above", "flat"],
    )
    def test_exact_conditional_passes_ks(self, values, y):
        # one call draws 20000 independent latents for the same y; the
        # analytic conditional CDF is a fine-grid cumulative sum of
        # phi_sigma(y - mu(x)), scaled by its maximum so it cannot underflow
        sigma = 0.1
        n = 20000
        mu = TransferFunction(np.linspace(0.0, 1.0, values.size), values)
        eta = update_latents(mu, sigma, np.full(n, y), np.random.default_rng(11))
        edges = np.linspace(0.0, 1.0, (1 << 18) + 1)
        logw = -0.5 * ((y - mu(0.5 * (edges[:-1] + edges[1:]))) / sigma) ** 2
        cdf = np.concatenate([[0.0], np.cumsum(np.exp(logw - logw.max()))])
        cdf /= cdf[-1]
        result = kstest(eta, lambda x: np.interp(x, edges, cdf))
        assert result.pvalue > 0.01

    def test_underflow_falls_back_to_uniform(self, caplog):
        # data 40 sigma away from the whole transfer range underflows
        with caplog.at_level("WARNING"):
            eta = update_latents(_IDENTITY, 0.01, np.array([50.0]), np.random.default_rng(0))
        assert "underflowed" in caplog.text
        assert 0.0 <= eta[0] <= 1.0


def _k_inv(n_knots: int) -> np.ndarray:
    # K^-1 of a rescale-5 prior: update_transfer takes any fixed K^-1
    knots = np.linspace(0.0, 1.0, n_knots)
    kernel = se_kernel(knots, knots, 1.0, 5.0)
    return cho_solve((_chol_with_escalation(kernel), True), np.eye(n_knots))


class TestUpdateTransfer:
    """GP-regression conditional for the knot values."""

    @pytest.mark.parametrize("n_knots", [2, 3, 16, 64])
    def test_tridiagonal_gram_matches_dense_design(self, n_knots):
        # random latents plus the edge cases: exactly 0, exactly 1 and
        # exactly on an interior knot
        rng = np.random.default_rng(n_knots)
        knots = np.linspace(0.0, 1.0, n_knots)
        eta = np.r_[rng.random(200), 0.0, 1.0, knots[n_knots // 2], knots[1]]
        data = rng.normal(0.0, 1.0, eta.size)
        # dense reference: row i interpolates the knot values at eta_i
        w = np.stack([np.interp(eta, knots, col) for col in np.eye(n_knots)], axis=1)
        gram, wty = _tridiagonal_gram(eta, data, n_knots)
        np.testing.assert_allclose(gram, w.T @ w, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(wty, w.T @ data, rtol=1e-12, atol=0.0)

    @settings(max_examples=60)
    @given(
        n_knots=st.integers(2, 64),
        points=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-10.0, 10.0)), min_size=1, max_size=100
        ),
    )
    def test_tridiagonal_gram_matches_dense_design_for_any_latents(self, n_knots, points):
        # to 1e-12 of the largest entry: a latent within rounding of a knot
        # leaves a weight of order 1e-16 whose own relative error is large
        eta, data = np.array(points).T
        knots = np.linspace(0.0, 1.0, n_knots)
        w = np.stack([np.interp(eta, knots, col) for col in np.eye(n_knots)], axis=1)
        gram, wty = _tridiagonal_gram(eta, data, n_knots)
        dense = w.T @ w
        np.testing.assert_allclose(gram, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
        scale = (np.abs(w).T @ np.abs(data)).max()
        np.testing.assert_allclose(wty, w.T @ data, rtol=0, atol=1e-12 * scale)

    def test_informative_data_pins_the_curve(self):
        # latents sit exactly on the knots, each observed 10 times with
        # sigma = 0.01: the conditional mean is essentially the target
        nk = 16
        knots = np.linspace(0.0, 1.0, nk)
        target = 0.3 * np.sin(2 * np.pi * knots) + 0.5
        data = np.tile(target, 10)
        for seed in (0, 1):
            drawn = update_transfer(
                np.tile(knots, 10), 0.01, data, np.random.default_rng(seed), _k_inv(nk)
            )
            assert np.max(np.abs(drawn - target)) < 0.05

    def test_empty_data_gives_prior_draw(self):
        k_inv = _k_inv(16)
        empty = np.array([])
        a = update_transfer(empty, 0.1, empty, np.random.default_rng(2), k_inv)
        b = update_transfer(empty, 0.1, empty, np.random.default_rng(2), k_inv)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (16,) and np.std(a) > 0


class TestUpdateSigma:
    """Exact draw of the noise scale from its full conditional."""

    # Kolmogorov distance allowed at 20000 draws: the DKW band at level
    # 0.01 / 4, Bonferroni over the four regimes
    DRAWS = 20000
    BAND = math.sqrt(math.log(2.0 / (0.01 / 4)) / (2 * DRAWS))

    @pytest.mark.parametrize(
        "n, ss", [(10, 1e-4), (10, 20.0), (100, 1.0), (1600, 400.0)]
    )
    def test_draws_match_the_quadrature_cdf(self, n, ss):
        # every residual equals sqrt(ss / n); the reference CDF integrates
        # sigma^-(a+1) e^(-b/sigma) * sigma^-n e^(-ss/(2 sigma^2)) over a
        # fine grid in log sigma
        a, b = SIGMA_PRIOR
        resid = np.full(n, math.sqrt(ss / n))
        rng = np.random.default_rng(n)
        sigmas = np.array([update_sigma(resid, rng) for _ in range(self.DRAWS)])
        u = np.linspace(math.log(1e-3), math.log(1e2), 1 << 19)
        logq = -(a + n) * u - b * np.exp(-u) - 0.5 * ss * np.exp(-2.0 * u)
        cdf = cumulative_trapezoid(np.exp(logq - logq.max()), u, initial=0.0)
        cdf /= cdf[-1]
        result = kstest(np.log(sigmas), lambda x: np.interp(x, u, cdf))
        assert result.statistic < self.BAND


def _mc_standard_error(x: np.ndarray) -> float:
    """Standard error of a chain's mean from Geyer's initial positive sequence.

    Autocovariances are summed in adjacent pairs up to the first pair that
    is not positive; the variance of the mean is that sum over the length.
    """
    x = x - x.mean()
    n = x.size
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    pairs = acov[: n - 1 : 2] + acov[1::2]
    stop = np.flatnonzero(pairs <= 0.0)
    var = 2.0 * pairs[: stop[0] if stop.size else pairs.size].sum() - acov[0]
    return math.sqrt(var / n)


class TestGibbsKernel:
    """The three steps together leave the joint posterior invariant."""

    def test_successive_conditional_keeps_the_prior(self, caplog):
        # (mu, sigma, eta) starts at a prior draw; each cycle draws y given
        # the state, then runs update_latents -> update_transfer ->
        # update_sigma on it, so every state is again a prior draw.  Eight
        # means are tested at a Bonferroni-adjusted two-sided level of 0.01
        cycles, n, n_knots = 8000, 10, 16
        rng = np.random.default_rng(0)
        knots = np.linspace(0.0, 1.0, n_knots)
        chol = _chol_with_escalation(se_kernel(knots, knots, VARIANCE, RESCALE))
        k_inv = cho_solve((chol, True), np.eye(n_knots))
        a, b = SIGMA_PRIOR
        values = chol @ rng.standard_normal(n_knots)
        s, eta = 1.0 / rng.gamma(a, 1.0 / b), rng.random(n)
        pick = [0, n_knots // 2, n_knots - 1]
        sigma = np.empty(cycles)
        mu = np.empty((cycles, len(pick)))
        with caplog.at_level("WARNING"):
            for c in range(cycles):
                transfer = TransferFunction(knots, values)
                y = transfer(eta) + s * rng.standard_normal(n)
                eta = update_latents(transfer, s, y, rng)
                values = update_transfer(eta, s, y, rng, k_inv)
                s = update_sigma(y - np.interp(eta, knots, values), rng)
                sigma[c] = s
                mu[c] = values[pick]
        # an underflow fallback is not an exact draw
        assert "underflowed" not in caplog.text

        # IG(a, b): E sigma = b / (a - 1), E 1/sigma = a / b
        stats = [(sigma, b / (a - 1.0)), (1.0 / sigma, a / b)]
        stats += [(mu[:, j], 0.0) for j in range(len(pick))]
        stats += [(mu[:, j] ** 2, VARIANCE) for j in range(len(pick))]
        z = [(x.mean() - mean) / _mc_standard_error(x) for x, mean in stats]
        assert max(map(abs, z)) < ndtri(1.0 - 0.01 / (2 * len(stats))), np.round(z, 2)


class TestFitMcmc:
    """End-to-end chain bookkeeping."""

    def test_needs_ten_observations(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_mcmc(np.zeros(9), iters=10, burn_in=0)

    def test_kept_count_and_bookkeeping(self):
        rng = np.random.default_rng(42)
        data = rng.normal(0.5, 0.2, 80)
        out = fit_mcmc(data, iters=60, burn_in=20, thin=4, seed=5, n_knots=16)
        # kept iterations are 21, 25, ..., 57
        assert len(out.states) == 10
        for state in out.states:
            assert state.sigma > 0
            assert np.all((state.eta >= 0) & (state.eta <= 1))
            assert np.isfinite(state.log_post)

    def test_failed_kept_state_check_aborts_the_chain(self, monkeypatch):
        # kept states are checked inside the cycle, so a failed check aborts
        # the chain like a failed step
        monkeypatch.setattr("nllvm_lab.nllvm_posterior._sigma_logtarget", lambda *args: math.inf)
        with pytest.raises(
            RuntimeError,
            match=r"^chain aborted at iteration 3 \(kept 0 states, .*log_post must be finite",
        ):
            fit_mcmc(np.linspace(0.0, 1.0, 20), iters=5, burn_in=2, n_knots=16)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(42)
        data = rng.normal(0.5, 0.2, 80)
        a = fit_mcmc(data, iters=60, burn_in=20, thin=4, seed=5, n_knots=16)
        b = fit_mcmc(data, iters=60, burn_in=20, thin=4, seed=5, n_knots=16)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.mu_values, sb.mu_values)
            assert sa.sigma == sb.sigma


class TestPredictiveDensity:
    """Ensemble average of per-state location mixtures."""

    def test_single_state_equals_its_mixture(self):
        state = NLLVMState(np.linspace(0.0, 1.0, 32), 0.3, np.array([0.5]), 0.0)
        samples = PosteriorSamples([state])
        spec = GridSpec(-3.0, 4.0, 1024)
        pred = predictive_density(samples, spec)
        direct = mixture_density(state.transfer(), 0.3, spec)
        np.testing.assert_array_equal(pred.values, direct.values)

    def test_two_states_average(self):
        s1 = NLLVMState(np.linspace(0.0, 1.0, 32), 0.3, np.array([0.5]), 0.0)
        s2 = NLLVMState(np.linspace(-0.5, 0.5, 32), 0.4, np.array([0.5]), 0.0)
        samples = PosteriorSamples([s1, s2])
        spec = GridSpec(-4.0, 4.0, 1024)
        pred = predictive_density(samples, spec)
        d1 = mixture_density(s1.transfer(), 0.3, spec)
        d2 = mixture_density(s2.transfer(), 0.4, spec)
        np.testing.assert_allclose(
            pred.values, 0.5 * (d1.values + d2.values), atol=1e-15
        )

    def test_covering_window_pads_by_the_largest_sigma(self):
        s1 = NLLVMState(np.linspace(0.0, 1.0, 32), 0.3, np.array([0.5]), 0.0)
        s2 = NLLVMState(np.linspace(-0.5, 0.5, 32), 0.4, np.array([0.5]), 0.0)
        lo, hi = PosteriorSamples([s1, s2]).covering_window()
        assert (lo, hi) == (-0.5 - 8 * 0.4, 1.0 + 8 * 0.4)
        for s in (s1, s2):
            assert mixture_density(s.transfer(), s.sigma, GridSpec(lo, hi, 2048)).mass_loss < 1e-12


class TestContractionScaffolding:
    """Rate-experiment plumbing that does not need a long MCMC run."""

    def test_rate_exponent_values(self):
        assert theoretical_rate_exponent(2.0, 0.0) == pytest.approx(1.8)
        assert theoretical_rate_exponent(1.0, 0.0) == pytest.approx(5.0 / 3.0)
        assert theoretical_rate_exponent(2.0, 4.0) == pytest.approx(2.6)

    def test_insufficient_points_short_circuits(self, gaussian_density, monkeypatch):
        # rejected before any work: no fit draws its stream
        def no_work(*args):
            raise AssertionError("experiment started before validating n_list")

        monkeypatch.setattr("nllvm_lab.nllvm_posterior.seeded_rng", no_work)
        with pytest.raises(ValueError, match="at least 3 sample sizes"):
            contraction_experiment(gaussian_density, [100, 1600], 2, seed=0)

    def test_span_must_cover_factor_sixteen(self, gaussian_density):
        with pytest.raises(ValueError, match="factor of 16"):
            contraction_experiment(gaussian_density, [100, 200, 400], 2, seed=0)

    def test_reps_positive(self, gaussian_density):
        with pytest.raises(ValueError, match="reps"):
            contraction_experiment(gaussian_density, [100, 400, 1600], 0, seed=0)

    def test_aborted_chain_raises(self, gaussian_density, monkeypatch):
        # a failed fit propagates; it is not turned into a failing report
        def broken(*args, **kwargs):
            raise ValueError("proposal out of range")

        monkeypatch.setattr("nllvm_lab.nllvm_posterior.update_sigma", broken)
        with pytest.raises(
            RuntimeError,
            match=r"^chain aborted at iteration 1 \(kept 0 states, .*proposal out of range",
        ):
            contraction_experiment(gaussian_density, [100, 400, 1600], 1, seed=0)
