"""GP transfer prior: kernel algebra, path sampling, and conditioning.

Oracles
-------
* The squared-exponential kernel is symmetric positive semi-definite with
  diagonal equal to the marginal variance, so path values at any single
  knot are N(0, variance); 600 draws pin the sample standard deviation.
* Conditioning with a zero-noise generator returns the conditional mean,
  which for densely anchored smooth targets interpolates them closely.
* The inverse-gamma(3, 1) noise prior has mean 1/2.
* A fixed rescale draws no randomness, so a prior density draw is exactly
  a path draw followed by a noise-scale draw on the same generator.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nllvm_lab.gp_prior import (
    MAX_PATH_KNOTS,
    MIN_PATH_KNOTS,
    ConditioningError,
    GPPriorConfig,
    _chol_with_escalation,
    prior_draw_density,
    sample_path,
    sample_path_conditional,
    sample_sigma,
    se_kernel,
)
from nllvm_lab.grid_density import GridSpec
from nllvm_lab.transfer_map import TransferFunction, mixture_density


class ZeroNoise:
    """Generator stand-in that kills the fluctuation term."""

    @staticmethod
    def standard_normal(n: int) -> np.ndarray:
        return np.zeros(n)


class TestConfigValidation:
    """Hyperparameter sanity checks fail fast."""

    def test_defaults_are_valid(self):
        cfg = GPPriorConfig()
        assert cfg.variance == 1.0
        assert cfg.rescale == 20.0

    def test_variance_positive(self):
        with pytest.raises(ValueError, match="variance"):
            GPPriorConfig(variance=0.0)

    def test_sigma_prior_positive(self):
        with pytest.raises(ValueError, match="sigma_prior"):
            GPPriorConfig(sigma_prior=(0.0, 1.0))
        with pytest.raises(ValueError, match="sigma_prior"):
            GPPriorConfig(sigma_prior=(3.0, -1.0))

    def test_jitter_window_scales_with_variance(self):
        with pytest.raises(ValueError, match="jitter"):
            GPPriorConfig(jitter=0.0)
        with pytest.raises(ValueError, match="jitter"):
            GPPriorConfig(variance=1.0, jitter=1e-5)
        # the same jitter is acceptable under a larger marginal variance
        GPPriorConfig(variance=100.0, jitter=1e-5)

    def test_rescale_must_be_finite_positive(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rescale"):
                GPPriorConfig(rescale=bad)


class TestSeKernel:
    """Covariance matrix structure."""

    def test_symmetric_with_variance_diagonal(self):
        x = np.linspace(0.0, 1.0, 32)
        k = se_kernel(x, x, 0.7, 5.0)
        np.testing.assert_allclose(k, k.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(k), 0.7, atol=1e-15)

    def test_positive_semidefinite(self):
        x = np.linspace(0.0, 1.0, 48)
        k = se_kernel(x, x, 1.0, 10.0)
        eigs = np.linalg.eigvalsh(k)
        assert eigs.min() > -1e-10

    def test_decay_with_distance_and_rescale(self):
        k = se_kernel(np.array([0.0]), np.array([0.1, 0.2]), 1.0, 5.0)
        assert k[0, 0] > k[0, 1]
        assert k[0, 0] == pytest.approx(math.exp(-0.25))
        sharper = se_kernel(np.array([0.0]), np.array([0.1]), 1.0, 10.0)
        assert sharper[0, 0] < k[0, 0]


class TestCholeskyEscalation:
    """Jitter escalation gives up loudly on genuinely bad matrices."""

    def test_indefinite_matrix_raises(self):
        # eigenvalues 3 and -1: no small jitter can rescue this
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ConditioningError, match="jitter doublings"):
            _chol_with_escalation(bad, 1e-8)

    def test_psd_matrix_factorizes(self):
        x = np.linspace(0.0, 1.0, 64)
        k = se_kernel(x, x, 1.0, 20.0)
        chol = _chol_with_escalation(k, 1e-8)
        np.testing.assert_allclose(chol @ chol.T, k, atol=1e-6)


class TestSamplePath:
    """Unconditional path draws."""

    def test_knot_count_bounds(self):
        cfg = GPPriorConfig(rescale=5.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n_knots"):
            sample_path(cfg, MIN_PATH_KNOTS - 1, rng)
        with pytest.raises(ValueError, match="n_knots"):
            sample_path(cfg, MAX_PATH_KNOTS + 1, rng)

    def test_reproducible_under_seeded_generator(self):
        cfg = GPPriorConfig(rescale=5.0)
        a = sample_path(cfg, 64, np.random.default_rng(11))
        b = sample_path(cfg, 64, np.random.default_rng(11))
        np.testing.assert_array_equal(a.values, b.values)

    def test_marginal_standard_deviation(self):
        # single-knot marginals are N(0, variance)
        cfg = GPPriorConfig(variance=0.8, rescale=6.0)
        rng = np.random.default_rng(0)
        draws = np.array([sample_path(cfg, 64, rng).values[32] for _ in range(600)])
        assert abs(draws.std() - math.sqrt(0.8)) < 0.1

    def test_transfer_round_trip(self):
        mu = sample_path(GPPriorConfig(rescale=5.0), 32, np.random.default_rng(2))
        assert isinstance(mu, TransferFunction)
        np.testing.assert_array_equal(mu.knots, np.linspace(0.0, 1.0, 32))
        assert mu(np.array([0.0]))[0] == mu.values[0]
        assert mu(np.array([1.0]))[0] == mu.values[-1]


class TestConditionalPath:
    """Draws pinned through anchor knots."""

    def test_anchors_hit_exactly(self):
        n = 65
        knots = np.linspace(0.0, 1.0, n)
        target = np.sin(2 * np.pi * knots)
        idx = np.arange(0, n, 2)
        draw = sample_path_conditional(
            GPPriorConfig(rescale=8.0), n, idx, target[idx], np.random.default_rng(5)
        )
        np.testing.assert_array_equal(draw.values[idx], target[idx])

    def test_zero_noise_gives_interpolating_mean(self):
        # with the fluctuation zeroed out, the free knots carry the
        # conditional mean, which interpolates a dense smooth anchor set
        n = 65
        knots = np.linspace(0.0, 1.0, n)
        target = np.sin(2 * np.pi * knots)
        idx = np.arange(0, n, 2)
        draw = sample_path_conditional(
            GPPriorConfig(rescale=8.0), n, idx, target[idx], ZeroNoise()
        )
        assert np.max(np.abs(draw.values - target)) < 1e-3

    def test_all_knots_anchored(self):
        n = 16
        values = np.linspace(-1.0, 1.0, n)
        cfg = GPPriorConfig(rescale=5.0)
        draw = sample_path_conditional(
            cfg, n, np.arange(n), values, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(draw.values, values)

    def test_anchor_validation(self):
        cfg = GPPriorConfig(rescale=5.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="anchor"):
            sample_path_conditional(cfg, 32, np.array([]), np.array([]), rng)
        with pytest.raises(ValueError, match="anchor"):
            sample_path_conditional(cfg, 32, np.array([0, 1]), np.array([0.5]), rng)
        with pytest.raises(ValueError, match="n_knots"):
            sample_path_conditional(cfg, 8, np.array([0]), np.array([0.5]), rng)

    def test_reproducible(self):
        idx = np.array([0, 16, 31])
        vals = np.array([0.0, 0.5, 1.0])
        a = sample_path_conditional(
            GPPriorConfig(rescale=5.0), 32, idx, vals, np.random.default_rng(7)
        )
        b = sample_path_conditional(
            GPPriorConfig(rescale=5.0), 32, idx, vals, np.random.default_rng(7)
        )
        np.testing.assert_array_equal(a.values, b.values)


class TestScalarPriors:
    """Fixed rescale and noise-scale draws."""

    def test_fixed_rescale_is_deterministic(self):
        # the rescale is read from the config, never drawn: a prior density
        # draw consumes exactly one path draw and one noise-scale draw
        cfg = GPPriorConfig(rescale=12.5)
        spec = GridSpec(-30.0, 30.0, 2048)
        rng = np.random.default_rng(0)
        mu = sample_path(cfg, 64, rng)
        expected = mixture_density(mu, sample_sigma(cfg, rng), spec)
        out = prior_draw_density(cfg, spec, np.random.default_rng(0))
        np.testing.assert_array_equal(out.values, expected.values)

    def test_inverse_gamma_sigma_mean(self):
        # inverse-gamma(3, 1) has mean rate / (shape - 1) = 1/2
        cfg = GPPriorConfig(sigma_prior=(3.0, 1.0))
        rng = np.random.default_rng(3)
        draws = np.array([sample_sigma(cfg, rng) for _ in range(4000)])
        assert draws.mean() == pytest.approx(0.5, abs=0.05)
        assert np.all(draws > 0)


class TestPriorDrawDensity:
    """Induced prior on densities."""

    def test_draw_is_normalized_density(self):
        cfg = GPPriorConfig(rescale=5.0)
        out = prior_draw_density(
            cfg, GridSpec(-30.0, 30.0, 4096), np.random.default_rng(1)
        )
        assert out.integral() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.values >= 0)

    def test_reproducible(self):
        cfg = GPPriorConfig(rescale=5.0)
        spec = GridSpec(-30.0, 30.0, 2048)
        a = prior_draw_density(cfg, spec, np.random.default_rng(9))
        b = prior_draw_density(cfg, spec, np.random.default_rng(9))
        np.testing.assert_array_equal(a.values, b.values)
