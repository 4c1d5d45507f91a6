"""GP transfer prior: kernel algebra, path sampling, and conditioning.

Oracles
-------
* The squared-exponential kernel is symmetric positive semi-definite with
  diagonal equal to the marginal variance, so path values at any single
  knot are N(0, variance); 600 draws pin the sample standard deviation.
* The conditional mean, which a draw with its normals zeroed out returns,
  interpolates densely anchored smooth targets closely.
* The batched conditional equals draws built one at a time from the same
  generator: the kernel blocks, Choleskys and solves of one draw, repeated
  per draw, as the support probe computed them before batching.
* ``knot_cholesky`` is, byte for byte, the escalated factor of the kernel on
  a transfer's own knots, so every GP draw lives on the transfer's grid.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

from nllvm_lab.gp_prior import (
    JITTER,
    MAX_PATH_KNOTS,
    MIN_PATH_KNOTS,
    RESCALE,
    SIGMA_PRIOR,
    VARIANCE,
    ConditioningError,
    _chol_with_escalation,
    knot_cholesky,
    sample_path_conditional,
    se_kernel,
)
from nllvm_lab.transfer_map import TransferFunction


class TestConfigValidation:
    """The prior's numbers, fixed module constants for every chain and command."""

    def test_defaults_are_valid(self):
        assert (VARIANCE, RESCALE, SIGMA_PRIOR, JITTER) == (1.0, 20.0, (3.0, 1.0), 1e-8)
        assert VARIANCE > 0 and RESCALE > 0 and min(SIGMA_PRIOR) > 0

    def test_jitter_window_scales_with_variance(self):
        # the jitter stays negligible against the marginal variance
        assert 0 < JITTER <= 1e-6 * VARIANCE


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
            _chol_with_escalation(bad)

    def test_psd_matrix_factorizes(self):
        x = np.linspace(0.0, 1.0, 64)
        k = se_kernel(x, x, 1.0, 20.0)
        chol = _chol_with_escalation(k)
        np.testing.assert_allclose(chol @ chol.T, k, atol=1e-6)


class TestKnotCholesky:
    """The GP factor is built on the knots a transfer of the same size has."""

    # the Gibbs chain's test size, the Hellinger check, the support probe and
    # the logsup check, each with a (variance, rescale) its caller uses
    @pytest.mark.parametrize(
        "n_knots, variance, a",
        [(16, VARIANCE, RESCALE), (64, 0.5, 15.0), (65, VARIANCE, 10.0), (256, 1.0, 2.0)],
    )
    def test_is_the_factor_on_the_transfer_knots(self, n_knots, variance, a):
        x = TransferFunction(np.zeros(n_knots)).knots
        want = _chol_with_escalation(se_kernel(x, x, variance, a))
        got = knot_cholesky(n_knots, variance, a)
        assert got.shape == want.shape == (n_knots, n_knots)
        assert got.tobytes() == want.tobytes()


class TestSamplePath:
    """Path draws on the uniform knot grid."""

    def test_knot_count_bounds(self):
        rng = np.random.default_rng(0)
        anchor = (np.array([0]), np.array([0.5]))
        with pytest.raises(ValueError, match="n_knots"):
            sample_path_conditional(5.0, MIN_PATH_KNOTS - 1, *anchor, rng, 1)
        with pytest.raises(ValueError, match="n_knots"):
            sample_path_conditional(5.0, MAX_PATH_KNOTS + 1, *anchor, rng, 1)

    def test_marginal_standard_deviation(self):
        # single-knot marginals of chol @ z, the unconditional draw the
        # harness makes, are N(0, variance)
        knots = np.linspace(0.0, 1.0, 64)
        chol = _chol_with_escalation(se_kernel(knots, knots, 0.8, 6.0))
        draws = chol @ np.random.default_rng(0).standard_normal((64, 600))
        assert abs(draws[32].std() - math.sqrt(0.8)) < 0.1



class TestConditionalPath:
    """Draws pinned through anchor knots."""

    def test_anchors_hit_exactly(self):
        n = 65
        knots = np.linspace(0.0, 1.0, n)
        target = np.sin(2 * np.pi * knots)
        idx = np.arange(0, n, 2)
        mean, draws = sample_path_conditional(
            8.0, n, idx, target[idx], np.random.default_rng(5), 3
        )
        np.testing.assert_array_equal(mean[idx], target[idx])
        for draw in draws:
            np.testing.assert_array_equal(draw[idx], target[idx])

    def test_zero_noise_gives_interpolating_mean(self):
        # the conditional mean (a draw with its fluctuation zeroed out)
        # interpolates a dense smooth anchor set
        n = 65
        knots = np.linspace(0.0, 1.0, n)
        target = np.sin(2 * np.pi * knots)
        idx = np.arange(0, n, 2)
        mean, _ = sample_path_conditional(
            8.0, n, idx, target[idx], np.random.default_rng(5), 1
        )
        assert np.max(np.abs(mean - target)) < 1e-3

    def test_all_knots_anchored(self):
        n = 16
        values = np.linspace(-1.0, 1.0, n)
        rng = np.random.default_rng(0)
        mean, draws = sample_path_conditional(5.0, n, np.arange(n), values, rng, 2)
        np.testing.assert_array_equal(mean, values)
        np.testing.assert_array_equal(draws, [values, values])
        # nothing is left to draw, so no normals are taken
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()

    def test_anchor_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="anchor"):
            sample_path_conditional(5.0, 32, np.array([]), np.array([]), rng, 1)
        with pytest.raises(ValueError, match="anchor"):
            sample_path_conditional(5.0, 32, np.array([0, 1]), np.array([0.5]), rng, 1)
        with pytest.raises(ValueError, match="n_knots"):
            sample_path_conditional(5.0, 8, np.array([0]), np.array([0.5]), rng, 1)

    def test_rescale_must_be_finite_positive(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rescale"):
                sample_path_conditional(bad, 32, np.array([0]), np.array([0.5]), rng, 1)

    def test_reproducible(self):
        idx = np.array([0, 16, 31])
        vals = np.array([0.0, 0.5, 1.0])
        a = sample_path_conditional(5.0, 32, idx, vals, np.random.default_rng(7), 4)
        b = sample_path_conditional(5.0, 32, idx, vals, np.random.default_rng(7), 4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


def _one_draw_at_a_time(rescale, n_knots, anchor_idx, anchor_values, z):
    """One conditional draw from the normals ``z``, all factorizations rebuilt."""
    knots = np.linspace(0.0, 1.0, n_knots)
    free = np.setdiff1d(np.arange(n_knots), anchor_idx)
    k_aa = se_kernel(knots[anchor_idx], knots[anchor_idx], 1.0, rescale)
    chol_aa = _chol_with_escalation(k_aa)
    k_fa = se_kernel(knots[free], knots[anchor_idx], 1.0, rescale)
    k_ff = se_kernel(knots[free], knots[free], 1.0, rescale)
    mean_f = k_fa @ cho_solve((chol_aa, True), anchor_values)
    chol_f = _chol_with_escalation(k_ff - k_fa @ cho_solve((chol_aa, True), k_fa.T))
    values = np.empty(n_knots)
    values[anchor_idx] = anchor_values
    values[free] = mean_f + chol_f @ z
    return values


class TestBatchedConditional:
    """One factorization for all draws gives the one-at-a-time draws."""

    @pytest.mark.parametrize("delta", [0.3, 0.1])
    def test_matches_one_draw_at_a_time(self, delta):
        # the support probe's layout: 65 knots, every other one anchored
        n, n_draws = 65, 200
        knots = np.linspace(0.0, 1.0, n)
        target = np.tanh(3.0 * (knots - 0.5))
        idx = np.arange(0, n, 2)
        n_free = n - idx.size
        batched_rng, single_rng = np.random.default_rng(11), np.random.default_rng(11)

        mean, draws = sample_path_conditional(
            1.0 / delta, n, idx, target[idx], batched_rng, n_draws
        )
        singles = np.array([
            _one_draw_at_a_time(
                1.0 / delta, n, idx, target[idx], single_rng.standard_normal(n_free)
            )
            for _ in range(n_draws)
        ])

        assert mean.shape == (n,) and draws.shape == (n_draws, n)
        np.testing.assert_allclose(draws, singles, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            mean, _one_draw_at_a_time(1.0 / delta, n, idx, target[idx], np.zeros(n_free))
        )
        np.testing.assert_array_equal(mean[idx], target[idx])
        np.testing.assert_array_equal(draws[:, idx], np.tile(target[idx], (n_draws, 1)))
        # the next draw of the generator is the same after both
        assert batched_rng.standard_normal(8).tolist() == (
            single_rng.standard_normal(8).tolist()
        )
