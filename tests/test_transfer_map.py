"""Transfer functions, quantile maps, and the latent-mixture marginal.

The central oracle: pushing a uniform latent through a constant transfer c
and adding N(0, sigma^2) noise gives exactly N(c, sigma^2), and pushing it
through the quantile map of f0 gives the Gaussian smoothing of f0 (checked
against direct convolution).
"""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import logsumexp, ndtr
from scipy.stats import norm

from nllvm_lab.cli import _truth_density
from nllvm_lab.grid_density import _SQRT_2PI, GridDensity, GridSpec, convolve_gaussian
from nllvm_lab.transfer_map import (
    _SERIES_RISE,
    FLAT_RISE,
    CoverageError,
    TransferFunction,
    mixture_density,
    mixture_vjp,
    quantile_of,
    segment_masses,
)


class TestTransferFunction:
    """Value validation, the uniform knot grid and piecewise-linear evaluation."""

    def test_evaluates_by_linear_interpolation(self):
        mu = TransferFunction(np.array([0.0, 2.0, 3.0]))
        assert mu(0.25) == pytest.approx(1.0)
        assert mu(0.75) == pytest.approx(2.5)
        np.testing.assert_allclose(mu(np.array([0.0, 1.0])), [0.0, 3.0])

    def test_knots_are_the_uniform_grid(self):
        # bit for bit np.linspace(0, 1, K), the grid that the Gibbs transfer
        # step's design matrix assumes
        for k in (2, 3, 16, 64, 513):
            knots = TransferFunction(np.random.default_rng(k).normal(size=k)).knots
            assert knots.tobytes() == np.linspace(0.0, 1.0, k).tobytes()
        for bad in (np.zeros((2, 3)), np.array(0.5), np.array([0.5])):
            with pytest.raises(ValueError, match="1-D array of >= 2"):
                TransferFunction(bad)

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TransferFunction(np.array([0.0, np.inf]))

    def test_sup_distance_exact_on_union_of_knots(self):
        # gap maximized at x = 0.5, a knot of one function only
        a = TransferFunction(np.array([0.0, 1.0, 0.0]))
        b = TransferFunction(np.array([0.0, 0.0]))
        assert a.sup_distance(b) == pytest.approx(1.0)
        assert b.sup_distance(a) == pytest.approx(1.0)


class TestQuantileOf:
    """Quantile transfer against scipy's exact normal quantile."""

    def test_matches_normal_ppf_in_the_bulk(self):
        spec = GridSpec(-2.0, 3.0, 8192)
        f = GridDensity(spec.lo, spec.hi, norm.pdf(spec.points(), 0.5, 0.3))
        mu = quantile_of(f, n_knots=129)
        interior = (mu.knots >= 0.05) & (mu.knots <= 0.95)
        exact = norm.ppf(mu.knots[interior], 0.5, 0.3)
        assert np.max(np.abs(mu.values[interior] - exact)) < 2e-3

    def test_values_clipped_to_window(self):
        spec = GridSpec(-2.0, 3.0, 2048)
        f = GridDensity(spec.lo, spec.hi, norm.pdf(spec.points(), 0.5, 0.3))
        mu = quantile_of(f, n_knots=64)
        assert mu.lo >= spec.lo and mu.hi <= spec.hi
        assert np.all(np.diff(mu.values) >= 0)

    def test_minimum_knot_count(self):
        spec = GridSpec(0.0, 1.0, 256)
        f = GridDensity(spec.lo, spec.hi, np.ones(256))
        with pytest.raises(ValueError, match="n_knots"):
            quantile_of(f, n_knots=8)

    def test_flat_cdf_region_warns(self):
        # the bimodal truth is zero between its modes, so its CDF is flat
        # at 1/2 there
        with pytest.warns(UserWarning, match="flat CDF region"):
            quantile_of(_truth_density("bimodal", 1024), n_knots=64)

    def test_zero_tails_do_not_warn(self):
        # the bump truth is zero outside [0.1, 0.9], but only in its tails,
        # where the clipped levels never land
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quantile_of(_truth_density("bump", 1024), n_knots=64)

    @pytest.mark.parametrize("n", [2048, 8192])
    def test_positive_density_does_not_warn(self, n):
        # tails below float spacing repeat CDF values, but no stretch is flat:
        # the README truth N(0.5, 0.25^2) and N(0.5, 0.3^2) on [-2, 3]
        spec = GridSpec(-2.0, 3.0, n)
        x = spec.points()
        for values in (np.exp(-((x - 0.5) ** 2) / 0.125), norm.pdf(x, 0.5, 0.3)):
            f = GridDensity(spec.lo, spec.hi, values)
            assert np.all(f.values > 0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                quantile_of(f, n_knots=64)


class TestMixtureDensity:
    """Marginal density of the noisy latent pushforward."""

    def test_constant_transfer_gives_exact_normal(self):
        flat = TransferFunction(np.full(16, 0.4))
        out = mixture_density(flat, 0.3, GridSpec(-3.0, 4.0, 2048))
        exact = norm.pdf(out.grid, 0.4, 0.3)
        assert np.max(np.abs(out.values - exact)) < 1e-12

    def test_quantile_transfer_matches_convolution(self):
        # the defining identity: quantile pushforward equals smoothing;
        # the gap is the piecewise-linear quantile interpolation error and
        # shrinks as the knot mesh refines
        spec = GridSpec(-2.0, 3.0, 4096)
        f0 = GridDensity(spec.lo, spec.hi, norm.pdf(spec.points(), 0.5, 0.25))
        conv = convolve_gaussian(f0, 0.1)

        def gap(n_knots: int) -> float:
            mix = mixture_density(quantile_of(f0, n_knots=n_knots), 0.1, spec)
            return float(np.max(np.abs(mix.values - conv.values)))

        coarse, fine = gap(512), gap(2048)
        assert coarse < 5e-3
        assert fine < 1e-3
        assert fine < coarse / 3.0

    def test_coverage_error_reports_lost_mass(self):
        mu = TransferFunction(np.array([0.0, 1.0]))
        with pytest.raises(CoverageError, match="lost mass"):
            mixture_density(mu, 0.5, GridSpec(0.0, 1.0, 256))

    def test_wide_window_always_covered(self):
        mu = TransferFunction(np.array([0.0, 1.0]))
        out = mixture_density(mu, 0.2, GridSpec(-1.7, 2.7, 1024))
        assert trapezoid(out.values, dx=out.spacing) == pytest.approx(1.0, abs=1e-12)
        assert out.mass_loss < 1e-4

    def test_sigma_must_be_positive(self):
        # NaN fails every comparison, so it must not read as "not <= 0"
        mu = TransferFunction(np.zeros(2))
        for bad in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                mixture_density(mu, bad, GridSpec(-2.0, 2.0, 256))

    def test_exact_kernel_agrees_with_fixed_quadrature(self):
        mu = TransferFunction(np.sin(np.linspace(0.0, 2.5, 17)))
        spec = GridSpec(-3.0, 4.0, 1024)
        fixed = _midpoint_mixture(mu, 0.2, spec.points(), 8192)
        exact = mixture_density(mu, 0.2, spec)
        assert np.max(np.abs(fixed - exact.values)) < 1e-5


def _midpoint_mixture(mu, sigma, y, m):
    """Reference: m-point midpoint quadrature of int phi_sigma(y - mu(x)) dx."""
    t = mu((np.arange(m) + 0.5) / m)
    acc = np.zeros_like(y)
    for start in range(0, m, 4096):
        block = t[start : start + 4096]
        acc += np.exp(-0.5 * ((y[:, None] - block[None, :]) / sigma) ** 2).sum(axis=1)
    return acc / (m * math.sqrt(2.0 * math.pi) * sigma)


def _gp_transfer(rng, n_knots):
    """A random GP path with a flat, a near-flat and a falling stretch."""
    knots = np.linspace(0.0, 1.0, n_knots)
    cov = np.exp(-0.5 * ((knots[:, None] - knots[None, :]) * 6.0) ** 2)
    chol = np.linalg.cholesky(cov + 1e-8 * np.eye(n_knots))
    v = chol @ rng.standard_normal(n_knots)
    k = n_knots // 4
    v[k : k + 3] = v[k]  # two flat segments
    v[2 * k + 1] = v[2 * k] + 1e-9  # a near-flat segment
    return TransferFunction(v)


@st.composite
def _mixed_transfers(draw):
    """sigma and a transfer with rising, falling, flat (< FLAT_RISE sigma) and
    series-branch (< _SERIES_RISE sigma) segments, at least one of each.

    Each small rise keeps a factor of 2 from the thresholds, so rounding in
    the knot values cannot move a segment across one."""
    sigma = draw(st.floats(0.05, 1.0))
    kinds = ["rise", "fall", "flat", "series"]
    kinds += draw(st.lists(st.sampled_from(kinds), max_size=12))
    values = [draw(st.floats(-2.0, 2.0))]
    for kind in draw(st.permutations(kinds)):
        if kind == "rise":
            step = draw(st.floats(0.05, 1.0))
        elif kind == "fall":
            step = -draw(st.floats(0.05, 1.0))
        else:
            top = FLAT_RISE / 2.0 if kind == "flat" else _SERIES_RISE / 2.0
            bottom = 0.0 if kind == "flat" else 2.0 * FLAT_RISE
            step = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(bottom, top)) * sigma
        values.append(values[-1] + step)
    return TransferFunction(np.array(values)), sigma


class TestSegmentMasses:
    """The closed-form Phi-difference kernel against midpoint quadrature."""

    @pytest.mark.parametrize("n_knots", [17, 65])
    def test_masses_match_midpoint_reference(self, n_knots):
        # 2^16 midpoints split evenly over the segments give a per-segment
        # reference; GP paths are non-monotone
        rng = np.random.default_rng(n_knots)
        m = 1 << 16
        per_seg = m // (n_knots - 1)
        for sigma in (0.05, 0.3):
            mu = _gp_transfer(rng, n_knots)
            y = np.linspace(mu.lo - 8 * sigma, mu.hi + 8 * sigma, 257)
            t = mu((np.arange(m) + 0.5) / m).reshape(n_knots - 1, per_seg)
            ref = np.exp(-0.5 * ((y[None, :, None] - t[:, None]) / sigma) ** 2).sum(axis=2)
            ref /= m * math.sqrt(2.0 * math.pi) * sigma
            masses = segment_masses(mu, sigma, y)
            assert masses.shape == (n_knots - 1, y.size)
            assert np.max(np.abs(masses - ref)) < 1e-6

    @settings(max_examples=40)
    @given(
        values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=20),
        sigma=st.floats(0.05, 1.0),
    )
    def test_columns_are_mixture_density(self, values, sigma):
        # any path, rises and falls alike: masses are non-negative and each
        # column sums to the mixture's value up to its normalization
        mu = TransferFunction(np.array(values))
        spec = GridSpec(mu.lo - 10.0 * sigma, mu.hi + 10.0 * sigma, 256)
        masses = segment_masses(mu, sigma, spec.points())
        assert np.all(masses >= 0.0)
        cols = masses.sum(axis=0)
        dens = mixture_density(mu, sigma, spec)
        np.testing.assert_allclose(
            dens.values * trapezoid(cols, dx=spec.spacing), cols, rtol=1e-12, atol=0
        )

    @settings(max_examples=40, deadline=None)
    @given(case=_mixed_transfers())
    def test_column_sum_matches_exact_summation(self, case):
        # stated tolerance: a float64 sum of at most 16 non-negative terms,
        # in any order, is within 16 * 1.1e-16 < 2e-15 relative of their
        # exact sum, so the mixture agrees with the math.fsum reference at
        # rtol 1e-14 at every point, tails included
        mu, sigma = case
        spec = GridSpec(mu.lo - 12.0 * sigma, mu.hi + 12.0 * sigma, 2048)
        masses = segment_masses(mu, sigma, spec.points())
        ref = np.array([math.fsum(col) for col in masses.T])
        dens = mixture_density(mu, sigma, spec)
        np.testing.assert_allclose(
            dens.values, GridDensity(spec.lo, spec.hi, ref).values, rtol=1e-14, atol=0
        )

    def test_flat_segment_is_its_normal_limit(self):
        # segment 1 is flat and segment 2 rises 5e-9 sigma, both of width 1/4
        mu = TransferFunction(np.array([0.0, 1.0, 1.0, 1.0 + 1e-9, 2.0]))
        y = np.linspace(-1.0, 2.0, 31)
        masses = segment_masses(mu, 0.2, y)
        np.testing.assert_allclose(masses[1], 0.25 * norm.pdf(y, 1.0, 0.2), rtol=1e-12)
        np.testing.assert_allclose(masses[2], 0.25 * norm.pdf(y, 1.0 + 5e-10, 0.2), rtol=1e-10)

    def test_tail_keeps_relative_accuracy(self):
        # y at least 10 sigma beyond range(mu): both Phi values of every
        # segment are within 1e-23 of 1 (or of 0), and the density is
        # compared in log space with a log-sum-exp midpoint reference
        mu = TransferFunction(0.5 * np.sin(np.linspace(0.0, 2.5, 17)))
        sigma = 0.2
        y = np.array([mu.hi + 10 * sigma, mu.hi + 25 * sigma, mu.lo - 10 * sigma, mu.lo - 25 * sigma])
        m = 1 << 16
        t = mu((np.arange(m) + 0.5) / m)
        log_ref = logsumexp(-0.5 * ((y[:, None] - t[None, :]) / sigma) ** 2, axis=1)
        log_ref -= math.log(m * math.sqrt(2.0 * math.pi) * sigma)
        dens = segment_masses(mu, sigma, y).sum(axis=0)
        assert np.all(dens > 0)
        np.testing.assert_allclose(np.log(dens), log_ref, rtol=0, atol=1e-6)

    def test_mixture_is_the_column_sum_of_segment_masses(self):
        # the window reaches 60 sigma past range(mu), where the mixture
        # skips evaluation; the skipped points must be the exact zeros
        mu = _gp_transfer(np.random.default_rng(9), 33)
        sigma = 0.05
        spec = GridSpec(mu.lo - 60 * sigma, mu.hi + 60 * sigma, 1500)
        cols = segment_masses(mu, sigma, spec.points()).sum(axis=0)
        assert np.sum(cols == 0.0) > 300
        out = mixture_density(mu, sigma, spec)
        np.testing.assert_array_equal(out.values, GridDensity(spec.lo, spec.hi, cols).values)

    def test_mass_conserved_on_minimal_window(self):
        rng = np.random.default_rng(5)
        sigma = 0.1
        mu = _gp_transfer(rng, 64)
        spec = GridSpec(mu.lo - 8 * sigma, mu.hi + 8 * sigma, 2048)
        out = mixture_density(mu, sigma, spec)
        assert abs(out.mass_loss) < 1e-9

    @settings(max_examples=40)
    @given(
        values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=20),
        sigma=st.floats(0.05, 1.0),
    )
    def test_mass_conserved_on_any_minimal_window(self, values, sigma):
        # the window is exactly range(mu) +- 8 sigma, at least 16 points per sigma
        mu = TransferFunction(np.array(values))
        spec = GridSpec(mu.lo - 8.0 * sigma, mu.hi + 8.0 * sigma, 2048)
        assert abs(mixture_density(mu, sigma, spec).mass_loss) < 1e-9

    def test_one_table_per_call(self):
        # stated bound: the K x n Phi table plus at most a quarter table of
        # temporaries; a second table for the difference would give about 2
        n_knots, n = 65, 4096
        mu = TransferFunction(np.linspace(-1.0, 1.0, n_knots))
        y = np.linspace(-2.0, 2.0, n)
        segment_masses(mu, 0.3, y)  # warm caches outside the traced call
        tracemalloc.start()
        try:
            segment_masses(mu, 0.3, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n_knots * n * 8

    @settings(max_examples=40, deadline=None)
    @given(case=_mixed_transfers())
    def test_in_place_difference_is_the_two_table_difference(self, case):
        # tolerance 0: every entry keeps the bits of the expression that
        # differences the Phi table into a second table
        mu, sigma = case
        y = np.linspace(mu.lo - 12.0 * sigma, mu.hi + 12.0 * sigma, 1024)
        masses = segment_masses(mu, sigma, y)
        assert masses.flags.c_contiguous
        assert masses.shape == (mu.values.size - 1, y.size)
        np.testing.assert_array_equal(masses, _two_table_masses(mu, sigma, y))


def _two_table_masses(mu, sigma, y):
    """:func:`segment_masses` with its difference in a second table."""
    v = mu.values
    dx = np.diff(mu.knots)
    rise = np.abs(np.diff(v)) / sigma
    flat = rise < FLAT_RISE
    side = np.where(y > np.median(v), -1.0 / sigma, 1.0 / sigma)
    cdf = ndtr((y[None, :] - v[:, None]) * side)
    out = np.abs(cdf[:-1] - cdf[1:])
    out *= (dx / (sigma * np.where(flat, 1.0, rise)))[:, None]
    mid = 0.5 * (v[:-1] + v[1:])[flat]
    z = (y[None, :] - mid[:, None]) / sigma
    out[flat] = np.exp(-0.5 * z * z) * (dx[flat] / (_SQRT_2PI * sigma))[:, None]
    return out


def _vjp_path(rng, n_knots, sigma):
    """A GP path with flat segments (rise 0 and 1e-9) and near-flat ones
    rising 2e-4 sigma, -8e-3 sigma and 1e-3 sigma."""
    v = _gp_transfer(rng, n_knots).values
    k = n_knots // 4
    for j, rise in ((3 * k, 2e-4), (3 * k + 1, -8e-3), (3 * k + 3, 1e-3)):
        v[j + 1] = v[j] + rise * sigma
    return TransferFunction(v)


class TestMixtureVjp:
    """Weighted derivatives of the unnormalized mixture in the knots and sigma."""

    @pytest.mark.parametrize("n_knots", [17, 65])
    @pytest.mark.parametrize("sigma", [0.05, 0.3])
    def test_matches_central_differences(self, n_knots, sigma):
        rng = np.random.default_rng(n_knots)
        mu = _vjp_path(rng, n_knots, sigma)
        rise = np.abs(np.diff(mu.values)) / sigma
        assert np.sum(rise < FLAT_RISE) >= 3 and np.sum((rise > FLAT_RISE) & (rise < 1e-2)) == 3
        assert np.any(np.diff(mu.values) < -1e-2 * sigma)
        spec = GridSpec(mu.lo - 10.0 * sigma, mu.hi + 10.0 * sigma, 400)
        r = rng.standard_normal(spec.n)

        def weighted(p):
            path = TransferFunction(p[:-1])
            return segment_masses(path, p[-1], spec.points()).sum(axis=0) @ r

        y = spec.points()
        grad_v, grad_sigma = mixture_vjp(mu, sigma, y, segment_masses(mu, sigma, y), r)
        # fourth-order central differences.  A knot moves by at most 8e-6
        # sigma, so no segment crosses FLAT_RISE; sigma scales every rise
        # alike, so its step can be larger and beat the rounding of the
        # near-flat masses
        p = np.append(mu.values, sigma)
        steps = np.diag(np.append(np.full(mu.values.size, 4e-6), 1e-4) * sigma)
        fd = np.array([
            (8.0 * (weighted(p + e) - weighted(p - e))
             - (weighted(p + 2.0 * e) - weighted(p - 2.0 * e))) / (12.0 * e.max())
            for e in steps
        ])
        err = np.abs(np.append(grad_v, grad_sigma) - fd)
        assert np.max(err) <= 1e-6 * np.max(np.abs(fd))

    @settings(max_examples=40, deadline=None)
    @given(case=_mixed_transfers(), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_extended_precision(self, case, seed):
        # the same closed forms and series in np.longdouble (64-bit
        # mantissa; the knot gradient is rounded to float64 only as it is
        # stored) on the same masses isolate the rounding of the float64
        # contractions, masses @ r among them.  Stated tolerance: each
        # contraction over the grid rounds at about 1e-16 * sqrt(n) of its
        # terms, and the divided differences divide by rises no smaller than
        # _SERIES_RISE, so every component stays within 1e-12 of the largest
        mu, sigma = case
        y = GridSpec(mu.lo - 10.0 * sigma, mu.hi + 10.0 * sigma, 400).points()
        r = np.random.default_rng(seed).standard_normal(y.size)
        masses = segment_masses(mu, sigma, y)
        grad_v, grad_sigma = mixture_vjp(mu, sigma, y, masses, r)
        ld = np.longdouble
        ref_v, ref_sigma = mixture_vjp(mu, ld(sigma), y.astype(ld), masses.astype(ld), r.astype(ld))
        ref = np.append(ref_v, ref_sigma)
        err = np.abs(np.append(grad_v, grad_sigma) - ref)
        assert np.max(err) <= 1e-12 * np.max(np.abs(ref))
