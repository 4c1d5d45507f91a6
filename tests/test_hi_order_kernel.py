"""Higher-order kernel iterates: closed form, rates, and diagnostics.

Oracles
-------
* Coefficient patterns: the order-1 iterate is 2 f0 - phi*f0 and the
  order-2 iterate is 3 f0 - 3 phi*f0 + phi_{sqrt 2}*f0, assembled in the
  tests directly from single convolutions.
* Order j = 0 Taylor law: phi_sigma*f0 - f0 = (sigma^2/2) f0'' + O(sigma^4),
  with f0'' analytic for a Gaussian f0.
* Order j = 1 Richardson check: halving sigma divides the smoothing error
  by about 2^4.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from nllvm_lab.grid_density import (
    GridDensity,
    GridSpec,
    convolve_gaussian,
    convolve_values,
    smooth_bump,
)
from nllvm_lab.hi_order_kernel import (
    FbetaResult,
    SigmaTooLargeError,
    approx_order_experiment,
    fbeta_closed_form,
    fbeta_iterative,
    kl_rate_experiment,
    negative_mass,
)


@pytest.fixture(scope="module")
def wide_bump() -> GridDensity:
    """Gentle smooth bump with room for repeated smoothing."""
    return smooth_bump(GridSpec(-4.0, 4.0, 8192), -3.0, 3.0, 4.0)


class TestClosedFormCoefficients:
    """Binomial closed form assembled by hand from single convolutions."""

    SIGMA = 0.05

    def test_order_one_is_two_f0_minus_smoothed(self, wide_bump):
        h = wide_bump.spacing
        manual = 2.0 * wide_bump.values - convolve_values(
            wide_bump.values, h, self.SIGMA
        )
        closed = fbeta_closed_form(wide_bump, self.SIGMA, 1).raw
        iterative = fbeta_iterative(wide_bump, self.SIGMA, 1).raw
        np.testing.assert_allclose(closed, manual, atol=1e-12)
        np.testing.assert_allclose(iterative, manual, atol=1e-12)

    def test_order_two_coefficients(self, wide_bump):
        h = wide_bump.spacing
        c1 = convolve_values(wide_bump.values, h, self.SIGMA)
        c2 = convolve_values(wide_bump.values, h, self.SIGMA * math.sqrt(2.0))
        manual = 3.0 * wide_bump.values - 3.0 * c1 + c2
        closed = fbeta_closed_form(wide_bump, self.SIGMA, 2).raw
        iterative = fbeta_iterative(wide_bump, self.SIGMA, 2).raw
        np.testing.assert_allclose(closed, manual, atol=1e-12)
        np.testing.assert_allclose(iterative, manual, atol=1e-12)

    def test_order_zero_is_f0_itself(self, wide_bump):
        res = fbeta_closed_form(wide_bump, self.SIGMA, 0)
        np.testing.assert_array_equal(res.raw, wide_bump.values)
        assert res.negative_mass == 0.0

    def test_negative_order_rejected(self, wide_bump):
        with pytest.raises(ValueError, match="non-negative"):
            fbeta_iterative(wide_bump, self.SIGMA, -1)
        with pytest.raises(ValueError, match="non-negative"):
            fbeta_closed_form(wide_bump, self.SIGMA, -1)

    def test_result_density_is_normalized(self, wide_bump):
        res = fbeta_iterative(wide_bump, self.SIGMA, 2)
        assert isinstance(res, FbetaResult)
        dens = res.density
        assert trapezoid(dens.values, dx=dens.spacing) == pytest.approx(1.0, abs=1e-12)


class TestTaylorOracles:
    """Analytic small-bandwidth expansions of the smoothing error."""

    def test_order_zero_second_derivative_law(self):
        # for Gaussian f0, f0'' is analytic: f0 * ((x-m)^2/s^4 - 1/s^2)
        spec = GridSpec(-2.0, 3.0, 4096)
        x = spec.points()
        s = 0.25
        f0 = GridDensity(spec.lo, spec.hi, np.exp(-((x - 0.5) ** 2) / (2 * s**2)))
        curvature = f0.values * (((x - 0.5) / s**2) ** 2 - 1.0 / s**2)
        for sigma in (0.02, 0.04):
            conv = convolve_gaussian(f0, sigma)
            taylor = 0.5 * sigma**2 * curvature
            resid = np.max(np.abs(conv.values - f0.values - taylor))
            assert resid < 0.05 * np.max(np.abs(taylor))

    def test_order_one_richardson_ratio(self, wide_bump):
        # the j = 1 smoothing error scales like sigma^4 on the interior
        mask = wide_bump.values >= 1e-3

        def err(sigma: float) -> float:
            raw = fbeta_iterative(wide_bump, sigma, 1).raw
            back = convolve_values(raw, wide_bump.spacing, sigma)
            return float(np.max(np.abs(back - wide_bump.values)[mask]))

        ratio = err(0.1) / err(0.05)
        assert 12.0 < ratio < 20.0


class TestNegativeMassDiagnostics:
    """Signed-iterate bookkeeping: mass closure and the bandwidth guard."""

    def test_negative_mass_of_signed_array(self):
        h = 1.0 / 63
        raw = np.ones(64)
        raw[10:20] = -2.0
        expected = -trapezoid(np.minimum(raw, 0.0), dx=h)
        assert negative_mass(raw, h) == pytest.approx(expected)
        assert negative_mass(np.ones(64), h) == 0.0

    def test_negative_mass_grows_with_bandwidth(self, wide_bump):
        negs = [
            fbeta_iterative(wide_bump, sigma, 1).negative_mass
            for sigma in (0.02, 0.05, 0.08)
        ]
        assert all(n >= 0 for n in negs)
        assert negs[0] < negs[1] < negs[2]

    def test_signed_iterate_mass_closure(self, wide_bump):
        # each correction step preserves total mass up to edge leakage
        for j in (1, 2, 3):
            raw = fbeta_iterative(wide_bump, 0.05, j).raw
            assert abs(trapezoid(raw, dx=wide_bump.spacing) - 1.0) < 1e-12

    def test_sigma_too_large_raises(self):
        sharp = smooth_bump(GridSpec(-1.0, 2.0, 2048), 0.1, 0.9, 2.0)
        with pytest.raises(SigmaTooLargeError, match="negative mass"):
            fbeta_iterative(sharp, 0.05, 1)


class TestSigmaLadderValidation:
    """Both rate experiments validate their bandwidth ladders."""

    def test_needs_five_points(self, gaussian_density):
        with pytest.raises(ValueError, match="at least 5"):
            approx_order_experiment(gaussian_density, 0, [0.1, 0.05, 0.02, 0.01])

    def test_needs_decreasing_ladder(self, gaussian_density):
        with pytest.raises(ValueError, match="strictly decreasing"):
            kl_rate_experiment(gaussian_density, 0, [0.01, 0.02, 0.04, 0.08, 0.1])

    def test_needs_a_full_decade(self, gaussian_density):
        with pytest.raises(ValueError, match="decade"):
            approx_order_experiment(
                gaussian_density, 0, np.geomspace(0.1, 0.05, 5)
            )

    def test_needs_positive_values(self, gaussian_density):
        with pytest.raises(ValueError, match="positive"):
            kl_rate_experiment(gaussian_density, 0, [0.1, 0.05, 0.0, -0.1, -0.2])


class TestRateExperiments:
    """Small rate runs on analytically tame densities."""

    def test_approx_order_zero_slope_near_two(self, gaussian_density):
        report = approx_order_experiment(
            gaussian_density, 0, np.geomspace(0.1, 0.01, 5)
        )
        assert report.target == 2.0
        assert report.passed
        assert 1.7 < report.slope < 2.3
        assert report.r2 > 0.99
        assert np.all(np.diff(report.ys) < 0)

    def test_kl_rate_order_zero_slope_near_four(self, sech_density):
        report = kl_rate_experiment(sech_density, 0, np.geomspace(0.15, 0.015, 5))
        assert report.target == 4.0
        assert 3.4 < report.slope < 4.6
        assert report.r2 > 0.99

    def test_report_serialization_keys(self, gaussian_density):
        report = approx_order_experiment(
            gaussian_density, 0, np.geomspace(0.1, 0.01, 5), seed=9
        )
        raw = report.to_dict()
        assert set(raw) == {"xs", "ys", "slope", "r2", "target", "pass", "seed", "note"}
        assert raw["seed"] == 9
        assert raw["pass"] is True
