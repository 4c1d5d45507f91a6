"""The shared least-squares slope helper and the check-report invariant.

Oracle: points generated exactly on y = c * x^b recover slope b with
r^2 = 1 on log-log axes.
"""

from __future__ import annotations

import numpy as np
import pytest

from nllvm_lab.reports import CheckReport, slope_fit


class TestSlopeFit:
    """OLS slope and fit quality on log-log axes."""

    def test_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        ys = 3.0 * xs**-1.7
        slope, r2 = slope_fit(xs, ys)
        assert slope == pytest.approx(-1.7, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_ys(self):
        slope, r2 = slope_fit([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert slope == 0.0
        assert r2 == 0.0

    def test_noise_lowers_r2(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(1.0, 100.0, 12)
        ys = xs**-2.0 * np.exp(rng.normal(0.0, 0.3, 12))
        _, r2 = slope_fit(xs, ys)
        assert 0.0 < r2 < 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 3"):
            slope_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match=">= 3"):
            slope_fit([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="distinct"):
            slope_fit([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            slope_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


class TestCheckReport:
    """The violations-vs-trials invariant."""

    def test_violations_bounded_by_trials(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            CheckReport("x", trials=5, violations=6, worst_margin=0.1,
                        passed=False)
