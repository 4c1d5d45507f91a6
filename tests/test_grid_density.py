"""Grid-density container, Gaussian convolution, and divergence tests.

Closed-form Gaussian identities serve as independent oracles: every
divergence between two normal densities has an elementary expression, and
Gaussian smoothing of a normal density is again normal with summed
variances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.stats import kstest, norm

from nllvm_lab.grid_density import (
    DIVERGENCE_KINDS,
    HELLINGER_SQ,
    KL,
    L1,
    SUP_LOG_RATIO,
    GridDensity,
    GridSpec,
    NumericError,
    ResolutionError,
    convolve_gaussian,
    convolve_values,
    divergence,
    kl_values,
    smooth_bump,
    trapezoid_weights,
)
from nllvm_lab.grid_density import trapezoid as grid_trapezoid


def _normal_density(mean: float, sd: float, spec: GridSpec) -> GridDensity:
    return GridDensity(spec.lo, spec.hi, norm.pdf(spec.points(), mean, sd))


class TestGridSpec:
    """Window validation and derived grid geometry."""

    def test_spacing_and_points(self):
        spec = GridSpec(-1.0, 2.0, 301)
        assert spec.spacing == pytest.approx(0.01)
        pts = spec.points()
        assert pts.size == 301
        assert pts[0] == -1.0 and pts[-1] == 2.0

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError, match="hi > lo"):
            GridSpec(1.0, 1.0, 64)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="n >= 16"):
            GridSpec(0.0, 1.0, 15)

    def test_rejects_non_finite_endpoints(self):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(0.0, math.inf, 64)


class TestGridDensity:
    """Construction-time renormalization and basic queries."""

    def test_renormalizes_to_unit_mass(self):
        vals = 7.3 * np.exp(-np.linspace(-2, 2, 256) ** 2)
        g = GridDensity(-2.0, 2.0, vals)
        assert trapezoid(g.values, dx=g.spacing) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60)
    @given(
        values=st.integers(16, 64).flatmap(
            lambda n: hnp.arrays(np.float64, n, elements=st.floats(1e-300, 1e300))
        ),
        lo=st.floats(-100.0, 100.0),
        width=st.floats(1e-3, 1e3),
    )
    def test_arbitrary_positive_values_integrate_to_one(self, values, lo, width):
        g = GridDensity(lo, lo + width, values)
        assert trapezoid(g.values, dx=g.spacing) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_negative_values_with_index(self):
        vals = np.ones(64)
        vals[17] = -0.5
        with pytest.raises(ValueError, match="index 17"):
            GridDensity(0.0, 1.0, vals)

    def test_rejects_non_finite_values(self):
        vals = np.ones(64)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GridDensity(0.0, 1.0, vals)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="zero total mass"):
            GridDensity(0.0, 1.0, np.zeros(64))

    def test_rejects_short_arrays(self):
        with pytest.raises(ValueError, match="n >= 16"):
            GridDensity(0.0, 1.0, np.ones(8))

    # an infinite window would give all zeros and a NaN one all NaN, each
    # claiming unit mass
    @pytest.mark.parametrize(
        "lo, hi, named",
        [
            (0.0, math.inf, "endpoints must be finite"),
            (-math.inf, 1.0, "endpoints must be finite"),
            (math.nan, 1.0, "endpoints must be finite"),
            (0.0, math.nan, "endpoints must be finite"),
            (1.0, 0.0, "hi > lo"),
        ],
        ids=["inf-hi", "-inf-lo", "nan-lo", "nan-hi", "reversed"],
    )
    def test_rejects_bad_window(self, lo, hi, named):
        with pytest.raises(ValueError, match=named):
            GridDensity(lo, hi, np.ones(16))

    def test_pdf_at_zero_outside_window(self):
        g = GridDensity(0.0, 1.0, np.ones(64))
        assert g.pdf_at(-0.5) == 0.0
        assert g.pdf_at(1.5) == 0.0
        assert g.pdf_at(0.5) == pytest.approx(1.0)

    def test_pdf_at_interpolates(self):
        spec = GridSpec(0.0, 1.0, 101)
        g = GridDensity(spec.lo, spec.hi, 1.0 + spec.points())
        # between grid nodes linear interpolation is exact for a linear pdf
        norm_const = 1.5
        assert g.pdf_at(0.255) == pytest.approx(1.255 / norm_const, rel=1e-12)

    def test_cdf_monotone_and_normalized(self):
        g = _normal_density(0.5, 0.3, GridSpec(-2.0, 3.0, 1024))
        cdf = g.cdf_values()
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(cdf) >= 0)

    def test_draw_matches_density(self):
        g = _normal_density(0.5, 0.2, GridSpec(-1.0, 2.0, 2048))
        draws = g.draw(np.random.default_rng(3), 4000)
        grid, cdf = g.grid, g.cdf_values()
        ks = kstest(draws, lambda t: np.interp(t, grid, cdf)).statistic
        assert ks < 0.05

    def test_draw_is_reproducible(self):
        g = _normal_density(0.5, 0.2, GridSpec(-1.0, 2.0, 512))
        a = g.draw(np.random.default_rng(11), 100)
        b = g.draw(np.random.default_rng(11), 100)
        np.testing.assert_array_equal(a, b)

    def test_spec_round_trip(self):
        g = GridDensity(0.0, 1.0, np.ones(64))
        assert g.spec == GridSpec(0.0, 1.0, 64)


class TestTrapezoid:
    """The package's one trapezoid rule gives scipy.integrate's bits."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = 16 if seed == 0 else 16384 if seed == 1 else int(rng.integers(16, 16385))
        dx = float(rng.uniform(1e-4, 2.0))
        one = rng.random(n) * 10.0 ** rng.uniform(-3, 3)
        two = rng.standard_normal((int(rng.integers(2, 10)), n))
        for y in (one, two):
            np.testing.assert_array_equal(grid_trapezoid(y, dx), trapezoid(y, dx=dx))
        g = GridDensity(-dx, dx * (n - 2), one)
        cdf = cumulative_trapezoid(g.values, dx=g.spacing, initial=0)
        np.testing.assert_array_equal(g.cdf_values(), cdf / cdf[-1])

    @pytest.mark.parametrize("n", [16, 1000])
    def test_weights_match_the_hand_built_arrays(self, n):
        dx = 0.37
        scaled = np.full(n, dx)
        scaled[[0, -1]] *= 0.5
        halved = np.full(n, dx)
        halved[0] = halved[-1] = dx / 2.0
        w = trapezoid_weights(n, dx)
        np.testing.assert_array_equal(w, scaled)
        np.testing.assert_array_equal(w, halved)
        y = np.random.default_rng(n).random(n)
        assert w @ y == pytest.approx(trapezoid(y, dx=dx), rel=1e-13)


class TestConvolveGaussian:
    """Gaussian smoothing against the exact normal-variance-sum oracle."""

    def test_normal_smoothing_closed_form(self):
        spec = GridSpec(-2.0, 3.0, 4096)
        f = _normal_density(0.5, 0.25, spec)
        out = convolve_gaussian(f, 0.15)
        exact = norm.pdf(spec.points(), 0.5, math.hypot(0.25, 0.15))
        assert np.max(np.abs(out.values - exact)) < 1e-9

    def test_semigroup_property(self):
        spec = GridSpec(-2.0, 3.0, 4096)
        f = _normal_density(0.5, 0.25, spec)
        twice = convolve_gaussian(convolve_gaussian(f, 0.1), 0.12)
        once = convolve_gaussian(f, math.hypot(0.1, 0.12))
        assert np.max(np.abs(twice.values - once.values)) < 1e-9

    def test_resolution_error_for_fine_bandwidth(self):
        f = _normal_density(0.5, 0.25, GridSpec(-2.0, 3.0, 64))
        with pytest.raises(ResolutionError, match="4 grid points per sigma"):
            convolve_gaussian(f, 0.1)

    def test_numeric_error_on_boundary_mass_loss(self):
        # density butting against the window edge loses kernel mass
        f = GridDensity(0.0, 1.0, np.ones(256))
        with pytest.raises(NumericError, match="lost"):
            convolve_gaussian(f, 0.1)

    def test_mass_loss_recorded(self):
        f = _normal_density(0.5, 0.25, GridSpec(-2.0, 3.0, 2048))
        out = convolve_gaussian(f, 0.1)
        assert 0.0 <= out.mass_loss < 1e-4

    def test_sigma_validation(self):
        f = _normal_density(0.5, 0.25, GridSpec(-2.0, 3.0, 1024))
        with pytest.raises(ValueError, match="positive"):
            convolve_gaussian(f, 0.0)
        with pytest.raises(ValueError, match="too large"):
            convolve_gaussian(f, 2.0)

    def test_convolve_values_is_linear(self):
        spec = GridSpec(-2.0, 3.0, 2048)
        x = spec.points()
        a = norm.pdf(x, 0.2, 0.3)
        b = norm.pdf(x, 0.8, 0.2)
        h = spec.spacing
        lhs = convolve_values(a - 0.5 * b, h, 0.1)
        rhs = convolve_values(a, h, 0.1) - 0.5 * convolve_values(b, h, 0.1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDivergenceClosedForms:
    """Each divergence against its two-Gaussian closed form."""

    SPEC = GridSpec(-4.0, 5.0, 8192)

    def _pair(self, m1, s1, m2, s2):
        return _normal_density(m1, s1, self.SPEC), _normal_density(m2, s2, self.SPEC)

    def test_kl(self):
        p, q = self._pair(0.3, 0.25, 0.6, 0.4)
        exact = (
            math.log(0.4 / 0.25)
            + (0.25**2 + (0.3 - 0.6) ** 2) / (2 * 0.4**2)
            - 0.5
        )
        assert divergence(KL, p, q) == pytest.approx(exact, abs=1e-8)

    def test_kl_zero_iff_equal(self):
        p, _ = self._pair(0.3, 0.25, 0.3, 0.25)
        assert divergence(KL, p, p) == pytest.approx(0.0, abs=1e-14)

    def test_hellinger_sq_halved_convention(self):
        p, q = self._pair(0.1, 0.2, 0.7, 0.35)
        s1, s2, dm = 0.2, 0.35, 0.6
        exact = 1.0 - math.sqrt(2 * s1 * s2 / (s1**2 + s2**2)) * math.exp(
            -(dm**2) / (4 * (s1**2 + s2**2))
        )
        assert divergence(HELLINGER_SQ, p, q) == pytest.approx(exact, abs=1e-8)

    def test_hellinger_sq_bounds(self):
        p, q = self._pair(-2.0, 0.05, 3.0, 0.05)
        h2 = divergence(HELLINGER_SQ, p, q)
        assert 0.0 <= h2 <= 1.0
        assert h2 > 0.999  # essentially disjoint supports

    def test_l1_equal_scale(self):
        p, q = self._pair(0.2, 0.3, 0.8, 0.3)
        exact = 2.0 * (2.0 * norm.cdf(0.6 / (2 * 0.3)) - 1.0)
        # |p - q| has a kink at the crossing point, costing O(h^2) locally
        assert divergence(L1, p, q) == pytest.approx(exact, abs=1e-5)

    def test_l1_never_exceeds_two(self):
        p, q = self._pair(-2.0, 0.05, 3.0, 0.05)
        assert divergence(L1, p, q) <= 2.0 + 1e-12

    def test_sup_log_ratio_is_signed_one_sided(self):
        # narrow p against wide q: the sup sits at the shared center, which
        # falls between grid nodes — the quadratic drop over half a spacing
        # is ~3e-6, hence the 1e-5 tolerance
        p, q = self._pair(0.5, 0.2, 0.5, 0.4)
        assert divergence(SUP_LOG_RATIO, p, q) == pytest.approx(
            math.log(0.4 / 0.2), abs=1e-5
        )
        assert divergence(SUP_LOG_RATIO, p, p) == pytest.approx(0.0, abs=1e-12)

    def test_same_grid_enforced(self):
        p = _normal_density(0.5, 0.3, GridSpec(-2.0, 3.0, 1024))
        q = _normal_density(0.5, 0.3, GridSpec(-2.0, 3.0, 2048))
        with pytest.raises(ValueError, match="share a grid"):
            divergence(KL, p, q)

    def test_unknown_kind_rejected(self):
        p, q = self._pair(0.2, 0.3, 0.8, 0.3)
        with pytest.raises(ValueError, match="unknown divergence"):
            divergence("tv", p, q)

    def test_kind_registry(self):
        assert set(DIVERGENCE_KINDS) == {"kl", "hellinger_sq", "l1", "sup_log_ratio"}


@st.composite
def _density_pair(draw) -> tuple:
    """Two arbitrary non-negative densities, zeros allowed, on one grid."""
    n = draw(st.integers(16, 64))
    values = hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e3))
    p, q = draw(values), draw(values)
    assume(p.sum() > 0 and q.sum() > 0)
    return GridDensity(0.0, 1.0, p), GridDensity(0.0, 1.0, q)


class TestDivergenceAxioms:
    """Range axioms of the divergences on arbitrary grid densities."""

    @settings(max_examples=60)
    @given(pair=_density_pair())
    def test_ranges(self, pair):
        p, q = pair
        assert divergence(KL, p, q) >= 0.0
        h2 = divergence(HELLINGER_SQ, p, q)
        assert -1e-12 <= h2 <= 1.0
        assert divergence(L1, p, q) <= 2.0 + 1e-12


class TestKlValues:
    """Raw-array KL with the floored denominator."""

    def test_matches_divergence_on_densities(self):
        spec = GridSpec(-4.0, 5.0, 4096)
        p = _normal_density(0.3, 0.25, spec)
        q = _normal_density(0.5, 0.3, spec)
        assert kl_values(p.values, q.values, spec.spacing) == pytest.approx(
            divergence(KL, p, q), abs=1e-14
        )

    def test_non_negative_under_floor(self):
        # q identically zero: every point is floored, KL stays finite and >= 0
        p = np.ones(64)
        out = kl_values(p, np.zeros(64), 1.0 / 63)
        assert np.isfinite(out) and out > 0


class TestSmoothBump:
    """Compactly supported infinitely smooth bump profile."""

    def test_support_and_normalization(self):
        spec = GridSpec(-1.0, 2.0, 2048)
        g = smooth_bump(spec, 0.1, 0.9, 2.0)
        x = spec.points()
        outside = (x <= 0.1) | (x >= 0.9)
        assert np.all(g.values[outside] == 0.0)
        assert np.all(g.values[(x > 0.15) & (x < 0.85)] > 0.0)
        assert trapezoid(g.values, dx=g.spacing) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_about_support_center(self):
        spec = GridSpec(-1.0, 2.0, 3001)
        g = smooth_bump(spec, 0.0, 1.0, 3.0)
        # the window is symmetric about 0.5, so values mirror exactly
        np.testing.assert_allclose(g.values, g.values[::-1], atol=1e-12)

    def test_support_must_sit_inside_window(self):
        spec = GridSpec(0.0, 1.0, 256)
        with pytest.raises(ValueError, match="strictly inside"):
            smooth_bump(spec, 0.0, 0.9)
        with pytest.raises(ValueError, match="strictly inside"):
            smooth_bump(spec, 0.5, 0.4)

    def test_sharpness_must_be_positive(self):
        with pytest.raises(ValueError, match="sharpness"):
            smooth_bump(GridSpec(-1.0, 2.0, 256), 0.1, 0.9, 0.0)
