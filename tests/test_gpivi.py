"""Implicit-family variational inference: objectives, optimizer, risk.

Oracles
-------
* Per-datum divergences have analytic Gaussian forms, which must agree
  with a trapezoid quadrature over the data space computed in the test.
* The Bernoulli model's divergences are two-point sums computed directly
  from the likelihood in the test, independent of the module's closures.
* For uniform priors, KL-neighborhood prior mass is an interval-length
  ratio, making every term of the risk bound computable by hand: the
  second-moment constraint binds at d = sigma * sqrt(r) with
  r = 2 (sqrt(1 + eps^2) - 1).
* A quantile-transfer member with small noise is nearly Gaussian, so its
  per-datum risk integral matches alpha ((m - theta*)^2 + var_q) / (2 s^2).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import trapezoid
from scipy.stats import norm

from nllvm_lab import gpivi, transfer_map
from nllvm_lab.gpivi import (
    BayesModel,
    _MARGIN_Z,
    _FeasibleMap,
    _default_init,
    _objective_and_gradient,
    RestrictedFamily,
    SupportError,
    VariationalParams,
    kl_ball_mask,
    logistic_model,
    normal_mean_model,
    normal_normal_model,
    normal_quantile_transfer,
    optimize,
    per_datum_kl_v,
    per_datum_renyi,
    practical_objective,
    q_density,
    quadrature_posterior,
    risk_bound_rhs,
    risk_integral,
)
from nllvm_lab.grid_density import (
    DENSITY_FLOOR,
    GridDensity,
    GridSpec,
    ResolutionError,
    kl_values,
)
from nllvm_lab.transfer_map import (
    _ZERO_RADIUS,
    TransferFunction,
    mixture_density,
    mixture_vjp,
    segment_masses,
)


@pytest.fixture(scope="module")
def nn() -> BayesModel:
    return normal_normal_model()


@pytest.fixture(scope="module")
def nm() -> BayesModel:
    return normal_mean_model()


def _gaussian_loglik(sigma: float):
    """Per-datum log p(y | theta) of y ~ N(theta, sigma^2), from scipy.stats."""
    return lambda theta, y: norm.logpdf(y, theta, sigma)


def _bernoulli_loglik(theta, y):
    """Per-datum log p(y | theta) of y ~ Bernoulli(sigmoid(theta))."""
    return y * theta - np.logaddexp(0.0, theta)


def _quadrature_divergences(log_lik, theta_star: float, alpha: float, thetas, lo, hi) -> tuple:
    """Per-datum KL, second log-ratio moment and Renyi by quadrature over y.

    ``log_lik(theta, y)`` is the per-datum log-likelihood; the window
    [lo, hi] must carry the data distribution under theta_star.
    """
    y = np.linspace(lo, hi, 4097)
    ll_star = log_lik(theta_star, y)
    p_star = np.exp(ll_star)
    kl, v, renyi = np.empty(thetas.size), np.empty(thetas.size), np.empty(thetas.size)
    for i, th in enumerate(thetas):
        log_ratio = ll_star - log_lik(th, y)
        kl[i] = trapezoid(p_star * log_ratio, y)
        v[i] = trapezoid(p_star * log_ratio**2, y)
        mix = alpha * log_lik(th, y) + (1.0 - alpha) * ll_star
        renyi[i] = math.log(trapezoid(np.exp(mix), y)) / (alpha - 1.0)
    return kl, v, renyi


class TestParamsAndSpecs:
    """Dataclass validation."""

    def test_variational_params(self):
        p = VariationalParams(normal_quantile_transfer(0.0, 1.0), -1.0)
        assert p.sigma == pytest.approx(math.exp(-1.0))
        with pytest.raises(ValueError, match="log_sigma"):
            VariationalParams(normal_quantile_transfer(0.0, 1.0), np.nan)

    def test_kl_ball_spec(self, nm):
        # the radius of the KL ball must lie in (0, inf)
        thetas = np.array([0.3])
        assert kl_ball_mask(nm, 0.1, thetas).tolist() == [True]
        for eps in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                kl_ball_mask(nm, eps, thetas)

    def test_restricted_family_spec(self):
        grid_spec = GridSpec(-8.0, 8.0, 256)
        RestrictedFamily(1.0, 0.3, 2.0, grid_spec)
        with pytest.raises(ValueError, match="positive"):
            RestrictedFamily(0.0, 0.3, 2.0, grid_spec)
        with pytest.raises(ValueError, match="c0"):
            RestrictedFamily(1.0, 0.3, 0.5, grid_spec)


class TestNormalQuantileTransfer:
    """Quantile-map transfer functions."""

    def test_tau_positive(self):
        with pytest.raises(ValueError, match="tau"):
            normal_quantile_transfer(0.0, 0.0)

    @pytest.mark.parametrize(
        "m, tau, n_knots", [(0.3, 0.7, 513), (-1.2, 0.05, 17), (2.0, 3.0, 9)]
    )
    def test_values_equal_norm_ppf(self, m, tau, n_knots):
        # the scipy.special path gives the scipy.stats quantiles bit for bit
        mu = normal_quantile_transfer(m, tau, n_knots=n_knots)
        levels = np.clip(np.linspace(0.0, 1.0, n_knots), 1e-6, 1.0 - 1e-6)
        assert np.array_equal(mu.values, m + tau * norm.ppf(levels))

    def test_margin_equals_norm_isf(self):
        assert _MARGIN_Z == float(norm.isf(1e-9))

    def test_midpoint_and_symmetry(self):
        mu = normal_quantile_transfer(0.3, 0.4)
        assert mu(np.array([0.5]))[0] == pytest.approx(0.3, abs=1e-12)
        left, right = mu(np.array([0.25, 0.75]))
        assert left + right == pytest.approx(0.6, abs=1e-12)

    def test_pushforward_is_nearly_gaussian(self):
        # U(0,1) through the N(m, tau^2) quantile map plus N(0, s^2) noise
        params = VariationalParams(
            normal_quantile_transfer(0.3, 0.4), math.log(0.3)
        )
        spec = GridSpec(-3.0, 3.6, 2048)
        q = q_density(params, spec)
        exact = norm.pdf(spec.points(), 0.3, 0.5)
        assert np.max(np.abs(q.values - exact)) < 2e-3


class TestPerDatumDivergences:
    """Analytic hooks against a quadrature reference."""

    THETAS = np.array([0.25, 0.3, 0.42])
    # theta_star +- 10 sigma of the normal-mean fixture, whose sigma is 0.3
    WINDOW = (0.3 - 3.0, 0.3 + 3.0)

    def _quadrature(self, nm) -> tuple:
        return _quadrature_divergences(
            _gaussian_loglik(0.3), nm.theta_star, 0.6, self.THETAS, *self.WINDOW
        )

    def test_kl_v_quadrature_matches_analytic(self, nm):
        kl_a, v_a = per_datum_kl_v(nm, self.THETAS)
        kl_q, v_q, _ = self._quadrature(nm)
        np.testing.assert_allclose(kl_q, kl_a, atol=1e-12)
        np.testing.assert_allclose(v_q, v_a, atol=1e-12)

    def test_renyi_quadrature_matches_analytic(self, nm):
        r_a = per_datum_renyi(nm, 0.6, self.THETAS)
        _, _, r_q = self._quadrature(nm)
        np.testing.assert_allclose(r_q, r_a, atol=1e-12)

    def test_renyi_alpha_range(self, nm):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                per_datum_renyi(nm, alpha, self.THETAS)

    def test_bernoulli_two_point_sums(self):
        # recompute the divergences from the likelihood alone
        model = logistic_model(theta_star=0.5)
        thetas = np.array([-0.4, 0.5, 1.3])
        y = np.array([0.0, 1.0])
        p_star = np.exp(_bernoulli_loglik(0.5, y))
        kl_hand = np.empty(3)
        v_hand = np.empty(3)
        renyi_hand = np.empty(3)
        alpha = 0.7
        for i, th in enumerate(thetas):
            log_ratio = _bernoulli_loglik(0.5, y) - _bernoulli_loglik(th, y)
            kl_hand[i] = np.sum(p_star * log_ratio)
            v_hand[i] = np.sum(p_star * log_ratio**2)
            mix = np.exp(
                alpha * _bernoulli_loglik(th, y)
                + (1 - alpha) * _bernoulli_loglik(0.5, y)
            )
            renyi_hand[i] = math.log(np.sum(mix)) / (alpha - 1.0)
        kl, v = per_datum_kl_v(model, thetas)
        np.testing.assert_allclose(kl, kl_hand, atol=1e-12)
        np.testing.assert_allclose(v, v_hand, atol=1e-12)
        np.testing.assert_allclose(
            per_datum_renyi(model, alpha, thetas), renyi_hand, atol=1e-12
        )

    def test_divergences_vanish_at_theta_star(self, nm):
        kl, v = per_datum_kl_v(nm, np.array([nm.theta_star]))
        assert kl[0] == 0.0 and v[0] == 0.0


class TestKlBall:
    """Neighborhood membership: the second-moment constraint binds."""

    def test_membership_boundary(self, nm):
        # v1 <= eps^2 gives |theta - 0.3| <= sigma * sqrt(r), about 0.03
        # 0.34 passes the KL constraint but fails the second-moment one
        assert nm.kl1(np.array([0.34]))[0] <= 0.1**2
        mask = kl_ball_mask(nm, 0.1, np.array([0.31, 0.3, 0.34]))
        np.testing.assert_array_equal(mask, [True, True, False])


class TestObjective:
    """The tempered objective."""

    # each shipped model with its per-datum reference, at the model's
    # default observation scale
    LOGLIK_CASES = {
        "normal-normal": (normal_normal_model, _gaussian_loglik(1.0)),
        "normal-mean": (normal_mean_model, _gaussian_loglik(0.3)),
        "logistic": (logistic_model, _bernoulli_loglik),
    }

    @pytest.mark.parametrize("n", [0, 1, 50, 3200])
    @pytest.mark.parametrize("name", sorted(LOGLIK_CASES))
    def test_loglik_sum_matches_per_datum_sum(self, name, n):
        make, log_lik = self.LOGLIK_CASES[name]
        model = make()
        thetas = model.prior_density.grid
        data = model.sample_data(np.random.default_rng(n), n)
        direct = np.array([math.fsum(log_lik(theta, data)) for theta in thetas])
        # 1e-12 relative, with an absolute floor of 1e-12 per datum for the
        # normal-mean sum, which crosses 0 because its log normalizer is positive
        err = np.abs(model.loglik_sum(data, thetas) - direct)
        assert np.all(err <= 1e-12 * np.maximum(np.abs(direct), n))

    def test_validations(self, nn):
        params = VariationalParams(normal_quantile_transfer(0.3, 0.1), -3.0)
        with pytest.raises(ValueError, match="alpha"):
            practical_objective(params, nn, np.array([0.1]), 1.0)
        with pytest.raises(ValueError, match="non-empty"):
            practical_objective(params, nn, np.array([]), 0.5)
        with pytest.raises(ValueError, match="alpha"):
            practical_objective(params, nn, np.array([0.1]), 0.0)

    def test_support_error_outside_uniform_prior(self, nm):
        # q mass beyond the prior's interval is flagged, not silently kept
        bad = VariationalParams(normal_quantile_transfer(0.95, 0.2), math.log(0.1))
        with pytest.raises(SupportError, match="outside the prior support"):
            practical_objective(
                bad, nm, np.array([0.3]), 0.5, q=q_density(bad, GridSpec(-3.0, 3.0, 2048))
            )


def _feasible_case(model: BayesModel) -> tuple:
    data = model.sample_data(np.random.default_rng(5), 200)
    init = _default_init(model, data, 0.9, 16)
    return model, data, init, _FeasibleMap.around(init, model, data)


# the flat prior's edge binds at theta* = 0.9; the work window binds otherwise
_FEASIBLE_CASES = {
    "normal-mean-edge": _feasible_case(normal_mean_model(theta_star=0.9)),
    "normal-normal": _feasible_case(normal_normal_model()),
    "logistic": _feasible_case(logistic_model()),
}


def _gradient_points(init: VariationalParams, feasible: _FeasibleMap) -> tuple:
    """The start; a perturbed start with one increment logit at -30; and
    sigma at half the grid spacing, below the optimizer's box, where the
    trapezoid mass of the raw mixture departs from 1 and the
    renormalization enters the gradient."""
    x0 = feasible.coords(init)
    moved = x0 + np.random.default_rng(11).normal(0.0, 0.5, x0.size)
    moved[3], moved[-1] = -30.0, x0[-1] + 0.2
    return x0, moved, np.append(x0[:-1], math.log(0.5 * feasible.spec.spacing))


# every shipped model at prior scales up to 5 with theta* near an end of
# the prior's support: the flat prior's edge, or the [-8, 8] window's
_EDGE_CASES = {
    **{
        f"normal-mean-hw{hw:g}-sigma{s:g}-{t:+g}": (
            normal_mean_model, dict(sigma=s, theta_star=t * hw, prior_halfwidth=hw)
        )
        for hw in (1.0, 5.0) for s in (0.3, 3.0) for t in (-0.97, 0.97)
    },
    **{
        f"normal-normal-prior{ps:g}-{t:+g}": (
            normal_normal_model, dict(sigma=3.0, prior_sigma=ps, theta_star=t)
        )
        for ps in (0.2, 1.0, 5.0) for t in (-7.5, 7.5)
    },
    **{
        f"logistic-prior{ps:g}-{t:+g}": (logistic_model, dict(theta_star=t, prior_sigma=ps))
        for ps in (1.5, 5.0) for t in (-7.5, 7.5)
    },
}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_default_start_is_always_feasible(name):
    make, kwargs = _EDGE_CASES[name]
    model = make(**kwargs)
    for n in (1, 2, 5, 200):
        data = model.sample_data(np.random.default_rng(n), n)
        start = _default_init(model, data, 0.9, 8)
        _FeasibleMap.around(start, model, data).coords(start)
        assert math.isfinite(optimize(model, data, 0.9, knots=8, iters=3).objective)


# data that no theta in the prior's support explains: the tempered posterior
# piles up at, or underflows to, the support's end
_NOISE = 0.3 * np.random.default_rng(0).standard_normal(200)
_FAR_DATA = {
    **{f"normal-mean-{m:g}": (normal_mean_model(), m + _NOISE) for m in (3.0, 50.0, -3.0)},
    "normal-normal-50": (normal_normal_model(), np.full(200, 50.0)),
    "normal-normal--500": (normal_normal_model(), np.full(200, -500.0)),
    "logistic-all-ones": (logistic_model(), np.ones(200)),
}


@pytest.mark.parametrize("name", sorted(_FAR_DATA))
def test_default_start_is_feasible_for_data_outside_the_support(name):
    model, data = _FAR_DATA[name]
    start = _default_init(model, data, 0.9, 16)
    feasible = _FeasibleMap.around(start, model, data)
    feasible.coords(start)
    res = optimize(model, data, 0.9)
    assert math.isfinite(res.objective)
    assert feasible.lo <= res.params.mu.values.min() < res.params.mu.values.max() <= feasible.hi


class TestOptimize:
    """Deterministic L-BFGS-B over the feasible parametrization."""

    def test_knot_bounds_and_empty_data(self, nn):
        with pytest.raises(ValueError, match="knots"):
            optimize(nn, np.array([0.1]), 0.5, knots=7)
        with pytest.raises(ValueError, match="knots"):
            optimize(nn, np.array([0.1]), 0.5, knots=257)
        with pytest.raises(ValueError, match="non-empty"):
            optimize(nn, np.array([]), 0.5)

    def test_recovers_the_tempered_posterior(self, nn, conjugate_tempered):
        # conjugate target: the fitted q should sit on the alpha-posterior
        data = nn.sample_data(np.random.default_rng(7), 40)
        res = optimize(nn, data, 0.9, knots=12, iters=30)
        assert res.converged or res.stalled or res.n_sweeps == 30
        assert 1 <= res.n_sweeps <= 30
        assert math.isfinite(res.objective)

        q = q_density(res.params, nn.prior_density.spec)
        exact = conjugate_tempered(nn, data, 0.9)
        kl = kl_values(q.values, exact.values, q.spacing)
        assert kl < 0.01

        # improves on (or matches) the initializer
        init = _default_init(nn, data, 0.9, 12)
        assert res.objective <= practical_objective(init, nn, data, 0.9) + 1e-9

    def test_fit_is_tempered(self, nn, conjugate_tempered):
        # at alpha = 0.5 the tempered posterior has about twice the untempered
        # variance, so a fit that ignores alpha lands about 0.09 away in KL
        data = nn.sample_data(np.random.default_rng(7), 40)
        res = optimize(nn, data, 0.5, knots=12, iters=30)
        q = q_density(res.params, nn.prior_density.spec)
        exact = conjugate_tempered(nn, data, 0.5)
        assert kl_values(q.values, exact.values, q.spacing) < 1e-3

    @pytest.mark.parametrize("make", [normal_mean_model, normal_normal_model, logistic_model])
    def test_objective_is_the_tempered_objective(self, make):
        # the fit's work window misses some prior mass, which the reported
        # value adds back; compared where the prior's grid resolves q
        model = make()
        data = model.sample_data(np.random.default_rng(200), 200)
        res = optimize(model, data, 0.9)
        assert res.params.sigma >= 4 * model.prior_density.spacing
        expected = practical_objective(res.params, model, data, 0.9)
        assert res.objective == pytest.approx(expected, rel=1e-5, abs=0)

    def test_deterministic(self, nn):
        data = nn.sample_data(np.random.default_rng(7), 40)
        a = optimize(nn, data, 0.9, knots=12, iters=30)
        b = optimize(nn, data, 0.9, knots=12, iters=30)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.params.mu.values, b.params.mu.values)
        assert a.params.log_sigma == b.params.log_sigma

    def test_iters_below_one_rejected(self, nn):
        data = nn.sample_data(np.random.default_rng(7), 40)
        for iters in (0, -3):
            with pytest.raises(ValueError, match="iters"):
                optimize(nn, data, 0.9, knots=12, iters=iters)
        assert optimize(nn, data, 0.9, knots=12, iters=1).n_sweeps == 1

    @pytest.mark.parametrize("name", sorted(_FEASIBLE_CASES))
    def test_coords_invert_params(self, name):
        model, data, init, feasible = _FEASIBLE_CASES[name]
        back = feasible.params(feasible.coords(init))
        np.testing.assert_allclose(back.mu.values, init.mu.values, rtol=0, atol=1e-12)
        assert back.log_sigma == init.log_sigma

    def test_infeasible_init_raises(self):
        model, data, init, feasible = _FEASIBLE_CASES["normal-mean-edge"]
        assert feasible.hi == 1.0 < feasible.spec.hi
        # a start whose top knot sits on the flat prior's edge
        shifted = VariationalParams(
            TransferFunction(init.mu.knots, init.mu.values + (1.0 - init.mu.hi)),
            init.log_sigma,
        )
        with pytest.raises(ValueError, match="infeasible"):
            feasible.coords(shifted)

    @pytest.mark.parametrize("name", sorted(_FEASIBLE_CASES))
    def test_gradient_matches_central_differences(self, name):
        model, data, init, feasible = _FEASIBLE_CASES[name]
        loglik = model.loglik_sum(data, feasible.spec.points())
        np.testing.assert_array_equal(feasible.loglik, loglik)

        def objective(x):
            params = feasible.params(x)
            q = q_density(params, feasible.spec)
            return practical_objective(params, model, data, 0.9, q=q, loglik=loglik)

        h = 1e-5
        for x in _gradient_points(init, feasible):
            grad = _objective_and_gradient(x, feasible, model, data, 0.9)[1]
            steps = h * np.eye(x.size)
            # fourth-order central differences
            fd = np.array([
                (8.0 * (objective(x + e) - objective(x - e))
                 - (objective(x + 2.0 * e) - objective(x - 2.0 * e))) / (12.0 * h)
                for e in steps
            ])
            assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("name", sorted(_FEASIBLE_CASES))
    def test_one_mass_build_matches_three(self, name):
        # the value equals the objective on a freshly built q, and the
        # gradient equals the one whose q and segment masses are built anew
        model, data, init, feasible = _FEASIBLE_CASES[name]
        spec, y = feasible.spec, feasible.spec.points()
        loglik = model.loglik_sum(data, y)
        w = np.full(spec.n, spec.spacing)
        w[[0, -1]] *= 0.5
        for x in _gradient_points(init, feasible):
            value, grad = _objective_and_gradient(x, feasible, model, data, 0.9)
            params = feasible.params(x)
            mu, sigma = params.mu, params.sigma
            q = q_density(params, spec)
            assert value == practical_objective(params, model, data, 0.9, q=q, loglik=loglik)

            prior_vals = np.maximum(model.prior_density.pdf_at(y), DENSITY_FLOOR)
            log_ratio = np.log(q.values / prior_vals, out=np.zeros(spec.n), where=q.values > 0)
            g = w * (log_ratio - 0.9 * loglik)
            r = (g - w * (g @ q.values)) / (1.0 - q.mass_loss)
            live = np.abs(y - np.clip(y, mu.lo, mu.hi)) < _ZERO_RADIUS * sigma
            masses = segment_masses(mu, sigma, y[live])
            reference = feasible.pullback(x, *mixture_vjp(mu, sigma, y[live], masses, r[live]))
            assert np.array_equal(grad, reference)

    @pytest.mark.parametrize("make", [normal_mean_model, normal_normal_model, logistic_model])
    def test_one_mass_build_per_evaluation(self, make, monkeypatch):
        counts = {"masses": 0, "evaluations": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(transfer_map, "segment_masses", counted("masses", segment_masses))
        monkeypatch.setattr(gpivi, "practical_objective", counted("evaluations", practical_objective))
        model = make()
        optimize(model, model.sample_data(np.random.default_rng(3), 50), 0.9, knots=12, iters=10)
        assert counts["evaluations"] > 1
        assert counts["masses"] == counts["evaluations"]

    @pytest.mark.parametrize("make", [normal_mean_model, normal_normal_model, logistic_model])
    @pytest.mark.parametrize("alpha", [math.nan, -0.2, 0.0, 1.0])
    def test_alpha_rejected_before_any_work(self, make, alpha, monkeypatch):
        def no_work(*args):
            raise AssertionError("optimize started before validating alpha")

        model = make()
        monkeypatch.setattr(gpivi, "_default_init", no_work)
        data = model.sample_data(np.random.default_rng(0), 5)
        with pytest.raises(ValueError, match=re.escape(f"alpha must lie in (0,1), got {alpha}")):
            optimize(model, data, alpha)

    @pytest.mark.parametrize("name", sorted(_FEASIBLE_CASES))
    @settings(max_examples=50)
    @given(
        logits=hnp.arrays(np.float64, 17, elements=st.floats(-30.0, 30.0)),
        frac=st.floats(0.0, 1.0),
    )
    def test_every_point_is_feasible(self, name, logits, frac):
        # what the optimizer can visit passes the coverage and support checks
        model, data, init, feasible = _FEASIBLE_CASES[name]
        lo, hi = feasible.log_sigma_bounds
        params = feasible.params(np.append(logits, lo + frac * (hi - lo)))
        value = practical_objective(params, model, data, 0.9, q=q_density(params, feasible.spec))
        assert math.isfinite(value)


def _member_matrix_min_kl(family: RestrictedFamily):
    """Reference: all 41 x 9 members tabulated, KL to a grid posterior."""
    gs, sigma_n = family.grid_spec, family.sigma_n
    members = np.array([
        mixture_density(normal_quantile_transfer(m, tau), sigma_n, gs).values
        for m in family.means
        for tau in family.taus
    ])
    w = np.full(gs.n, gs.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    neg_entropy = (members * np.log(np.maximum(members, DENSITY_FLOOR))) @ w
    grid = gs.points()

    def min_kl(a: float, b: float) -> float:
        post = GridDensity(gs.lo, gs.hi, np.exp(-((grid - a) ** 2) / (2.0 * b**2)))
        logp = np.log(np.maximum(post.values, DENSITY_FLOOR))
        return float((neg_entropy - members @ (w * logp)).min())

    return min_kl


@pytest.fixture(scope="module")
def family() -> RestrictedFamily:
    return RestrictedFamily(1.0, 0.3, 2.0, GridSpec(-8.0, 8.0, 1024))


class TestRestrictedFamily:
    """Comparator-family minimum KL to a Gaussian posterior."""

    # (sigma_n, window): the symmetric fixture, and a window off-centre by
    # one M, whose base member therefore has mean m1 = 1 rather than 0; both
    # leave >= 4 M between the lattice and the window edges
    @pytest.mark.parametrize(
        "sigma_n, grid_spec",
        [(0.3, GridSpec(-8.0, 8.0, 1024)), (0.15, GridSpec(-5.0, 7.0, 512))],
        ids=["centred", "off-centre"],
    )
    def test_matches_member_matrix(self, sigma_n, grid_spec):
        family = RestrictedFamily(1.0, sigma_n, 2.0, grid_spec)
        reference = _member_matrix_min_kl(family)
        for a in (-1.0, -0.55, 0.0, 0.37, 1.0):
            for b in (0.3 * sigma_n, sigma_n, 2.0 * sigma_n):
                assert family.min_kl(a, b) == pytest.approx(reference(a, b), rel=1e-10, abs=0)

    def test_family_shape(self, family):
        assert family.means.shape == (RestrictedFamily.N_MEANS,)
        assert family.means[[0, -1]].tolist() == [-1.0, 1.0]
        assert family.taus.shape == (RestrictedFamily.N_TAUS,)
        assert family.taus[0] == pytest.approx(0.3)
        assert family.taus[-1] == pytest.approx(0.3 * math.sqrt(2.0))

    def test_nonpositive_sd_rejected(self, family):
        with pytest.raises(ValueError, match="post_sd"):
            family.min_kl(0.0, 0.0)

    @settings(max_examples=40)
    @given(
        a=st.floats(-1.0, 1.0),
        log_b=st.floats(math.log(1e-6), math.log(1e3)),
    )
    def test_min_kl_non_negative(self, family, a, log_b):
        assert family.min_kl(a, math.exp(log_b)) >= 0.0


class TestRiskQuantities:
    """Risk integral and the high-probability bound."""

    def test_risk_integral_concentrated_q(self, nn):
        # q is nearly N(0.5, tau^2 + s^2); the Gaussian risk is exact
        theta0, tau, s = 0.5, 0.05, 0.02
        params = VariationalParams(
            normal_quantile_transfer(theta0, tau), math.log(s)
        )
        got = risk_integral(params, nn, 0.6)
        var_q = tau**2 + s**2
        expected = 0.6 * ((theta0 - nn.theta_star) ** 2 + var_q) / 2.0
        assert got == pytest.approx(expected, rel=0.01)

    def test_risk_bound_hand_oracle(self, nm):
        # uniform prior: ball mass = sigma * sqrt(r), every term by hand
        eps, alpha, d_const = 0.1, 0.5, 2.0
        r = 2.0 * (math.sqrt(1.0 + eps**2) - 1.0)
        mass_hand = 0.3 * math.sqrt(r)
        for n, a1 in ((100, False), (1000, True)):
            rb = risk_bound_rhs(nm, np.zeros(n), alpha, eps)
            assert rb.ball_mass == pytest.approx(mass_hand, rel=0.03)
            complexity = math.log(1.0 / rb.ball_mass) / (n * (1.0 - alpha))
            assert rb.complexity == pytest.approx(complexity, rel=1e-12)
            assert rb.rhs == pytest.approx(
                d_const * alpha / (1.0 - alpha) * eps**2 + complexity, rel=1e-12
            )
            assert rb.remainder == pytest.approx(
                math.log((d_const - 1.0) ** 2 * n * eps**2) / (n * (1.0 - alpha)),
                abs=1e-15,
            )
            assert rb.a1_holds is a1

    def test_remainder_vanishes_when_n_eps2_is_one(self, nm):
        # (D-1)^2 n eps^2 = 1 makes the remainder exactly log(1) = 0
        rb = risk_bound_rhs(nm, np.zeros(100), 0.5, 0.1)
        assert rb.remainder == pytest.approx(0.0, abs=1e-15)

    def test_validations(self, nm):
        with pytest.raises(ValueError, match="alpha"):
            risk_bound_rhs(nm, np.zeros(10), 1.0, 0.1)
        with pytest.raises(ValueError, match="non-empty"):
            risk_bound_rhs(nm, np.array([]), 0.5, 0.1)

    def test_unresolvable_ball_raises(self, nm):
        with pytest.raises(ResolutionError, match="no prior mass"):
            risk_bound_rhs(nm, np.zeros(100), 0.5, 1e-6)


class TestShippedModels:
    """Constructor validation, priors, likelihoods and the grid posterior."""

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="positive"):
            normal_mean_model(sigma=0.0)
        with pytest.raises(ValueError, match="inside the prior"):
            normal_mean_model(theta_star=1.5)
        with pytest.raises(ValueError, match="positive"):
            normal_normal_model(prior_sigma=0.0)

    @pytest.mark.parametrize(
        "make, name, value",
        [
            (normal_mean_model, "sigma", math.inf),
            (normal_mean_model, "theta_star", math.nan),
            (normal_mean_model, "prior_halfwidth", math.inf),
            (normal_normal_model, "sigma", math.nan),
            (normal_normal_model, "prior_mu", math.nan),
            (normal_normal_model, "prior_sigma", math.inf),
            (normal_normal_model, "theta_star", math.nan),
            (logistic_model, "theta_star", math.inf),
            (logistic_model, "prior_sigma", math.inf),
            (logistic_model, "prior_sigma", 0.0),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_parameters_finite_up_front(self, make, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be .*got {value}$"):
            make(**{name: value})

    def test_logistic_data_must_be_binary(self):
        model = logistic_model()
        for data in ([0.0, 1.0, 0.5], [1.0, 3.0], [np.nan]):
            with pytest.raises(ValueError, match="logistic-intercept data must be 0 or 1"):
                model.loglik_sum(np.array(data), model.prior_density.grid)

    def test_priors_are_normalized(self, nn, nm):
        for model in (nn, nm, logistic_model()):
            prior = model.prior_density
            assert trapezoid(prior.values, dx=prior.spacing) == pytest.approx(1.0, abs=1e-12)

    def test_sample_data_centers_on_theta_star(self, nn):
        data = nn.sample_data(np.random.default_rng(0), 4000)
        assert data.mean() == pytest.approx(nn.theta_star, abs=0.05)

    def test_quadrature_posterior_matches_conjugate(self, nn, conjugate_tempered):
        # the grid posterior is the closed-form tempered posterior, from one
        # datum (nearly the prior) to n = 3200 (about 4.5 grid steps per sd)
        for n in (1, 10, 100, 3200):
            data = nn.sample_data(np.random.default_rng(n), n)
            for alpha in (0.2, 0.9, 0.99, 1.0):
                quad = quadrature_posterior(nn, data, alpha)
                exact = conjugate_tempered(nn, data, alpha)
                np.testing.assert_allclose(
                    quad.values, exact.values, rtol=0, atol=1e-10 * exact.values.max()
                )

    def test_alpha_posterior_interpolates(self, nn):
        # alpha < 1 flattens the likelihood, so the posterior is wider
        data = nn.sample_data(np.random.default_rng(2), 30)
        full = quadrature_posterior(nn, data, 1.0)
        tempered = quadrature_posterior(nn, data, 0.2)
        grid = nn.prior_density.grid
        sd_t = math.sqrt(trapezoid(tempered.values * grid**2, grid)
                         - trapezoid(tempered.values * grid, grid) ** 2)
        sd_f = math.sqrt(trapezoid(full.values * grid**2, grid)
                         - trapezoid(full.values * grid, grid) ** 2)
        assert sd_t > sd_f

    def test_logistic_likelihood_normalizes(self):
        model = logistic_model()
        for theta in (-1.0, 0.0, 2.0):
            total = sum(math.exp(float(model.loglik_sum([y], theta))) for y in (0.0, 1.0))
            assert total == pytest.approx(1.0, abs=1e-12)
