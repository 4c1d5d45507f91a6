"""Seeded verification experiments: small deterministic configurations.

Each experiment is a pure function of (parameters, seed), so every pin
below is exactly reproducible.  Full-size runs live in the acceptance
suite; these configurations shrink trial counts to keep the module tests
fast while still exercising every reporting path.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kstest

from nllvm_lab.cli import _truth_density
from nllvm_lab.gpivi import logistic_model, normal_mean_model, normal_normal_model
from nllvm_lab.verify_harness import (
    _ks_distance_chi2_1,
    check_hellinger_bound,
    check_logsup_bound,
    chi2_limit_experiment,
    gp_support_probe,
    hellinger_risk_experiment,
    l1_support_search,
    restricted_min_kl_experiment,
    risk_bound_experiment,
)

@pytest.fixture(scope="module")
def bump():
    return _truth_density("bump", 1024)


def _no_fit(*args, **kwargs):
    raise AssertionError("experiment fitted before validating n_list")


def _clean(report) -> None:
    """Invariant shared by every check: no violations means no positive margin."""
    if report.violations == 0:
        assert report.worst_margin <= 0


@pytest.mark.parametrize(
    "deltas, named",
    [
        ((), "non-empty"),
        ((math.nan,), "nan"),
        ((0.1, math.inf), "inf"),
        ((0.3, 0.3), "0.3"),
        ((0.1, 0.1000001), "0.1000001"),  # both report under the key "0.1"
    ],
)
@pytest.mark.parametrize("check", [check_logsup_bound, gp_support_probe])
def test_bad_deltas_rejected_before_any_work(bump, check, deltas, named, monkeypatch):
    def no_work(*args):
        raise AssertionError("check started before validating deltas")

    monkeypatch.setattr("nllvm_lab.verify_harness.seeded_rng", no_work)
    with pytest.raises(ValueError, match=re.escape(named)):
        check(bump, deltas=deltas)


class TestHellingerBound:
    """Mixture-vs-mixture squared Hellinger against its analytic cap."""

    def test_minimum_trials(self):
        with pytest.raises(ValueError, match="at least 100"):
            check_hellinger_bound(trials=99)

    def test_small_run_is_clean(self):
        report = check_hellinger_bound(trials=100, seed=0)
        assert report.passed
        assert report.violations == 0
        assert report.worst_margin < 0
        assert report.trials == 100
        _clean(report)


class TestLogsupBound:
    """Sup log-ratio growth under sup-norm transfer perturbations."""

    def test_small_run_is_clean(self, bump):
        report = check_logsup_bound(bump, sigma=0.1, deltas=(0.1, 0.2), trials=8, seed=0)
        assert report.passed
        assert report.trials == 16  # trials per delta, two deltas
        assert report.worst_margin < 0
        assert report.params["baseline"] > 0
        assert sorted(report.params["mean_sup_log_ratio"]) == ["0.1", "0.2"]
        _clean(report)

    def test_deltas_positive(self, bump):
        with pytest.raises(ValueError, match="positive"):
            check_logsup_bound(bump, deltas=(0.1, -0.2), trials=8)


class TestChi2Limit:
    """Twice the centering KL against its chi-square(1) limit."""

    def test_input_floors(self):
        with pytest.raises(ValueError, match="replicates"):
            chi2_limit_experiment(10000, 499)
        with pytest.raises(ValueError, match="n >= 1000"):
            chi2_limit_experiment(999, 2000)

    @settings(max_examples=60)
    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(1, 200),
            # a few repeated values give ties, and 0.0 the edge of the support
            elements=st.sampled_from([0.0, 0.5, 1.0, 4.0])
            | st.floats(-1.0, 30.0, allow_nan=False),
        )
    )
    def test_ks_distance_equals_kstest(self, x):
        expected = kstest(x, "chi2", args=(1,)).statistic
        assert _ks_distance_chi2_1(x) == expected

    def test_default_run_is_clean(self):
        report = chi2_limit_experiment(10000, 2000, seed=0)
        assert report.passed
        assert report.params["ks"] <= report.params["ks_cap"]
        assert 0.85 <= report.params["mean_statistic"] <= 1.15
        assert report.params["min_kl"] >= 0
        _clean(report)


class TestL1SupportSearch:
    """Bandwidth scan for an L1-close quantile mixture."""

    def test_finds_a_bandwidth(self, bump):
        report = l1_support_search(bump, 0.05)
        assert report.passed
        assert report.violations == 0
        assert report.params["l1"] < 0.05
        assert report.params["sigma"] > 0
        assert report.params["delta_bookkeeping"] == pytest.approx(
            0.05 * report.params["sigma"] / 4.0
        )
        # the scan stops at the first hit
        assert report.trials < 25
        _clean(report)

    def test_unreachable_eps_reports_all_failures(self, bump):
        report = l1_support_search(bump, 1e-6)
        assert not report.passed
        assert report.violations == report.trials == 25
        assert report.worst_margin > 0
        assert np.isnan(report.params["delta_bookkeeping"])

    def test_validation(self, bump):
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                l1_support_search(bump, eps)


class TestRiskBoundExperiment:
    """Fitted Renyi risk against the high-probability bound."""

    def test_runs_on_every_model(self):
        """No conjugate posterior needed: the check reads only the prior and
        the kl1, v1, renyi1 and sample_data hooks, which every model has."""
        for model in (normal_mean_model(), logistic_model()):
            report = risk_bound_experiment(model, [50, 200], 0.5, reps=3, seed=0)
            assert report.trials == 8
            assert list(report.params["per_n"]) == ["50", "200"]
            assert math.isfinite(report.worst_margin)
            assert report.passed
            _clean(report)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="reps"):
            risk_bound_experiment(normal_normal_model(), [50], 0.5, reps=0)
        with pytest.raises(ValueError, match="n_list"):
            risk_bound_experiment(normal_normal_model(), [50, 0], 0.5, reps=2)

    def test_single_n_rejected_before_any_fit(self, monkeypatch):
        # one sample size cannot show the median risk falling
        monkeypatch.setattr("nllvm_lab.verify_harness.optimize", _no_fit)
        with pytest.raises(
            ValueError, match=re.escape("n_list needs at least 2 sample sizes, got [50]")
        ):
            risk_bound_experiment(normal_normal_model(), [50], 0.5, reps=2)

    def test_two_n_mini_run(self):
        report = risk_bound_experiment(normal_normal_model(), [50, 200], 0.5, reps=2, seed=0)
        # per size, the witness check plus two replicates
        assert report.trials == 6
        assert report.violations == 0
        per_n = report.params["per_n"]
        assert list(per_n) == ["50", "200"]
        for n, at in per_n.items():
            assert set(at) == {
                "eps",
                "median_lhs",
                "rhs",
                "remainder",
                "ball_mass",
                "witness_reg",
                "witness_bound",
                "violations",
                "a1_holds",
            }
            assert at["eps"] == pytest.approx(1.0 / np.sqrt(float(n)))
            assert at["witness_reg"] <= at["witness_bound"]
            assert at["median_lhs"] <= at["rhs"] + at["remainder"]
        assert report.params["median_decay_ok"] is True
        assert report.passed
        _clean(report)

    def test_report_independent_of_n_list_order(self):
        # the decay verdict compares the smallest size with the largest
        ordered = risk_bound_experiment(normal_normal_model(), [50, 800], 0.5, reps=2)
        backwards = risk_bound_experiment(normal_normal_model(), [800, 50], 0.5, reps=2)
        assert ordered.passed and backwards.passed
        assert json.dumps(backwards.to_dict()) == json.dumps(ordered.to_dict())


class TestHellingerRiskExperiment:
    """Parametric decay of the fitted squared-Hellinger risk."""

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="reps"):
            hellinger_risk_experiment(normal_normal_model(), (50, 200), reps=0)
        with pytest.raises(ValueError, match="n_list"):
            hellinger_risk_experiment(normal_normal_model(), (0, 200), reps=1)

    @pytest.mark.parametrize("n_list", [(50,), (50, 200), (200, 50)])
    def test_fewer_than_three_sizes_rejected_before_any_fit(self, n_list, monkeypatch):
        monkeypatch.setattr("nllvm_lab.verify_harness.optimize", _no_fit)
        named = f"n_list needs at least 3 sample sizes, got {sorted(n_list)}"
        with pytest.raises(ValueError, match=re.escape(named)):
            hellinger_risk_experiment(normal_normal_model(), n_list, reps=1)

    def test_mini_run_decays(self):
        report = hellinger_risk_experiment(
            normal_normal_model(), (50, 200, 800), alpha=0.5, reps=1, seed=0
        )
        assert report.target == -1.0
        assert report.slope <= -0.8
        assert np.all(np.diff(report.ys) < 0)
        assert "slope <= -0.8" in report.note


class TestRestrictedMinKlExperiment:
    """Stochastic boundedness of the comparator-family minimum KL."""

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="reps"):
            restricted_min_kl_experiment(n_list=(100,), reps=0)
        with pytest.raises(ValueError, match="n_list"):
            restricted_min_kl_experiment(n_list=(0, 100), reps=1)

    def test_mini_run_is_bounded(self):
        report = restricted_min_kl_experiment(
            n_list=(100, 1000), reps=10, seed=0, grid_n=2048
        )
        assert report.passed
        assert report.trials == 20
        p95 = report.params["percentiles_95"]
        assert len(p95) == 2
        assert p95[1] <= report.params["ratio_cap"] * p95[0]
        _clean(report)

    def test_report_independent_of_n_list_order(self):
        # the base is the percentile at the smallest size, wherever it is listed
        ordered = restricted_min_kl_experiment(n_list=(100, 1000), reps=10, grid_n=2048)
        backwards = restricted_min_kl_experiment(n_list=(1000, 100), reps=10, grid_n=2048)
        assert json.dumps(backwards.to_dict()) == json.dumps(ordered.to_dict())


class TestGpSupportProbe:
    """Constructive prior-mass probe for sup-norm tubes."""

    @pytest.mark.parametrize("deltas", [(0.0,), (-0.1,), (0.3, 0.0)])
    def test_deltas_positive(self, bump, deltas, monkeypatch):
        # rejected before any work: the probe's rng is never built
        def no_work(*args):
            raise AssertionError("probe started before validating deltas")

        monkeypatch.setattr("nllvm_lab.verify_harness.seeded_rng", no_work)
        with pytest.raises(ValueError, match="deltas must be positive"):
            gp_support_probe(bump, deltas=deltas, n_draws=500, n_conditional=50)

    @pytest.mark.parametrize("count", ["n_draws", "n_conditional"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_draw_counts_at_least_one(self, bump, count, value, monkeypatch):
        def no_work(*args):
            raise AssertionError("probe started before validating draw counts")

        monkeypatch.setattr("nllvm_lab.verify_harness.seeded_rng", no_work)
        kwargs = {"n_draws": 500, "n_conditional": 50, count: value}
        with pytest.raises(ValueError, match=f"{count} must be at least 1, got {value}"):
            gp_support_probe(bump, deltas=(0.3,), **kwargs)

    def test_conditional_construction_lands_inside(self, bump):
        report = gp_support_probe(
            bump, deltas=(0.3,), seed=0, n_draws=500, n_conditional=50
        )
        assert report.passed
        # an odd path grid, so the anchors at every other knot interleave it
        assert report.params["n_knots"] == 65
        assert report.params["anchor_stride"] == 2
        stats = report.params["per_delta"]["0.3"]
        # raw Monte Carlo is hopeless, the conditional construction is not
        assert stats["conditional_fraction"] > 0
        assert stats["mean_interp_error"] < 0.15
        assert stats["rescale"] == pytest.approx(1.0 / 0.3)
        _clean(report)

    def test_deterministic(self, bump):
        kwargs = dict(deltas=(0.3,), seed=0, n_draws=500, n_conditional=50)
        a = gp_support_probe(bump, **kwargs)
        b = gp_support_probe(bump, **kwargs)
        assert a.to_dict() == b.to_dict()
