"""Command-line interface: parsing, ingestion, dispatch, report files.

End-to-end runs use deliberately small chains and grids; the full-size
defaults are exercised by the acceptance suite.  Reports must be
byte-stable under a fixed seed apart from ``runtime_ms`` and the file
names embedded in the config.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

from nllvm_lab.cli import (
    MAX_GRID_N,
    MIN_GRID_N,
    RunConfig,
    _config_from_args,
    _truth_density,
    build_parser,
    load_csv,
    main,
)
from nllvm_lab.reports import CheckReport


ROOT = Path(__file__).resolve().parent.parent

# the report's top-level keys, with "pass" only where the command has a verdict
_REPORT_KEYS = {"schema_version", "command", "config", "metrics", "runtime_ms", "seed"}
_PLOT_KEYS = {"plot_csv", "plot_columns"}
_CHECK_METRICS = {"name", "trials", "violations", "worst_margin", "params"} | _PLOT_KEYS
_SLOPE_METRICS = {"xs", "ys", "slope", "r2", "target", "note"} | _PLOT_KEYS


def _strict_json(text: str):
    """Parse RFC 8259 JSON: the tokens NaN, Infinity and -Infinity are errors."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


@pytest.fixture()
def normal_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    path.write_text(
        "y\n" + "\n".join(f"{v:.6f}" for v in rng.normal(1.2, 0.4, 80)) + "\n"
    )
    return path


class TestLoadCsv:
    """One-column numeric ingestion with cited line numbers."""

    def test_reads_values_in_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.5\n\n-2.0\n3.25\n")
        assert load_csv(p) == [1.5, -2.0, 3.25]

    def test_header_row_is_optional(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("Y\n0.5\n")
        assert load_csv(p) == [0.5]

    def test_bad_line_cited_one_based(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n1.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(ValueError, match="line 2.*non-finite"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not found"):
            load_csv(tmp_path / "absent.csv")

    def test_no_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(p)


class TestRunConfig:
    """Validated invocation records."""

    def test_round_trip(self):
        cfg = RunConfig("estimate", "out.json", seed=3, grid_n=256,
                        input_path="d.csv", params={"iters": 10})
        raw = asdict(cfg)
        assert raw["command"] == "estimate"
        assert raw["grid_n"] == 256
        assert raw["params"] == {"iters": 10}

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown command"):
            RunConfig("train", "out.json")
        with pytest.raises(ValueError, match="--grid"):
            RunConfig("estimate", "out.json", grid_n=MIN_GRID_N - 1)
        with pytest.raises(ValueError, match="--grid"):
            RunConfig("estimate", "out.json", grid_n=MAX_GRID_N + 1)
        with pytest.raises(ValueError, match="--seed"):
            RunConfig("estimate", "out.json", seed=-1)
        assert RunConfig("verify", "out.json").grid_n is None
        with pytest.raises(ValueError, match="--out"):
            RunConfig("estimate", "")


class TestTruthDensities:
    """Built-in known densities for the experiments."""

    def test_all_names_are_normalized(self):
        for name in ("bump", "bimodal", "normal"):
            dens = _truth_density(name, 1024)
            assert trapezoid(dens.values, dx=dens.spacing) == pytest.approx(1.0, abs=1e-12)
            assert (dens.lo, dens.hi) == (-1.0, 2.0)

    def test_bimodal_is_symmetric_about_midpoint(self):
        dens = _truth_density("bimodal", 1024)
        np.testing.assert_allclose(dens.values, dens.values[::-1], atol=1e-12)
        # a genuine dip between the modes
        assert dens.pdf_at(np.array([0.5]))[0] < 0.5 * dens.values.max()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown truth"):
            _truth_density("cauchy", 1024)


class TestParser:
    """Argparse wiring: defaults and usage failures exit 2."""

    def test_estimate_defaults(self):
        args = build_parser().parse_args(
            ["estimate", "--data", "d.csv", "--out", "o.json"]
        )
        assert (args.iters, args.burn, args.thin, args.grid) == (4000, 1000, 10, 1024)
        assert args.seed == 0

    def test_vi_defaults(self):
        args = build_parser().parse_args(["vi", "--data", "d.csv", "--out", "o.json"])
        assert args.model == "normal-normal"
        assert args.alpha == 0.99
        assert (args.knots, args.iters, args.grid) == (16, 60, 4096)

    def test_contract_defaults(self):
        args = build_parser().parse_args(["contract", "--out", "o.json"])
        assert args.n_list == [100, 400, 1600]
        assert (args.reps, args.iters, args.burn, args.thin) == (5, 1500, 500, 5)
        assert args.truth == "normal"

    def test_verify_chi2_defaults(self):
        args = build_parser().parse_args(["verify", "chi2-limit", "--out", "o.json"])
        assert (args.n, args.reps) == (10000, 2000)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["train", "--out", "o.json"],
            ["estimate", "--out", "o.json"],  # --data is required
            ["estimate", "--data", "d.csv"],  # --out is required
            ["verify", "--out", "o.json"],  # check name is required
            ["verify", "bogus-check", "--out", "o.json"],
            ["contract", "--n-list", "a,b", "--out", "o.json"],
            ["vi", "--data", "d.csv", "--model", "poisson", "--out", "o.json"],
        ],
    )
    def test_usage_errors_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["contract", "--n-list", "20,x"], "not a comma-separated int list: '20,x'"),
            (["contract", "--n-list", "1.5"], "not a comma-separated int list: '1.5'"),
            (["verify", "support-probe", "--deltas", "0.1,y"],
             "not a comma-separated float list: '0.1,y'"),
            (["verify", "logsup-bound", "--deltas", " , "], "empty list"),
        ],
        ids=["int-word", "int-decimal", "float-word", "empty"],
    )
    def test_list_flags_name_their_type(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--out", "o.json"])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    # vi and l1-support draw no random numbers, so they take no seed
    @pytest.mark.parametrize(
        "argv",
        [
            ["vi", "--data", "d.csv", "--seed", "1", "--out", "o.json"],
            ["verify", "l1-support", "--seed", "1", "--out", "o.json"],
        ],
        ids=["vi", "l1-support"],
    )
    def test_seed_is_a_usage_error_where_nothing_is_drawn(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    # a report records the grid its run used, and no grid where there is no --grid
    @pytest.mark.parametrize(
        "argv, grid_n",
        [
            (["estimate", "--data", "d.csv"], 1024),
            (["vi", "--data", "d.csv"], 4096),
            (["contract"], 1024),
            (["verify", "logsup-bound"], 2048),
            (["verify", "l1-support"], 2048),
            (["verify", "support-probe", "--grid", "512"], 512),
            (["verify", "hellinger-bound"], None),
            (["verify", "chi2-limit"], None),
            (["verify", "risk-bound"], None),
            (["verify", "hellinger-risk"], None),
            (["verify", "restricted-kl"], None),
        ],
        ids=["estimate", "vi", "contract", "logsup-bound", "l1-support", "support-probe",
             "hellinger-bound", "chi2-limit", "risk-bound", "hellinger-risk", "restricted-kl"],
    )
    def test_config_holds_the_grid_only_where_there_is_one(self, argv, grid_n):
        parser = build_parser()
        cfg = _config_from_args(parser.parse_args([*argv, "--out", "o.json"]), parser)
        assert cfg.grid_n == grid_n

    def test_grid_bounds_rejected_at_parse_time(self, normal_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", str(normal_csv), "--grid", "32",
                  "--out", str(tmp_path / "o.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            # paths are compared after resolving, so ".." does not hide a clash
            (["estimate", "--data", "{data}", "--out", "{dir}/../{dir_name}/est.json"],
             "or its CSV sidecar would overwrite --data"),
            (["vi", "--data", "{data}", "--out", "{data}"], "is its own CSV sidecar"),
            (["verify", "support-probe", "--out", "{dir}/probe.csv"],
             "is its own CSV sidecar"),
        ],
        ids=["sidecar-is-data", "out-is-data", "sidecar-is-report"],
    )
    def test_output_that_would_overwrite_data_or_report_exits_two(
        self, normal_csv, tmp_path, capsys, argv, named
    ):
        # the data sits at est.csv, which est.json's sidecar would replace
        data = normal_csv.rename(tmp_path / "est.csv")
        before = data.read_bytes()
        fields = {"data": data, "dir": tmp_path, "dir_name": tmp_path.name}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**fields) for arg in argv])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert data.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv"]


class TestMainEndToEnd:
    """Full command runs with small chains and their report files."""

    def test_estimate_writes_report_and_sidecar(self, normal_csv, tmp_path):
        out = tmp_path / "est.json"
        rc = main(["estimate", "--data", str(normal_csv), "--iters", "60",
                   "--burn", "20", "--thin", "4", "--grid", "256",
                   "--out", str(out)])
        assert rc == 0
        report = _strict_json(out.read_text())
        assert set(report) == _REPORT_KEYS  # no "pass": estimation asserts nothing
        assert report["schema_version"] == "1"
        assert report["command"] == "estimate"
        metrics = report["metrics"]
        assert set(metrics) == {
            "n_obs", "kept_states", "noise_scale_mean", "standardize_center",
            "standardize_scale", "predictive_window",
        } | _PLOT_KEYS
        assert metrics["n_obs"] == 80
        assert metrics["kept_states"] == 10
        assert metrics["plot_columns"] == ["y", "predictive_density"]

        sidecar = tmp_path / "est.csv"
        lines = sidecar.read_text().splitlines()
        assert lines[0] == "y,predictive_density"
        assert len(lines) == 1 + 256
        # the predictive integrates to one on its padded window
        ys, ps = np.loadtxt(lines[1:], delimiter=",", unpack=True)
        assert np.trapezoid(ps, ys) == pytest.approx(1.0, abs=1e-6)

    def test_vi_conjugate_model_matches_posterior(self, tmp_path):
        rng = np.random.default_rng(1)
        csv = tmp_path / "vi-data.csv"
        csv.write_text("\n".join(f"{v:.6f}" for v in rng.normal(0.3, 1.0, 30)) + "\n")
        out = tmp_path / "vi.json"
        rc = main(["vi", "--data", str(csv), "--alpha", "0.9", "--iters", "20",
                   "--knots", "12", "--grid", "1024", "--out", str(out)])
        assert rc == 0
        report = _strict_json(out.read_text())
        assert set(report) == _REPORT_KEYS  # no "pass": a fit asserts nothing
        metrics = report["metrics"]
        assert set(metrics) == {
            "model", "alpha", "n_obs", "objective", "converged", "stalled",
            "n_sweeps", "noise_scale", "kl_to_posterior",
        } | _PLOT_KEYS
        assert metrics["kl_to_posterior"] < 0.05
        assert metrics["plot_columns"] == [
            "theta", "variational_density", "posterior_density",
        ]

    def test_vi_normal_mean_default_flags(self, tmp_path):
        # the flat prior on [-1, 1] with default flags: the start must put
        # no q mass outside the prior's support, or the fit cannot begin
        rng = np.random.default_rng(1)
        csv = tmp_path / "nm-data.csv"
        csv.write_text("\n".join(f"{v:.6f}" for v in rng.normal(0.3, 1.0, 30)) + "\n")
        out = tmp_path / "nm.json"
        rc = main(["vi", "--data", str(csv), "--model", "normal-mean", "--out", str(out)])
        assert rc == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["model"] == "normal-mean"
        assert np.isfinite(metrics["objective"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "logistic", "--prior-sigma", "1.5"],
            ["--model", "normal-normal", "--obs-sigma", "3", "--prior-sigma", "3"],
        ],
        ids=["logistic", "normal-normal"],
    )
    def test_vi_one_datum_under_a_wide_prior(self, tmp_path, flags):
        # one datum leaves the tempered posterior almost as wide as the
        # prior; the start must still fit inside the prior's window
        csv = tmp_path / "one-data.csv"
        csv.write_text("1\n")
        out = tmp_path / "one.json"
        rc = main(["vi", "--data", str(csv), *flags, "--out", str(out)])
        assert rc == 0
        assert np.isfinite(json.loads(out.read_text())["metrics"]["objective"])

    def test_vi_grid_too_coarse_for_the_fit_names_its_spacing(self, tmp_path, capsys):
        # --grid 64 is legal and the fit succeeds, but its q is narrower than
        # the 64-point prior grid's spacing: the error blames the grid, not
        # only the window
        rng = np.random.default_rng(0)
        csv = tmp_path / "coarse-data.csv"
        csv.write_text("".join(f"{y!r}\n" for y in rng.normal(0.3, 1.0, 200).tolist()))
        out = tmp_path / "coarse.json"
        rc = main(["vi", "--data", str(csv), "--grid", "64", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lost mass" in err
        assert "grid spacing 0.254" in err
        assert "widen the window or refine its grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("mean", [3.0, 50.0, -3.0])
    def test_vi_normal_mean_data_outside_the_flat_prior(self, tmp_path, mean):
        # the tempered posterior piles up at the prior's end; the start
        # must still sit inside the support with a spread the window admits,
        # and the reported posterior must keep its mass there
        rng = np.random.default_rng(0)
        csv = tmp_path / "far-data.csv"
        csv.write_text("".join(f"{y:.17g}\n" for y in mean + 0.3 * rng.standard_normal(200)))
        out = tmp_path / "far.json"
        rc = main(["vi", "--data", str(csv), "--model", "normal-mean", "--alpha", "0.9",
                   "--out", str(out)])
        assert rc == 0
        assert np.isfinite(json.loads(out.read_text())["metrics"]["objective"])

    def test_vi_normal_normal_data_far_outside_the_prior_window(self, tmp_path):
        # the posterior piles up at the window's end; its column is built
        # in log space, so it keeps its mass and the KL stays finite
        csv = tmp_path / "far-data.csv"
        data = 50.0 + np.random.default_rng(0).standard_normal(200)
        csv.write_text("".join(f"{y:.17g}\n" for y in data))
        out = tmp_path / "far.json"
        rc = main(["vi", "--data", str(csv), "--model", "normal-normal", "--out", str(out)])
        assert rc == 0
        assert np.isfinite(json.loads(out.read_text())["metrics"]["kl_to_posterior"])

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_vi_iters_below_one_rejected(self, tmp_path, capsys, iters):
        csv = tmp_path / "vi-data.csv"
        csv.write_text("0.1\n0.4\n0.2\n")
        out = tmp_path / "vi.json"
        rc = main(["vi", "--data", str(csv), "--iters", iters, "--out", str(out)])
        assert rc == 1
        assert "nllvm-lab: error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "-0.2"])
    def test_vi_alpha_outside_unit_interval_rejected(self, tmp_path, capsys, alpha):
        csv = tmp_path / "vi-data.csv"
        csv.write_text("0.1\n0.4\n0.2\n")
        out = tmp_path / "vi.json"
        rc = main(["vi", "--data", str(csv), f"--alpha={alpha}", "--out", str(out)])
        assert rc == 1
        assert "nllvm-lab: error: alpha must lie in (0,1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0.5,0.3,0.9,0.2", "1,0,3,2.5"])
    def test_vi_logistic_rejects_non_binary_data(self, tmp_path, capsys, values):
        csv = tmp_path / "logit-data.csv"
        csv.write_text(values.replace(",", "\n") + "\n")
        out = tmp_path / "logit.json"
        rc = main(["vi", "--data", str(csv), "--model", "logistic", "--out", str(out)])
        assert rc == 1
        assert "error: logistic-intercept data must be 0 or 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--theta-star", "nan"], "theta_star"),
            (["--model", "logistic", "--theta-star", "inf"], "theta_star"),
            (["--prior-sigma", "inf"], "prior_sigma"),
            (["--prior-mu", "nan"], "prior_mu"),
        ],
        ids=["nan-theta-star", "logistic-inf-theta-star", "inf-prior-sigma", "nan-prior-mu"],
    )
    def test_vi_non_finite_model_parameter_rejected(self, tmp_path, capsys, flags, name):
        csv = tmp_path / "vi-data.csv"
        csv.write_text("0.1\n0.4\n0.2\n")
        out = tmp_path / "vi.json"
        rc = main(["vi", "--data", str(csv), *flags, "--out", str(out)])
        assert rc == 1
        assert f"nllvm-lab: error: {name} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_vi_logistic_uses_quadrature_posterior(self, tmp_path):
        rng = np.random.default_rng(2)
        csv = tmp_path / "logit-data.csv"
        csv.write_text("\n".join(str(int(v)) for v in (rng.random(40) < 0.62)) + "\n")
        out = tmp_path / "logit.json"
        rc = main(["vi", "--data", str(csv), "--model", "logistic",
                   "--alpha", "0.9", "--iters", "15", "--knots", "10",
                   "--grid", "512", "--out", str(out)])
        assert rc == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["kl_to_posterior"] < 0.1

    def test_contract_mini_run(self, tmp_path):
        out = tmp_path / "con.json"
        rc = main(["contract", "--n-list", "20,40,320", "--reps", "1",
                   "--iters", "60", "--burn", "20", "--thin", "4",
                   "--grid", "256", "--truth", "normal", "--out", str(out)])
        report = _strict_json(out.read_text())
        assert set(report) == _REPORT_KEYS | {"pass"}
        assert set(report["metrics"]) == _SLOPE_METRICS
        assert isinstance(report["pass"], bool)
        assert rc == (0 if report["pass"] else 1)
        assert len(report["metrics"]["ys"]) == 3
        assert "seed" not in report["metrics"]
        assert report["seed"] == report["config"]["seed"]
        sidecar = (tmp_path / "con.csv").read_text().splitlines()
        assert sidecar[0] == "n,median_hellinger_sq"
        assert len(sidecar) == 4

    def test_contract_aborted_chain_exits_one(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("proposal out of range")

        monkeypatch.setattr("nllvm_lab.nllvm_posterior.update_sigma", broken)
        out = tmp_path / "con.json"
        rc = main(["contract", "--n-list", "20,40,320", "--reps", "1",
                   "--iters", "60", "--burn", "20", "--out", str(out)])
        assert rc == 1
        assert "nllvm-lab: error: chain aborted at iteration 1" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_chi2_default_run_passes(self, tmp_path):
        out = tmp_path / "chi2.json"
        rc = main(["verify", "chi2-limit", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["command"] == "verify chi2-limit"
        assert report["pass"] is True
        assert report["metrics"]["params"]["ks"] <= 0.05

    def test_reports_deterministic_up_to_runtime(self, tmp_path):
        rng = np.random.default_rng(1)
        csv = tmp_path / "vi.csv"
        csv.write_text("\n".join(f"{v:.6f}" for v in rng.normal(0.3, 1.0, 30)) + "\n")

        def run(tag: str) -> dict:
            out = tmp_path / f"{tag}.json"
            assert main(["vi", "--data", str(csv), "--alpha", "0.9",
                         "--iters", "15", "--knots", "10", "--grid", "512",
                         "--out", str(out)]) == 0
            raw = json.loads(out.read_text())
            assert raw["seed"] == raw["config"]["seed"] == 0
            raw.pop("runtime_ms")
            raw["config"].pop("output_path")
            raw["metrics"].pop("plot_csv")
            return raw

        assert run("a") == run("b")

    def test_reports_identical_across_thread_counts(self, tmp_path, monkeypatch):
        # risk-bound runs its replicates on the parallel_map pool
        def run(threads: str) -> dict:
            monkeypatch.setenv("NLLVM_LAB_THREADS", threads)
            out = tmp_path / f"threads{threads}.json"
            rc = main(["verify", "risk-bound", "--n-list", "50,100", "--reps", "2",
                       "--out", str(out)])
            raw = json.loads(out.read_text())
            assert rc == (0 if raw["pass"] else 1)
            raw.pop("runtime_ms")
            raw["config"].pop("output_path")
            raw["metrics"].pop("plot_csv")
            return raw

        assert run("1") == run("2")

    def test_contract_identical_across_thread_counts(self, tmp_path, monkeypatch):
        # contract runs its fits on the parallel_map pool
        def run(threads: str) -> tuple:
            monkeypatch.setenv("NLLVM_LAB_THREADS", threads)
            out = tmp_path / f"con{threads}.json"
            rc = main(["contract", "--n-list", "20,40,320", "--reps", "1",
                       "--iters", "60", "--burn", "20", "--thin", "4",
                       "--grid", "256", "--out", str(out)])
            raw = json.loads(out.read_text())
            assert rc == (0 if raw["pass"] else 1)
            raw.pop("runtime_ms")
            raw["config"].pop("output_path")
            sidecar = raw["metrics"].pop("plot_csv")
            return raw, (tmp_path / sidecar).read_text()

        assert run("1") == run("2")

    def test_estimate_identical_across_thread_counts(self, normal_csv, tmp_path, monkeypatch):
        def run(threads: str) -> tuple:
            monkeypatch.setenv("NLLVM_LAB_THREADS", threads)
            out = tmp_path / f"est{threads}.json"
            assert main(["estimate", "--data", str(normal_csv), "--iters", "60",
                         "--burn", "20", "--thin", "4", "--grid", "256",
                         "--out", str(out)]) == 0
            raw = json.loads(out.read_text())
            raw.pop("runtime_ms")
            raw["config"].pop("output_path")
            sidecar = raw["metrics"].pop("plot_csv")
            return raw, (tmp_path / sidecar).read_text()

        assert run("1") == run("2")

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        rc = main(["estimate", "--data", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "nllvm-lab: error:" in capsys.readouterr().err

    def test_bad_data_line_cited(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("1.0\n2.0\nnan\n")
        rc = main(["estimate", "--data", str(csv), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err

    def test_support_probe_rejects_nonpositive_delta(self, tmp_path, capsys):
        rc = main(["verify", "support-probe", "--deltas", "0,0.1",
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "nllvm-lab: error: deltas must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify", "risk-bound", "--n-list", "50,50", "--reps", "2"],
             "n_list repeats the sample size 50"),
            (["verify", "hellinger-risk", "--n-list", "50,50,200"],
             "n_list repeats the sample size 50"),
            (["verify", "restricted-kl", "--n-list", "100,1000,100"],
             "n_list repeats the sample size 100"),
            (["contract", "--n-list", "20,20,320"], "n_list repeats the sample size 20"),
            (["contract", "--n-list", "20,320"], "n_list needs at least 3 sample sizes"),
            (["verify", "risk-bound", "--n-list", "50"],
             "n_list needs at least 2 sample sizes, got [50]"),
            (["verify", "hellinger-risk", "--n-list", "50,200"],
             "n_list needs at least 3 sample sizes, got [50, 200]"),
            *[(["verify", "risk-bound", "--eps-scale", bad],
               f"eps_scale / sqrt(50) must be positive and finite, got {got}")
              for bad, got in (("inf", "inf"), ("0", "0.0"), ("nan", "nan"),
                               ("5e-324", "0.0"))],
            (["verify", "l1-support", "--eps", "nan"], "eps must be positive and finite"),
            (["verify", "l1-support", "--eps", "inf"], "eps must be positive and finite"),
            *[(["verify", "logsup-bound", "--sigma", bad],
               f"sigma must be positive and finite, got {float(bad)}")
              for bad in ("nan", "inf", "0", "-0.1")],
            *[(["verify", "logsup-bound", "--trials", bad],
               f"trials must be at least 1, got {bad}")
              for bad in ("0", "-3")],
        ],
        ids=["risk-bound-repeat", "hellinger-risk-repeat", "restricted-kl-repeat",
             "contract-repeat", "contract-two-sizes", "risk-bound-one-size",
             "hellinger-risk-two-sizes", "risk-bound-eps-inf", "risk-bound-eps-zero",
             "risk-bound-eps-nan", "risk-bound-eps-underflow",
             "l1-support-eps-nan", "l1-support-eps-inf", "logsup-sigma-nan",
             "logsup-sigma-inf", "logsup-sigma-zero", "logsup-sigma-negative",
             "logsup-trials-zero", "logsup-trials-negative"],
    )
    def test_bad_sizes_and_eps_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, named
    ):
        def no_work(*args):
            raise AssertionError("experiment started before validating its inputs")

        monkeypatch.setattr("nllvm_lab.verify_harness.seeded_rng", no_work)
        monkeypatch.setattr("nllvm_lab.nllvm_posterior.seeded_rng", no_work)
        out = tmp_path / "o.json"
        rc = main([*argv, "--out", str(out)])
        assert rc == 1
        assert f"nllvm-lab: error: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("check", ["support-probe", "logsup-bound"])
    def test_repeated_delta_exits_one(self, tmp_path, capsys, check):
        # one report entry per delta, so a repeat would give two rows for one run
        out = tmp_path / "o.json"
        rc = main(["verify", check, "--deltas", "0.3,0.3", "--out", str(out)])
        assert rc == 1
        assert "share the report key '0.3'" in capsys.readouterr().err
        assert not out.exists()

    def test_logsup_rows_carry_the_requested_delta(self, tmp_path):
        out = tmp_path / "ls.json"
        rc = main(["verify", "logsup-bound", "--deltas", "0.1234567,0.05",
                   "--trials", "2", "--out", str(out)])
        assert rc == 0
        params = json.loads(out.read_text())["metrics"]["params"]
        lines = (tmp_path / "ls.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.05", "0.1234567"]
        d = 0.1234567
        budget = params["baseline"] + d**2 / params["sigma"] ** 2 + params["slack"]
        assert lines[2].split(",")[2] == str(budget)

    # the smallest sizes each check accepts, and the CSV rows each should
    # write; on the default truth no run warns (l1-support runs all defaults)
    @pytest.mark.parametrize(
        "check, flags, n_rows",
        [
            ("hellinger-bound", ["--trials", "100"], 1),
            ("logsup-bound", ["--trials", "2"], 3),
            ("chi2-limit", ["--n", "1000", "--reps", "500"], 1),
            ("l1-support", [], 1),
            ("risk-bound", ["--n-list", "50,100", "--reps", "2"], 2),
            ("hellinger-risk", ["--n-list", "50,100,200", "--reps", "1"], 3),
            ("restricted-kl", ["--n-list", "100", "--reps", "1"], 1),
            ("support-probe", ["--deltas", "0.3"], 1),
        ],
    )
    def test_every_verify_check_runs(self, tmp_path, check, flags, n_rows):
        out = tmp_path / "v.json"
        assert main(["verify", check, *flags, "--out", str(out)]) == 0
        report = _strict_json(out.read_text())
        assert set(report) == _REPORT_KEYS | {"pass"}
        assert report["pass"] is True
        metric_keys = _SLOPE_METRICS if check == "hellinger-risk" else _CHECK_METRICS
        assert set(report["metrics"]) == metric_keys
        assert report["command"] == f"verify {check}"
        # the seed is recorded once, by the run, not again in the metrics
        assert "seed" not in report["metrics"]
        assert report["seed"] == report["config"]["seed"]
        lines = (tmp_path / report["metrics"]["plot_csv"]).read_text().splitlines()
        assert lines[0].split(",") == report["metrics"]["plot_columns"]
        assert len(lines) == 1 + n_rows

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "l1-support", "--eps", "1e-6"],
            ["verify", "support-probe", "--deltas", "0.001"],
        ],
        ids=["l1-support", "support-probe"],
    )
    def test_failing_check_writes_strict_json(self, tmp_path, capsys, argv):
        out = tmp_path / "v.json"
        assert main([*argv, "--out", str(out)]) == 1
        assert f"nllvm-lab: {' '.join(argv[:2])}: FAIL" in capsys.readouterr().err
        report = _strict_json(out.read_text())
        assert report["pass"] is False
        if argv[1] == "l1-support":
            # no bandwidth reached eps, so there is no delta to report
            assert report["metrics"]["params"]["delta_bookkeeping"] is None

    # harness verdicts may be numpy bools; the report's "pass" is a JSON bool
    @pytest.mark.parametrize("passed, rc", [(np.bool_(True), 0), (np.bool_(False), 1)],
                             ids=["pass", "fail"])
    def test_numpy_values_serialize(self, tmp_path, monkeypatch, passed, rc):
        def numpy_report(trials, seed):
            params = {"array": np.arange(3), "scalar": np.float32(0.5),
                      "nested": [np.int64(2), {"flag": np.bool_(True)}]}
            return CheckReport("numpy", trials=np.int64(trials), violations=np.int64(0),
                               worst_margin=np.float64(-0.25), passed=passed, params=params)

        monkeypatch.setattr("nllvm_lab.verify_harness.check_hellinger_bound", numpy_report)
        out = tmp_path / "v.json"
        assert main(["verify", "hellinger-bound", "--trials", "3", "--out", str(out)]) == rc
        report = _strict_json(out.read_text())
        assert report["pass"] is bool(passed)
        metrics = report["metrics"]
        assert (metrics["trials"], metrics["violations"], metrics["worst_margin"]) == (3, 0, -0.25)
        assert metrics["params"] == {"array": [0, 1, 2], "scalar": 0.5,
                                     "nested": [2, {"flag": True}]}

    @pytest.mark.parametrize(
        "margin, params, named",
        [
            (math.nan, {}, "Out of range float values are not JSON compliant"),
            (-1.0, {"bound": -math.inf}, "Out of range float values are not JSON compliant"),
            (-1.0, {"bound": np.float32("nan")},
             "Out of range float values are not JSON compliant"),
            (-1.0, {"bound": {1.0}}, "set is not JSON serializable"),
        ],
        ids=["nan-margin", "infinite-param", "numpy-nan-param", "set-param"],
    )
    def test_report_that_is_not_strict_json_is_not_written(
        self, tmp_path, capsys, monkeypatch, margin, params, named
    ):
        def bad_report(trials, seed):
            return CheckReport("bad", trials=trials, violations=0, worst_margin=margin,
                               passed=True, params=params)

        monkeypatch.setattr("nllvm_lab.verify_harness.check_hellinger_bound", bad_report)
        out = tmp_path / "sub" / "v.json"
        rc = main(["verify", "hellinger-bound", "--trials", "3", "--out", str(out)])
        assert rc == 1
        assert f"nllvm-lab: error: {named}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_bad_thread_count_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NLLVM_LAB_THREADS", "abc")
        rc = main(["verify", "risk-bound", "--n-list", "50,100", "--reps", "2",
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "nllvm-lab: error:" in err
        assert "NLLVM_LAB_THREADS" in err

    def test_console_script_help(self):
        # the declared entry point, run as the installed script would run it,
        # with the package imported from src/ rather than from an install
        import tomllib  # Python >= 3.11

        with open(ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["nllvm-lab"] == "nllvm_lab.cli:main"
        module, func = scripts["nllvm-lab"].split(":")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {func}; sys.exit({func}())",
             "--help"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0
        assert "estimate" in proc.stdout

    # scipy.optimize is imported at the first fit, and the trapezoid rule is
    # grid_density's own, so the package loads only scipy.special and linalg
    @pytest.mark.parametrize("module", ["scipy.stats", "scipy.integrate", "scipy.optimize"])
    def test_import_does_not_load(self, module):
        # a fresh interpreter: this one has these from other tests. The
        # package imports .cli and verify_harness, so this covers every command
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, nllvm_lab; print({module!r} in sys.modules)"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
