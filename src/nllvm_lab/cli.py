"""Command-line front door: data ingestion, dispatch, report serialization.

Grammar::

    nllvm-lab <estimate|vi|verify <check-name>|contract> [flags]

All flags are long-form, ``--out`` is required, and each command that
draws random numbers takes a single ``--seed``; worker streams are derived
from it by hashing stable labels, so identical invocations on identical
inputs produce byte-identical reports apart from ``runtime_ms``.  The
environment variable ``NLLVM_LAB_THREADS`` caps the worker count of
experiments that parallelize across replicates (default: logical cores).

Each run writes a single JSON report (schema version "1") to ``--out`` and
a plot-ready CSV sidecar next to it; the sidecar's file name and column
names are recorded in the report's ``metrics``.  An ``--out`` whose report
or sidecar would overwrite ``--data``, or that is its own sidecar, is a
usage error.  Exit codes: 0 success, 1 experiment failure or runtime error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import verify_harness
from .gpivi import (
    logistic_model,
    normal_mean_model,
    normal_normal_model,
    optimize,
    q_density,
    quadrature_posterior,
)
from .grid_density import KL, GridDensity, GridSpec, divergence, smooth_bump
from .nllvm_posterior import contraction_experiment, fit_mcmc, predictive_density

SCHEMA_VERSION = "1"

MIN_GRID_N = 64
MAX_GRID_N = 65536

_COMMANDS = ("estimate", "vi", "verify", "contract")
_TRUTHS = ("bump", "bimodal", "normal")
_MODELS = ("normal-mean", "normal-normal", "logistic")


# ---------------------------------------------------------------------------
# run configuration and report records


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI invocation."""

    command: str
    output_path: str
    seed: int = 0
    grid_n: int = 1024
    input_path: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(
                f"unknown command {self.command!r}; choose from {_COMMANDS}"
            )
        if not (MIN_GRID_N <= self.grid_n <= MAX_GRID_N):
            raise ValueError(
                f"--grid must lie in [{MIN_GRID_N}, {MAX_GRID_N}], got {self.grid_n}"
            )
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if not self.output_path:
            raise ValueError("--out is required")
        out = Path(self.output_path)
        written = {out.resolve(), out.with_suffix(".csv").resolve()}
        if len(written) == 1:
            raise ValueError(f"--out {out} is its own CSV sidecar; give it another suffix")
        if self.input_path is not None and Path(self.input_path).resolve() in written:
            raise ValueError(
                f"--out {out} or its CSV sidecar would overwrite --data {self.input_path}"
            )

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "output_path": str(self.output_path),
            "seed": int(self.seed),
            "grid_n": int(self.grid_n),
            "input_path": None if self.input_path is None else str(self.input_path),
            "params": _jsonable(self.params),
        }


@dataclass
class Report:
    """Serialized outcome of one CLI run (schema version "1").

    ``passed`` is a three-way flag: True/False for experiments that assert
    something, None for plain estimation commands; it is serialized under
    the key ``"pass"`` and omitted when None.
    """

    command: str
    config: dict
    metrics: dict
    runtime_ms: int
    seed: int
    passed: Optional[bool] = None
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": _jsonable(self.config),
            "metrics": _jsonable(self.metrics),
            "runtime_ms": int(self.runtime_ms),
            "seed": int(self.seed),
        }
        if self.passed is not None:
            out["pass"] = bool(self.passed)
        return out


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps succeeds."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# data ingestion


def load_csv(path) -> list:
    """Parse a one-column numeric CSV (optional header row ``y``).

    Returns the values in file order.  Blank lines are skipped; any
    non-numeric or non-finite row is rejected with its 1-based line number.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    lines = p.read_text().splitlines()
    start = 1 if lines and lines[0].strip().lower() == "y" else 0
    values = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        text = raw.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: could not parse {text!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite value {text!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return values


# ---------------------------------------------------------------------------
# built-in truth densities for experiments that need a known f0


def _truth_density(name: str, grid_n: int) -> GridDensity:
    spec = GridSpec(-1.0, 2.0, grid_n)
    if name == "bump":
        return smooth_bump(spec, 0.1, 0.9, 2.0)
    if name == "bimodal":
        left = smooth_bump(spec, 0.05, 0.45, 2.0)
        right = smooth_bump(spec, 0.55, 0.95, 2.0)
        return GridDensity(spec.lo, spec.hi, 0.5 * left.values + 0.5 * right.values)
    if name == "normal":
        x = spec.points()
        return GridDensity(spec.lo, spec.hi, np.exp(-((x - 0.5) ** 2) / (2 * 0.2**2)))
    raise ValueError(f"unknown truth density {name!r}; choose from {_TRUTHS}")


def _build_model(params: dict, grid_n: int):
    name = params["model"]
    if name == "normal-mean":
        return normal_mean_model(
            sigma=params["obs_sigma"],
            theta_star=params["theta_star"],
            grid_n=grid_n,
        )
    if name == "normal-normal":
        return normal_normal_model(
            sigma=params["obs_sigma"],
            prior_mu=params["prior_mu"],
            prior_sigma=params["prior_sigma"],
            theta_star=params["theta_star"],
            grid_n=grid_n,
        )
    if name == "logistic":
        return logistic_model(
            theta_star=params["theta_star"],
            prior_sigma=params["prior_sigma"],
            grid_n=grid_n,
        )
    raise ValueError(f"unknown model {name!r}; choose from {_MODELS}")


# ---------------------------------------------------------------------------
# command handlers: each returns (metrics, passed, (csv_header, csv_rows))


def _cmd_estimate(cfg: RunConfig):
    params = cfg.params
    data = np.asarray(load_csv(cfg.input_path), dtype=float)
    center = float(np.mean(data))
    scale = float(np.std(data))
    if scale == 0.0:
        scale = 1.0
    samples = fit_mcmc(
        (data - center) / scale,
        iters=params["iters"],
        burn_in=params["burn"],
        thin=params["thin"],
        seed=cfg.seed,
    )

    pred_z = predictive_density(samples, GridSpec(*samples.covering_window(), cfg.grid_n))
    ygrid = center + scale * pred_z.grid
    predictive = GridDensity(float(ygrid[0]), float(ygrid[-1]), pred_z.values / scale)

    metrics = {
        "n_obs": int(data.size),
        "kept_states": samples.sigma.size,
        "noise_scale_mean": float(np.mean(samples.sigma)) * scale,
        "standardize_center": center,
        "standardize_scale": scale,
        "predictive_window": [predictive.lo, predictive.hi],
    }
    rows = list(zip(ygrid.tolist(), predictive.values.tolist()))
    return metrics, None, (("y", "predictive_density"), rows)


def _cmd_vi(cfg: RunConfig):
    params = cfg.params
    data = np.asarray(load_csv(cfg.input_path), dtype=float)
    model = _build_model(params, cfg.grid_n)
    result = optimize(
        model,
        data,
        params["alpha"],
        knots=params["knots"],
        iters=params["iters"],
    )
    spec = model.prior_density.spec
    q = q_density(result.params, spec)
    posterior = quadrature_posterior(model, data, 1.0)
    metrics = {
        "model": params["model"],
        "alpha": params["alpha"],
        "n_obs": int(data.size),
        "objective": result.objective,
        "converged": result.converged,
        "stalled": result.stalled,
        "n_sweeps": result.n_sweeps,
        "noise_scale": result.params.sigma,
        "kl_to_posterior": divergence(KL, q, posterior),
    }
    rows = list(
        zip(spec.points().tolist(), q.values.tolist(), posterior.values.tolist())
    )
    header = ("theta", "variational_density", "posterior_density")
    return metrics, None, (header, rows)


def _cmd_contract(cfg: RunConfig):
    params = cfg.params
    f0 = _truth_density(params["truth"], cfg.grid_n)
    report = contraction_experiment(
        f0,
        params["n_list"],
        params["reps"],
        cfg.seed,
        mcmc_iters=params["iters"],
        burn_in=params["burn"],
        thin=params["thin"],
    )
    metrics = report.to_dict()
    passed = metrics.pop("pass")
    rows = list(zip(metrics["xs"], metrics["ys"]))
    return metrics, passed, (("n", "median_hellinger_sq"), rows)


def _logsup_rows(report, params):
    # rows carry the requested deltas: the report's keys are rounded by :g
    p = report.params
    rows = []
    for d in sorted(params["deltas"]):
        budget = p["baseline"] + d**2 / p["sigma"] ** 2 + p["slack"]
        rows.append((d, p["mean_sup_log_ratio"][f"{d:g}"], budget))
    return rows


def _risk_bound_rows(report, params):
    rows = []
    for n in sorted(params["n_list"]):
        at = report.params["per_n"][str(n)]
        rows.append((n, at["median_lhs"], at["rhs"] + at["remainder"], at["violations"]))
    return rows


def _support_probe_rows(report, params):
    rows = []
    for d in sorted(params["deltas"], reverse=True):
        at = report.params["per_delta"][f"{d:g}"]
        rows.append((d, at["conditional_fraction"], at["mc_fraction"], at["mean_interp_error"]))
    return rows


# check name -> (run(params, f0, seed), CSV header, rows(report, params)),
# where f0 is the --truth density for the checks that take one, else None
_CHECKS = {
    "hellinger-bound": (
        lambda p, f0, seed: verify_harness.check_hellinger_bound(trials=p["trials"], seed=seed),
        ("trials", "violations", "worst_margin"),
        lambda r, p: [(r.trials, r.violations, r.worst_margin)],
    ),
    "logsup-bound": (
        lambda p, f0, seed: verify_harness.check_logsup_bound(
            f0, sigma=p["sigma"], deltas=tuple(p["deltas"]), trials=p["trials"], seed=seed
        ),
        ("delta", "mean_sup_log_ratio", "budget"),
        _logsup_rows,
    ),
    "chi2-limit": (
        lambda p, f0, seed: verify_harness.chi2_limit_experiment(p["n"], p["reps"], seed=seed),
        ("n", "ks_distance", "mean_statistic"),
        lambda r, p: [(r.params["n"], r.params["ks"], r.params["mean_statistic"])],
    ),
    "l1-support": (
        lambda p, f0, seed: verify_harness.l1_support_search(f0, p["eps"]),
        ("bandwidth", "l1_distance"),
        lambda r, p: [(r.params["sigma"], r.params["l1"])],
    ),
    "risk-bound": (
        lambda p, f0, seed: verify_harness.risk_bound_experiment(
            normal_normal_model(),
            p["n_list"],
            p["alpha"],
            eps_scale=p["eps_scale"],
            reps=p["reps"],
            seed=seed,
        ),
        ("n", "median_risk", "bound", "violations"),
        _risk_bound_rows,
    ),
    "hellinger-risk": (
        lambda p, f0, seed: verify_harness.hellinger_risk_experiment(
            normal_normal_model(), p["n_list"], alpha=p["alpha"], reps=p["reps"], seed=seed
        ),
        ("n", "median_hellinger_sq_risk"),
        lambda r, p: list(zip(r.xs, r.ys)),
    ),
    "restricted-kl": (
        lambda p, f0, seed: verify_harness.restricted_min_kl_experiment(
            p["n_list"], p["reps"], seed=seed
        ),
        ("n", "min_kl_percentile_95"),
        lambda r, p: list(zip(r.params["n_list"], r.params["percentiles_95"])),
    ),
    "support-probe": (
        lambda p, f0, seed: verify_harness.gp_support_probe(
            f0, deltas=tuple(p["deltas"]), seed=seed
        ),
        ("delta", "conditional_fraction", "mc_fraction", "mean_interp_error"),
        _support_probe_rows,
    ),
}


def _cmd_verify(cfg: RunConfig):
    params = cfg.params
    check = params["check"]
    if check not in _CHECKS:
        raise ValueError(f"unknown verify check {check!r}; choose from {tuple(_CHECKS)}")
    run, header, rows = _CHECKS[check]
    f0 = _truth_density(params["truth"], cfg.grid_n) if "truth" in params else None
    report = run(params, f0, cfg.seed)
    metrics = report.to_dict()
    passed = metrics.pop("pass")
    return metrics, passed, (header, rows(report, params))


_HANDLERS = {
    "estimate": _cmd_estimate,
    "vi": _cmd_vi,
    "contract": _cmd_contract,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# dispatch and serialization


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def dispatch(cfg: RunConfig) -> Report:
    """Route a validated configuration, write the report + CSV sidecar."""
    t0 = time.perf_counter()
    metrics, passed, (header, rows) = _HANDLERS[cfg.command](cfg)

    out = Path(cfg.output_path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv")
    metrics["plot_csv"] = csv_path.name
    metrics["plot_columns"] = list(header)

    command = cfg.command
    if cfg.command == "verify":
        command = f"verify {cfg.params['check']}"
    report = Report(
        command=command,
        config=cfg.to_dict(),
        metrics=metrics,
        runtime_ms=int(round(1000.0 * (time.perf_counter() - t0))),
        seed=cfg.seed,
        passed=passed,
    )
    out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    _write_csv(csv_path, header, rows)
    return report


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _float_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _add_common(sp, *, grid: Optional[int] = None) -> None:
    if grid is not None:
        sp.add_argument(
            "--grid", type=int, default=grid, metavar="N",
            help=f"grid resolution in [{MIN_GRID_N}, {MAX_GRID_N}] (default {grid})",
        )
    sp.add_argument(
        "--out", required=True, metavar="PATH", help="JSON report output path"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nllvm-lab",
        description=(
            "Latent-transfer mixture density estimation, implicit variational "
            "fits, and randomized bound verification."
        ),
        epilog="Set NLLVM_LAB_THREADS to cap experiment worker threads.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    est = sub.add_parser("estimate", help="posterior predictive density via MCMC")
    est.add_argument("--data", required=True, metavar="CSV", help="one-column data file")
    est.add_argument("--iters", type=int, default=4000, help="MCMC iterations")
    est.add_argument("--burn", type=int, default=1000, help="burn-in iterations")
    est.add_argument("--thin", type=int, default=10, help="keep every thin-th state")
    _add_common(est, grid=1024)

    vi = sub.add_parser("vi", help="variational fit of a parametric Bayes model")
    vi.add_argument("--data", required=True, metavar="CSV", help="one-column data file")
    vi.add_argument("--model", choices=_MODELS, default="normal-normal")
    vi.add_argument("--alpha", type=float, default=0.99, help="risk order in (0,1)")
    vi.add_argument("--knots", type=int, default=16, help="transfer knot count")
    vi.add_argument("--iters", type=int, default=60, help="L-BFGS-B iterations (at least 1)")
    vi.add_argument("--obs-sigma", type=float, default=1.0, help="observation scale")
    vi.add_argument("--prior-mu", type=float, default=0.0, help="prior mean")
    vi.add_argument("--prior-sigma", type=float, default=1.0, help="prior scale")
    vi.add_argument("--theta-star", type=float, default=0.3, help="true parameter")
    _add_common(vi, grid=4096)

    con = sub.add_parser("contract", help="posterior contraction rate experiment")
    con.add_argument("--n-list", type=_int_list, default=[100, 400, 1600],
                     metavar="N1,N2,...", help="sample sizes (min/max ratio >= 16)")
    con.add_argument("--reps", type=int, default=5, help="replicates per sample size")
    con.add_argument("--iters", type=int, default=1500, help="MCMC iterations")
    con.add_argument("--burn", type=int, default=500, help="burn-in iterations")
    con.add_argument("--thin", type=int, default=5, help="keep every thin-th state")
    con.add_argument("--truth", choices=_TRUTHS, default="normal", help="f0 density")
    _add_common(con, grid=1024)

    ver = sub.add_parser("verify", help="randomized verification experiments")
    vsub = ver.add_subparsers(dest="check", required=True, metavar="CHECK")

    hb = vsub.add_parser("hellinger-bound", help="mixture Hellinger upper bound")
    hb.add_argument("--trials", type=int, default=200)
    _add_common(hb)

    ls = vsub.add_parser("logsup-bound", help="sup log-ratio perturbation bound")
    ls.add_argument("--sigma", type=float, default=0.1, help="mixture bandwidth")
    ls.add_argument("--deltas", type=_float_list, default=[0.05, 0.1, 0.2],
                    metavar="D1,D2,...", help="sup-norm perturbation sizes")
    ls.add_argument("--trials", type=int, default=50, help="trials per delta")
    ls.add_argument("--truth", choices=_TRUTHS, default="bump", help="f0 density")
    _add_common(ls, grid=2048)

    ch = vsub.add_parser("chi2-limit", help="chi-square limit of posterior KL")
    ch.add_argument("--n", type=int, default=10000, help="sample size per replicate")
    ch.add_argument("--reps", type=int, default=2000, help="replicates")
    _add_common(ch)

    l1 = vsub.add_parser("l1-support", help="L1 approximation bandwidth search")
    l1.add_argument("--eps", type=float, default=0.05, help="target L1 distance")
    l1.add_argument("--truth", choices=_TRUTHS, default="bump", help="f0 density")
    _add_common(l1, grid=2048)

    rb = vsub.add_parser("risk-bound", help="variational risk high-probability bound")
    rb.add_argument("--alpha", type=float, default=0.99, help="risk order in (0,1)")
    rb.add_argument("--n-list", type=_int_list, default=[50, 200, 800],
                    metavar="N1,N2,...")
    rb.add_argument("--reps", type=int, default=20, help="replicates per sample size")
    rb.add_argument("--eps-scale", type=float, default=1.0,
                    help="eps(n) = eps-scale / sqrt(n), positive and finite at each n")
    _add_common(rb)

    hr = vsub.add_parser("hellinger-risk", help="Hellinger risk decay slope")
    hr.add_argument("--alpha", type=float, default=0.5, help="risk order in (0,1)")
    hr.add_argument("--n-list", type=_int_list, default=[50, 200, 800, 3200],
                    metavar="N1,N2,...")
    hr.add_argument("--reps", type=int, default=5, help="replicates per sample size")
    _add_common(hr)

    rk = vsub.add_parser("restricted-kl", help="comparator-family min-KL boundedness")
    rk.add_argument("--n-list", type=_int_list, default=[100, 1000, 10000],
                    metavar="N1,N2,...")
    rk.add_argument("--reps", type=int, default=200, help="data replicates per n")
    _add_common(rk)

    spb = vsub.add_parser("support-probe", help="prior mass of sup-norm balls")
    spb.add_argument("--deltas", type=_float_list, default=[0.3, 0.1],
                     metavar="D1,D2,...", help="sup-norm ball radii")
    spb.add_argument("--truth", choices=_TRUTHS, default="bump", help="f0 density")
    _add_common(spb, grid=1024)

    # vi and l1-support draw no random numbers, so they take no seed
    for sp in (est, con, hb, ls, ch, rb, hr, rk, spb):
        sp.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    return parser


_COMMON_KEYS = {"command", "check", "data", "grid", "seed", "out"}


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    raw = vars(args)
    params = {
        key.replace("-", "_"): value
        for key, value in raw.items()
        if key not in _COMMON_KEYS
    }
    if args.command == "verify":
        params["check"] = args.check
    try:
        return RunConfig(
            command=args.command,
            output_path=args.out,
            seed=raw.get("seed", 0),
            grid_n=raw.get("grid", 1024),
            input_path=raw.get("data"),
            params=params,
        )
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args, parser)
    try:
        report = dispatch(cfg)
    except Exception as exc:
        print(f"nllvm-lab: error: {exc}", file=sys.stderr)
        return 1
    if report.passed is False:
        print(f"nllvm-lab: {report.command}: FAIL (see {cfg.output_path})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
