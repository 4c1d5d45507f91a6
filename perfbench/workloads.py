"""The three benchmark workloads: inputs from the seed, tasks, checks.

A workload is a list of tasks.  A task is one timed call into the program:
one ``nllvm_lab.cli.main`` command or one ``verify_harness`` experiment.  Its
correctness check runs afterwards, outside the timed region, and raises
``TaskFailed``.  Inputs are made here from the workload seed, so the program
receives only the generated data, truths and seeds.  The truths are the
CLI's built-in ``bump`` and ``bimodal``, built the way the CLI builds them.

Each workload comes in three sizes: ``full`` (the measured passes),
``tiny`` (the smoke test) and ``warmup`` (run during set-up so that
first-call costs stay out of the timed passes).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import trapezoid

from nllvm_lab import cli, verify_harness
from nllvm_lab.grid_density import GridDensity, GridSpec, smooth_bump

WORKLOADS = ("gibbs-estimate", "vi-risk", "mixture-checks")

# The [08] tolerance on the squared Hellinger distance to the truth.
GIBBS_H2_TOL = 0.02

SIZES = {
    "gibbs-estimate": {
        # n = 1600 keeps update_latents, O(n x 512), the dominant step
        "full": dict(datasets=2, n=1600, iters=300, burn=100, thin=5),
        "tiny": dict(datasets=1, n=400, iters=120, burn=60, thin=5),
        "warmup": dict(datasets=1, n=100, iters=40, burn=20, thin=5),
    },
    "vi-risk": {
        "full": dict(alphas=(0.99, 0.5), n_list="50,800", reps=2),
        "tiny": dict(alphas=(0.99,), n_list="50,100", reps=2),
        "warmup": dict(vi_n=50, knots=8, iters=1),
    },
    "mixture-checks": {
        "full": dict(
            hellinger_trials=100,
            logsup_trials=2,
            logsup_deltas=(0.05, 0.1, 0.2),
            kl_n_list=(100, 1000),
            kl_reps=50,
            kl_grid=512,
            probe_draws=2000,
            probe_conditional=200,
        ),
        # check_hellinger_bound refuses fewer than 100 trials (about 12 s),
        # so the small sizes leave it out
        "tiny": dict(
            hellinger_trials=0,
            logsup_trials=1,
            logsup_deltas=(0.1,),
            kl_n_list=(100, 200),
            kl_reps=10,
            kl_grid=256,
            probe_draws=200,
            probe_conditional=20,
        ),
    },
}
SIZES["mixture-checks"]["warmup"] = dict(
    SIZES["mixture-checks"]["tiny"], kl_n_list=(64,), kl_reps=2, kl_grid=160,
    probe_draws=50, probe_conditional=5,
)


class TaskFailed(Exception):
    """A task ran but its output missed the workload's correctness check."""


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _sub_seeds(seed: int, label: str, k: int) -> list:
    """k program seeds derived from the workload seed and a label."""
    entropy = [seed, zlib.crc32(label.encode())]
    return [int(s) % 2**31 for s in np.random.SeedSequence(entropy).generate_state(k)]


def bump_density(grid_n: int) -> GridDensity:
    """The CLI's built-in ``bump`` truth on [-1, 2]."""
    return smooth_bump(GridSpec(-1.0, 2.0, grid_n), 0.1, 0.9, 2.0)


def bimodal_density(grid_n: int) -> GridDensity:
    """The CLI's built-in ``bimodal`` truth: equal bumps on [.05,.45], [.55,.95]."""
    spec = GridSpec(-1.0, 2.0, grid_n)
    left = smooth_bump(spec, 0.05, 0.45, 2.0)
    right = smooth_bump(spec, 0.55, 0.95, 2.0)
    return GridDensity(spec.lo, spec.hi, 0.5 * left.values + 0.5 * right.values)


def _cli_call(argv: list) -> Callable[[], int]:
    return lambda: cli.main(argv)


def _read_report(out: Path, rc: int) -> dict:
    if rc != 0:
        raise TaskFailed(f"exit code {rc}")
    return json.loads(out.read_text())


def _gibbs_tasks(seed: int, workdir: Path, size: dict) -> list:
    tasks = []
    seeds = _sub_seeds(seed, "gibbs", 2 * size["datasets"])
    truth = bimodal_density(8193)
    for i in range(size["datasets"]):
        data = truth.draw(np.random.default_rng(seeds[2 * i]), size["n"])
        csv = workdir / f"gibbs-data-{i}.csv"
        csv.write_text("y\n" + "\n".join(repr(float(v)) for v in data) + "\n")
        out = workdir / f"gibbs-{i}.json"
        argv = [
            "estimate", "--data", str(csv),
            "--iters", str(size["iters"]), "--burn", str(size["burn"]),
            "--thin", str(size["thin"]),
            "--seed", str(seeds[2 * i + 1]), "--out", str(out),
        ]

        def check(rc, out=out):
            _read_report(out, rc)
            table = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
            y, pred = table[:, 0], table[:, 1]
            h2 = 1.0 - float(trapezoid(np.sqrt(pred * truth.pdf_at(y)), y))
            if not h2 <= GIBBS_H2_TOL:
                raise TaskFailed(f"squared Hellinger {h2:.4g} > {GIBBS_H2_TOL}")

        tasks.append(Task(f"estimate-{i}", _cli_call(argv), check))
    return tasks


def _vi_tasks(seed: int, workdir: Path, size: dict) -> list:
    # a risk-bound run costs several full fits, so the warm-up is a `vi` fit
    if "alphas" not in size:
        return _vi_warmup(seed, workdir, size)
    tasks = []
    seeds = _sub_seeds(seed, "vi-risk", len(size["alphas"]))
    for alpha, task_seed in zip(size["alphas"], seeds):
        out = workdir / f"risk-{alpha:g}.json"
        argv = [
            "verify", "risk-bound", "--alpha", repr(alpha),
            "--n-list", size["n_list"], "--reps", str(size["reps"]),
            "--seed", str(task_seed), "--out", str(out),
        ]

        def check(rc, out=out):
            if _read_report(out, rc).get("pass") is not True:
                raise TaskFailed("report has pass != true")

        tasks.append(Task(f"risk-bound-{alpha:g}", _cli_call(argv), check))
    return tasks


def _vi_warmup(seed: int, workdir: Path, size: dict) -> list:
    """One short variational fit: the optimizer and objective paths."""
    data = np.random.default_rng(_sub_seeds(seed, "vi-warmup", 1)[0]).normal(
        0.3, 1.0, size["vi_n"]
    )
    csv = workdir / "vi-warmup-data.csv"
    csv.write_text("y\n" + "\n".join(repr(float(v)) for v in data) + "\n")
    argv = [
        "vi", "--data", str(csv), "--knots", str(size["knots"]),
        "--iters", str(size["iters"]), "--out", str(workdir / "vi-warmup.json"),
    ]
    return [Task("vi-warmup", _cli_call(argv), lambda rc: None)]


def _passed(report) -> None:
    if report.passed is not True:
        raise TaskFailed(f"{report.name}: passed is {report.passed}")


def _mixture_tasks(seed: int, workdir: Path, size: dict) -> list:
    s = _sub_seeds(seed, "mixture-checks", 4)
    bump2048 = bump_density(2048)
    bump1024 = bump_density(1024)
    tasks = []
    if size["hellinger_trials"]:
        tasks.append(Task(
            "hellinger-bound",
            lambda: verify_harness.check_hellinger_bound(
                trials=size["hellinger_trials"], seed=s[0]
            ),
            _passed,
        ))
    tasks.append(Task(
        "logsup-bound",
        lambda: verify_harness.check_logsup_bound(
            bump2048, sigma=0.1, deltas=size["logsup_deltas"],
            trials=size["logsup_trials"], seed=s[1],
        ),
        _passed,
    ))
    tasks.append(Task(
        "restricted-min-kl",
        lambda: verify_harness.restricted_min_kl_experiment(
            n_list=size["kl_n_list"], reps=size["kl_reps"], seed=s[2],
            grid_n=size["kl_grid"],
        ),
        _passed,
    ))
    tasks.append(Task(
        "support-probe",
        lambda: verify_harness.gp_support_probe(
            bump1024, seed=s[3], n_draws=size["probe_draws"],
            n_conditional=size["probe_conditional"],
        ),
        _passed,
    ))
    return tasks


_BUILDERS = {
    "gibbs-estimate": _gibbs_tasks,
    "vi-risk": _vi_tasks,
    "mixture-checks": _mixture_tasks,
}


def build(workload: str, seed: int, workdir: Path, size: str) -> list:
    """Generate the inputs of ``workload`` from ``seed``; return its tasks."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, workdir, SIZES[workload][size])
