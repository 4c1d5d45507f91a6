"""Smoke test of the benchmark at tiny sizes (about a minute on 2 cores).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from tracer import TRACED, SpanRecorder, Tracer, metric_units, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers a workload never reaches; their call counts must read exactly 0.
PREDICTED_ZERO = {
    "gibbs-estimate": ("gpivi.practical_objective.calls", "runtime.parallel_map.calls"),
    "vi-risk": ("nllvm_posterior.update_latents.calls",),
    "mixture-checks": (
        "nllvm_posterior.update_latents.calls",
        "gpivi.practical_objective.calls",
        "runtime.parallel_map.calls",
    ),
}

# Layers each workload exercises at tiny sizes (check_hellinger_bound is left
# out there); their counts must be above 0, or the tracer missed a binding.
PREDICTED_NONZERO = {
    "gibbs-estimate": (
        "cli.dispatch.calls",
        "nllvm_posterior.fit_mcmc.calls",
        "nllvm_posterior.update_latents.calls",
        "nllvm_posterior.update_transfer.calls",
        "nllvm_posterior.update_sigma.calls",
        "nllvm_posterior.predictive_density.calls",
        "transfer_map.mixture_density.calls",
        "transfer_map.mixture_density.grid_pts",
        "gp_prior.chol.calls",
    ),
    "vi-risk": (
        "cli.dispatch.calls",
        "verify_harness.risk_bound_experiment.calls",
        "runtime.parallel_map.calls",
        "runtime.parallel_map.tasks",
        "gpivi.optimize.calls",
        "gpivi.optimize.sweeps",
        "gpivi.practical_objective.calls",
        "gpivi.q_density.calls",
        "gpivi.risk_integral.calls",
        "gpivi.risk_bound_rhs.calls",
        "transfer_map.mixture_density.calls",
        "transfer_map.mixture_density.refine_calls",
        "grid_density.divergence.calls",
        "grid_density.kl_values.calls",
        "grid_density.convolve_values.calls",
        "hi_order_kernel.fbeta_iterative.calls",
    ),
    "mixture-checks": (
        "verify_harness.check_logsup_bound.calls",
        "verify_harness.restricted_min_kl_experiment.calls",
        "verify_harness.gp_support_probe.calls",
        "gpivi.RestrictedFamily.calls",
        "gpivi.RestrictedFamily.min_kl.calls",
        "transfer_map.mixture_density.calls",
        "transfer_map.mixture_density.refine_calls",
        "transfer_map.quantile_of.calls",
        "grid_density.divergence.calls",
        "gp_prior.chol.calls",
        "gp_prior.sample_path_conditional.calls",
    ),
}

def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@functools.lru_cache(maxsize=None)
def _result(workload: str, trace: int, attempt: int = 0):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_match_the_code():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == metric_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])


def test_end_to_end_metrics_printed_with_units():
    lines, result = _result("gibbs-estimate", 0)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in [*END_TO_END.items(), ("fail_frac", "ratio")]:
        assert any(re.match(rf"# {name} \S+ {re.escape(unit)}\b", l) for l in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_match_predictions(workload):
    _, first = _result(workload, 1, 0)
    _, second = _result(workload, 1, 1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == metric_units()

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    assert counts(first) == counts(second)
    for name in PREDICTED_ZERO[workload]:
        assert counts(first)[name] == 0, name
    for name in PREDICTED_NONZERO[workload]:
        assert counts(first)[name] > 0, name
    for span, _, _ in TRACED:
        m = first["metrics"]
        assert 0.0 <= m[f"{span}.self_s"]["value"] <= m[f"{span}.s"]["value"], span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, None, 0, 1),
        (2, "a", 1.0, 4.0, 1, 0, 1),
        (3, "b", 3.0, 6.0, 1, 0, 2),  # overlaps a on another thread
        (4, "c", 2.0, 3.0, 2, 0, 1),
    ]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    from nllvm_lab import gpivi, transfer_map, verify_harness

    before = (transfer_map.mixture_density, gpivi.mixture_density,
              verify_harness.mixture_density, gpivi.RestrictedFamily.__init__)
    with Tracer(SpanRecorder()):
        assert gpivi.mixture_density is not before[1]
        assert verify_harness.mixture_density is gpivi.mixture_density
    after = (transfer_map.mixture_density, gpivi.mixture_density,
             verify_harness.mixture_density, gpivi.RestrictedFamily.__init__)
    assert after == before


def test_exits_nonzero_without_the_program():
    bare = HERE / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("gibbs-estimate", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
