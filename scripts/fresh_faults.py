"""Print the page faults and system time of the Gibbs latent step in fresh processes.

A long-lived process (the benchmark's) keeps memory that glibc's
allocator would hand back to the OS in a fresh one, so the cost of a
table freed and mapped again on every call shows only here.  Two
measurements, each read with ``resource.getrusage`` on this script's own
processes, and no allocator setting:

- ``update_latents`` on 64 knots x 1,600 points, in this interpreter
  before it starts any child: one warm-up call, then 200 calls; it prints
  minor faults, system ms and wall ms per call;
- four ``python -m nllvm_lab.cli estimate`` children on 1,600 draws of a
  two-bump normal mixture (300 iterations, 100 burn-in, thin 5, seed 0),
  read one by one from ``RUSAGE_CHILDREN``; each line prints that child's
  minor faults, system seconds and wall seconds.

Children inherit the environment, so run it once per tree::

    PYTHONPATH=src python3 scripts/fresh_faults.py
    PYTHONPATH=/path/to/other/src python3 scripts/fresh_faults.py
"""

from __future__ import annotations

import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from nllvm_lab.nllvm_posterior import update_latents
from nllvm_lab.transfer_map import TransferFunction, knot_grid


def per_call(calls: int, n_knots: int = 64, n: int = 1600) -> str:
    """Faults, system time and wall time per ``update_latents`` call."""
    t = knot_grid(n_knots)
    mu = TransferFunction(2.0 * t - 1.0 + 0.3 * np.sin(7.0 * t))
    y = np.sort(np.random.default_rng(0).normal(0.0, 0.7, n))
    rng = np.random.default_rng(1)
    update_latents(mu, 0.15, y, rng)
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    for _ in range(calls):
        update_latents(mu, 0.15, y, rng)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (
        f"update_latents {n_knots}x{n} calls={calls} "
        f"minflt_per_call={(after.ru_minflt - before.ru_minflt) / calls:.1f} "
        f"sys_ms_per_call={1e3 * (after.ru_stime - before.ru_stime) / calls:.3f} "
        f"wall_ms_per_call={1e3 * wall / calls:.3f}"
    )


def estimate_child(workdir: Path, n: int = 1600, iters: int = 300, burn: int = 100) -> str:
    """Faults, system time and wall time of one ``estimate`` subprocess."""
    rng = np.random.default_rng(0)
    data = np.where(rng.random(n) < 0.5, rng.normal(0.25, 0.08, n), rng.normal(0.75, 0.08, n))
    csv = workdir / f"data-{n}.csv"
    csv.write_text("y\n" + "\n".join(repr(float(v)) for v in data) + "\n")
    argv = [
        sys.executable, "-m", "nllvm_lab.cli", "estimate", "--data", str(csv),
        "--iters", str(iters), "--burn", str(burn), "--thin", "5", "--seed", "0",
        "--out", str(workdir / f"estimate-{n}.json"),
    ]
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        f"estimate n={n} iters={iters} minflt={after.ru_minflt - before.ru_minflt} "
        f"sys_s={after.ru_stime - before.ru_stime:.3f} wall_s={wall:.3f}"
    )


if __name__ == "__main__":
    print(per_call(200), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(4):
            print(estimate_child(Path(tmp)), flush=True)
