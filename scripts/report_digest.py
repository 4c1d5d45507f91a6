"""Print the exit code and SHA-256 digests of the CLI's reports on fixed runs.

The script runs ``nllvm_lab.cli.main`` in-process on a fixed command set:
``estimate``, ``vi`` on all three models (0/1 data for ``logistic``),
``contract``, the eight ``verify`` checks at small flags, and two runs that
fail (``l1-support`` with an unreachable eps, ``support-probe`` with a
radius no draw reaches).  Runs happen in a temporary directory with
relative paths, so the recorded input and output paths are fixed.  For
each run it prints the exit code, a SHA-256 of the report with
``runtime_ms``, ``config.output_path`` and ``metrics.plot_csv`` removed,
and a SHA-256 of the CSV sidecar's bytes.  Two source trees whose printed
lines are equal write the same reports apart from those fields.  Run it
once per tree, and at each thread count of interest::

    NLLVM_LAB_THREADS=1 PYTHONPATH=src python3 scripts/report_digest.py > new.txt
    NLLVM_LAB_THREADS=1 PYTHONPATH=/path/to/other/src python3 scripts/report_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from nllvm_lab.cli import main

_VI = ["--alpha", "0.9", "--iters", "15", "--knots", "10", "--grid", "512"]

RUNS = (
    ("estimate", ["estimate", "--data", "mixture.csv", "--iters", "200", "--burn", "50",
                  "--thin", "5", "--grid", "256"]),
    ("vi normal-mean", ["vi", "--data", "normal.csv", "--model", "normal-mean", *_VI]),
    ("vi normal-normal", ["vi", "--data", "normal.csv", "--model", "normal-normal", *_VI]),
    ("vi logistic", ["vi", "--data", "binary.csv", "--model", "logistic", *_VI]),
    ("contract", ["contract", "--n-list", "20,40,320", "--reps", "1", "--iters", "60",
                  "--burn", "20", "--thin", "4", "--grid", "256", "--truth", "bimodal"]),
    ("verify hellinger-bound", ["verify", "hellinger-bound", "--trials", "100"]),
    ("verify logsup-bound", ["verify", "logsup-bound", "--trials", "2"]),
    ("verify chi2-limit", ["verify", "chi2-limit", "--n", "1000", "--reps", "500"]),
    ("verify l1-support", ["verify", "l1-support"]),
    ("verify risk-bound", ["verify", "risk-bound", "--n-list", "50,100", "--reps", "2"]),
    ("verify hellinger-risk", ["verify", "hellinger-risk", "--n-list", "50,100,200",
                               "--reps", "1"]),
    ("verify restricted-kl", ["verify", "restricted-kl", "--n-list", "100", "--reps", "1"]),
    ("verify support-probe", ["verify", "support-probe", "--deltas", "0.3"]),
    ("verify l1-support --eps 1e-6", ["verify", "l1-support", "--eps", "1e-6"]),
    ("verify support-probe --deltas 0.001", ["verify", "support-probe", "--deltas", "0.001"]),
)


def _write_data(directory: Path) -> None:
    rng = np.random.default_rng(0)
    n = 200
    mixture = np.where(rng.random(n) < 0.3, rng.normal(-1.0, 0.3, n), rng.normal(1.0, 0.5, n))
    normal = rng.normal(0.3, 1.0, 30)
    binary = (rng.random(40) < 0.62).astype(int)
    for name, values in (("mixture", mixture), ("normal", normal), ("binary", binary)):
        (directory / f"{name}.csv").write_text("".join(f"{v!r}\n" for v in values.tolist()))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, argv: list) -> str:
    out, sidecar = Path("out.json"), Path("out.csv")
    for path in (out, sidecar):
        path.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main([*argv, "--out", str(out)])
    report = "absent"
    if out.exists():
        raw = json.loads(out.read_text())
        raw.pop("runtime_ms")
        raw["config"].pop("output_path")
        raw["metrics"].pop("plot_csv")
        report = _sha(json.dumps(raw, indent=2, sort_keys=True).encode())
    csv = _sha(sidecar.read_bytes()) if sidecar.exists() else "absent"
    return f"{name}: exit={rc} report={report} sidecar={csv}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_data(Path(tmp))
        os.chdir(tmp)
        for name, argv in RUNS:
            print(digest(name, argv), flush=True)
