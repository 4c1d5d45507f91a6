"""Print the results of fixed VI fits and a SHA-256 digest of them all.

The script runs ``gpivi.optimize`` (``iters`` 60) on 81 fits: the three
shipped models, n in {30, 200, 1000}, knots in {12, 16, 32} and alpha in
{0.5, 0.9, 0.99}.  The data of each fit come from
``model.sample_data(default_rng(n + knots), n)``.  Per fit it prints
``repr`` of the objective and of log sigma, a SHA-256 of the knot values
as raw float64 bytes, the iteration count and the ``converged`` flag; the
last line is a SHA-256 of all the lines before it.  Two source trees whose
printed lines are equal give bit-identical fits.  Run it once per tree and
compare the output::

    PYTHONPATH=src python3 scripts/fit_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/fit_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from nllvm_lab.gpivi import logistic_model, normal_mean_model, normal_normal_model, optimize

MODELS = (
    ("normal-mean", normal_mean_model),
    ("normal-normal", normal_normal_model),
    ("logistic", logistic_model),
)
SIZES = (30, 200, 1000)
KNOTS = (12, 16, 32)
ALPHAS = (0.5, 0.9, 0.99)
ITERS = 60


def fit_line(name: str, model, n: int, knots: int, alpha: float) -> str:
    data = model.sample_data(np.random.default_rng(n + knots), n)
    res = optimize(model, data, alpha, knots=knots, iters=ITERS)
    knot_sha = hashlib.sha256(res.params.mu.values.tobytes()).hexdigest()
    return (
        f"{name} n={n} knots={knots} alpha={alpha} objective={res.objective!r} "
        f"log_sigma={res.params.log_sigma!r} values_sha256={knot_sha} "
        f"n_sweeps={res.n_sweeps} converged={res.converged}"
    )


if __name__ == "__main__":
    lines = []
    for name, make in MODELS:
        model = make()
        for n in SIZES:
            for knots in KNOTS:
                for alpha in ALPHAS:
                    lines.append(fit_line(name, model, n, knots, alpha))
                    print(lines[-1])
    print(f"all sha256={hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
