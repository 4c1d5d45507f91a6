"""Print a SHA-256 digest of the kept states of fixed Gibbs fits.

For (n, knots) = (10, 16), (100, 32) and (1600, 64) the script draws n
points from a two-component normal mixture, runs ``fit_mcmc`` for 400
cycles (burn-in 100, thin 5, seed 7) and hashes every kept state's
``mu_values``, ``sigma`` and ``log_post`` as raw float64 bytes.
Two source trees whose printed lines are equal give bit-identical kept
states.  Run it once per tree and compare the output::

    PYTHONPATH=src python3 scripts/kept_state_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/kept_state_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from nllvm_lab.nllvm_posterior import fit_mcmc

CASES = ((10, 16), (100, 32), (1600, 64))


def digest(n: int, n_knots: int) -> str:
    rng = np.random.default_rng(n)
    data = np.where(rng.random(n) < 0.3, rng.normal(-1.0, 0.3, n), rng.normal(1.0, 0.5, n))
    samples = fit_mcmc(data, iters=400, burn_in=100, thin=5, seed=7, n_knots=n_knots)
    h = hashlib.sha256()
    for mu_values, sigma, log_post in zip(samples.mu_values, samples.sigma, samples.log_post):
        h.update(mu_values.tobytes())
        h.update(sigma.tobytes())
        h.update(log_post.tobytes())
    return f"n={n} knots={n_knots} kept={samples.sigma.size} sha256={h.hexdigest()}"


if __name__ == "__main__":
    for n, n_knots in CASES:
        print(digest(n, n_knots))
