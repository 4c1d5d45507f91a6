"""Latent-transfer mixture models: density estimation and implicit VI.

The package represents densities on uniform grids (:mod:`.grid_density`),
builds mixtures of Gaussian noise over a monotone transfer of a uniform
latent (:mod:`.transfer_map`), sharpens kernel smoothing to higher
approximation orders (:mod:`.hi_order_kernel`), places a Gaussian-process
prior on the transfer (:mod:`.gp_prior`), samples its posterior by blocked
MCMC (:mod:`.nllvm_posterior`), fits implicit variational families by
deterministic L-BFGS-B (:mod:`.gpivi`), and verifies the
analytic bounds behind all of it with seeded randomized experiments
(:mod:`.verify_harness`, surfaced by :mod:`.cli`).

Each name has one import path, its module's: ``from nllvm_lab.gpivi import
optimize``.  The package root holds the modules only; importing it loads
them all.
"""

# perfbench/tracer.py reads nllvm_lab.cli from sys.modules (ROADMAP item 7)
from . import cli  # noqa: F401
