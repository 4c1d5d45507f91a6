"""Shared fixtures, the Hypothesis profile and the acceptance-summary hook.

The acceptance tests record one line per criterion into a session-global
list; ``pytest_terminal_summary`` prints the collected lines as a dedicated
section after the run, so the pass/fail ledger is visible even when every
test passes (captured stdout is otherwise swallowed for passing tests).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from scipy.stats import norm

from nllvm_lab.grid_density import GridDensity, GridSpec
from nllvm_lab.verify_harness import _conjugate_posterior

# every property test is reproducible and free of wall-clock limits; each
# test keeps its own max_examples
settings.register_profile("nllvm-lab", deadline=None, derandomize=True)
settings.load_profile("nllvm-lab")

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def acceptance_log() -> list:
    """Mutable registry the acceptance tests append (number, line) pairs to."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gaussian_density() -> GridDensity:
    """N(0.5, 0.25^2) tabulated on a window wide enough for smoothing."""
    spec = GridSpec(-2.0, 3.0, 4096)
    return GridDensity(spec.lo, spec.hi, norm.pdf(spec.points(), 0.5, 0.25))


@pytest.fixture(scope="session")
def sech_density() -> GridDensity:
    """Heavy-tailed positive density: sech((x - 0.5) / 0.25), renormalized.

    Strictly positive with sub-exponential tails, so log-ratio divergences
    against its smoothings never hit the density floor.
    """
    spec = GridSpec(-4.5, 5.5, 4096)
    x = spec.points()
    return GridDensity(spec.lo, spec.hi, 1.0 / np.cosh((x - 0.5) / 0.25))


@pytest.fixture(scope="session")
def conjugate_tempered():
    """The closed-form alpha-tempered posterior of ``normal_normal_model()``.

    ``f(model, data, alpha)`` tabulates N(mean, var) from
    ``_conjugate_posterior(alpha * sum(data), alpha * n, 1, 1)`` on the
    model's prior grid: the reference for ``quadrature_posterior`` and for
    fits to the default conjugate model (noise 1, prior N(0, 1)).
    """

    def f(model, data, alpha: float) -> GridDensity:
        data = np.asarray(data, dtype=float)
        mean, var = _conjugate_posterior(alpha * data.sum(), alpha * data.size, 1.0, 1.0)
        spec = model.prior_density.spec
        grid = spec.points()
        return GridDensity(spec.lo, spec.hi, np.exp(-((grid - mean) ** 2) / (2.0 * var)))

    return f
