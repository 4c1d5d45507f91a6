"""Higher-order kernel corrections and their approximation-rate diagnostics.

Plain Gaussian smoothing recovers a density only to second order: as the
bandwidth sigma shrinks, || phi_sigma * f - f ||_inf = O(sigma^2) no matter
how smooth f is.  The corrected sequence

    f_{j+1} = f_0 - (phi_sigma * f_j - f_j),        f_0 given,

cancels the low-order bias terms so that smoothing the j-th iterate is
accurate to O(sigma^(2j+2)), with the matching KL rate O(sigma^(2(2j+2))).
The iterate also has the closed form

    f_j = sum_{i=0..j} (-1)^i C(j+1, i+1) phi_sigma^(i) * f_0,

where the i-fold smoothing phi_sigma^(i) * f_0 collapses to a single
convolution at bandwidth sigma * sqrt(i).

Iterates can dip negative for large sigma.  The public constructors raise
``SigmaTooLargeError`` when the negative mass (:func:`negative_mass`)
exceeds ``NEGATIVE_MASS_LIMIT``; otherwise they floor and renormalize, and
return the signed pre-floor iterate as ``raw`` beside the density.  The rate
experiments consume the raw signed iterate: flooring perturbs the density
by O(negative mass), which would swamp the O(sigma^(2 beta)) signal at the
large end of a bandwidth ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_density import DENSITY_FLOOR, GridDensity, NumericError, convolve_values, kl_values
from .grid_density import trapezoid
from .reports import SlopeReport, slope_fit

NEGATIVE_MASS_LIMIT = 1e-3
INTERIOR_FLOOR = 1e-3


class SigmaTooLargeError(ValueError):
    """Bandwidth produced more negative mass than the kernel tolerates."""


def _iterate_raw(f0: GridDensity, sigma: float, j: int) -> np.ndarray:
    """Raw signed order-j iterate by direct recursion."""
    out = f0.values.copy()
    for _ in range(j):
        out = f0.values + out - convolve_values(out, f0.spacing, sigma)
    return out


def _closed_raw(f0: GridDensity, sigma: float, j: int) -> np.ndarray:
    """Raw signed order-j iterate from the binomial closed form."""
    out = np.zeros_like(f0.values)
    for i in range(j + 1):
        coeff = (-1.0) ** i * math.comb(j + 1, i + 1)
        if i == 0:
            term = f0.values
        else:
            term = convolve_values(f0.values, f0.spacing, sigma * math.sqrt(i))
        out += coeff * term
    return out


def negative_mass(raw: np.ndarray, spacing: float) -> float:
    """Trapezoid mass of the negative part of a signed grid function."""
    return -float(trapezoid(np.minimum(raw, 0.0), dx=spacing))


@dataclass(eq=False)
class FbetaResult:
    """Floored-and-renormalized kernel iterate and its signed pre-floor values.

    ``raw`` keeps the signed values (the object the rate lemmas are about);
    ``negative_mass(raw, spacing)`` is the mass the floor clipped away.
    """

    density: GridDensity
    raw: np.ndarray


def _finalize(f0: GridDensity, raw: np.ndarray) -> FbetaResult:
    neg = negative_mass(raw, f0.spacing)
    if neg > NEGATIVE_MASS_LIMIT:
        raise SigmaTooLargeError(
            f"negative mass {neg:.3e} exceeds {NEGATIVE_MASS_LIMIT:.0e}; "
            "shrink sigma"
        )
    return FbetaResult(GridDensity(f0.lo, f0.hi, np.maximum(raw, 0.0)), raw)


def fbeta_iterative(f0: GridDensity, sigma: float, j: int) -> FbetaResult:
    """Order-j corrected kernel density by the recursion."""
    if j < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    return _finalize(f0, _iterate_raw(f0, sigma, j))


def fbeta_closed_form(f0: GridDensity, sigma: float, j: int) -> FbetaResult:
    """Order-j corrected kernel density by the binomial closed form."""
    if j < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    return _finalize(f0, _closed_raw(f0, sigma, j))


def _validate_sigma_ladder(sigmas: np.ndarray) -> None:
    if sigmas.size < 5:
        raise ValueError(f"need at least 5 sigma values, got {sigmas.size}")
    if np.any(sigmas <= 0):
        raise ValueError("sigma values must be positive")
    if np.any(np.diff(sigmas) >= 0):
        raise ValueError("sigma values must be strictly decreasing")
    if sigmas[0] / sigmas[-1] < 10.0 * (1.0 - 1e-12):
        raise ValueError(
            f"sigma ladder must span at least one decade, got "
            f"{sigmas[0]:.4g} .. {sigmas[-1]:.4g}"
        )


def approx_order_experiment(f0: GridDensity, j: int, sigmas) -> SlopeReport:
    """Rate of the smoothing error e(sigma) = sup |phi_sigma * f_j - f0|.

    The sup is restricted to the interior region {f0 >= INTERIOR_FLOOR},
    sidestepping boundary artifacts.  The fitted log-log slope should be
    close to 2j + 2 for a smooth f0.  If e(sigma) fails to decrease with
    sigma in more than 10% of adjacent pairs the report is flagged invalid.
    """
    sig = np.asarray(list(sigmas), dtype=float)
    _validate_sigma_ladder(sig)
    mask = f0.values >= INTERIOR_FLOOR
    errs = []
    for s in sig:
        raw = _iterate_raw(f0, s, j)
        back = convolve_values(raw, f0.spacing, s)
        errs.append(float(np.max(np.abs(back - f0.values)[mask])))
    errs_arr = np.asarray(errs)
    # sigma ladder is decreasing, so the error should decrease along it too
    bad_pairs = int(np.sum(np.diff(errs_arr) > 0))
    invalid = bad_pairs > 0.1 * (sig.size - 1)
    slope, r2 = slope_fit(sig, errs_arr)
    return SlopeReport(
        xs=list(sig),
        ys=list(errs_arr),
        slope=slope,
        r2=r2,
        target=float(2 * j + 2),
        passed=not invalid,
        note="experiment-invalid: sup error non-monotone in sigma" if invalid else "",
    )


def kl_rate_experiment(f0: GridDensity, j: int, sigmas) -> SlopeReport:
    """Rate of KL(f0 || phi_sigma * f_j) along a decreasing sigma ladder.

    The expected log-log slope is 2 * beta with beta = 2j + 2.
    """
    sig = np.asarray(list(sigmas), dtype=float)
    _validate_sigma_ladder(sig)
    kls = []
    for s in sig:
        raw = _iterate_raw(f0, s, j)
        back = convolve_values(raw, f0.spacing, s)
        kl = kl_values(f0.values, np.maximum(back, DENSITY_FLOOR), f0.spacing)
        if kl < -1e-10:
            raise NumericError(f"negative KL {kl:.3e} at sigma={s:.4g}")
        kls.append(max(kl, 0.0))
    slope, r2 = slope_fit(sig, kls)
    return SlopeReport(
        xs=list(sig),
        ys=list(map(float, kls)),
        slope=slope,
        r2=r2,
        target=float(2 * (2 * j + 2)),
        passed=True,
    )
