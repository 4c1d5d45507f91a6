"""Transfer functions on [0,1] and the latent-mixture marginal density.

A transfer function mu maps a uniform latent x in [0,1] to the data scale by
piecewise-linear interpolation between knots.  Pushing the uniform latent
through mu and adding Gaussian noise of bandwidth sigma gives the marginal

    f_{mu,sigma}(y) = int_0^1 phi_sigma(y - mu(x)) dx.

Because mu is linear on each knot segment, the integral over one segment is
a difference of normal CDFs (:func:`segment_masses`); the marginal is the
sum over segments, exact up to rounding.  Quantile functions are the
canonical transfer functions: for mu_0 the quantile of f_0, the marginal
equals the Gaussian smoothing of f_0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .grid_density import GridDensity, GridSpec, _SQRT_2PI, trapezoid

QUANTILE_CLIP = 1e-6
COVERAGE_MASS_TOL = 1e-4
# Below this rise (in units of sigma) a segment's CDF difference loses its
# digits to cancellation; the flat limit used instead errs by about
# rise^2 * |z^2 - 1| / 24 relative.
FLAT_RISE = 1e-5
# Below this rise (in units of sigma) the closed-form mass derivatives lose
# about 1e-16 / rise^2 relative to cancellation; the midpoint series used
# instead errs by about rise^4 / 4000, so both stay near 1e-12 at the switch.
_SERIES_RISE = 1e-2
# Beyond this many sigma from range(mu) every segment mass underflows to
# exactly 0.0 (the last nonzero float64 values are near 38.5 sigma).
_ZERO_RADIUS = 40.0


class CoverageError(ValueError):
    """Output domain too small for the requested mixture density."""


@dataclass(eq=False)
class TransferFunction:
    """Piecewise-linear map [0,1] -> R through strictly increasing knots."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.shape != v.shape:
            raise ValueError("knots and values must be 1-D arrays of equal length")
        if k.size < 2 or k[0] != 0.0 or k[-1] != 1.0:
            raise ValueError("knots must run from 0 to 1 inclusive")
        if np.any(np.diff(k) <= 0):
            raise ValueError("knots must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("transfer values must be finite")
        self.knots, self.values = k, v

    def __call__(self, x: np.ndarray | float) -> np.ndarray:
        return np.interp(x, self.knots, self.values)

    @property
    def lo(self) -> float:
        return float(self.values.min())

    @property
    def hi(self) -> float:
        return float(self.values.max())

    def sup_distance(self, other: "TransferFunction") -> float:
        """Exact sup-norm distance (evaluated on the union of knots)."""
        xs = np.union1d(self.knots, other.knots)
        return float(np.max(np.abs(self(xs) - other(xs))))


def quantile_of(
    f: GridDensity, n_knots: int = 64, *, clip: float = QUANTILE_CLIP
) -> TransferFunction:
    """Quantile function of ``f`` as a transfer function.

    The CDF of :meth:`GridDensity.cdf_values` is inverted by monotone
    interpolation; repeated CDF values are resolved by the
    left-continuous inverse.  Tails below float spacing repeat them too, and
    so do zero tails outside a bounded support, which the clipped levels
    never reach; only a zero-density gap (two adjacent zero values with
    positive density on both sides) warns.  Quantiles are clipped at the
    [clip, 1 - clip] levels, the constructive stand-in for unbounded support.
    """
    if n_knots < 16:
        raise ValueError(f"n_knots must be >= 16, got {n_knots}")
    uniq, first = np.unique(f.cdf_values(), return_index=True)
    pos = np.flatnonzero(f.values > 0.0)
    zero = f.values[pos[0] : pos[-1] + 1] == 0.0
    if np.any(zero[:-1] & zero[1:]):
        warnings.warn(
            "flat CDF region (zero-density stretch); using the "
            "left-continuous inverse",
            stacklevel=2,
        )
    t = np.linspace(0.0, 1.0, n_knots)
    levels = np.clip(t, clip, 1.0 - clip)
    mu_vals = np.interp(levels, uniq, f.grid[first])
    return TransferFunction(t, np.clip(mu_vals, f.lo, f.hi))


def segment_masses(mu: TransferFunction, sigma: float, y: np.ndarray) -> np.ndarray:
    """Exact latent mass of every knot segment at every point of ``y``.

    Entry ``[i, k]`` is ``int_{x_k}^{x_{k+1}} phi_sigma(y_i - mu(x)) dx``.
    With mu linear on the segment this is

        dx_k / dv_k * [Phi((y_i - v_k) / sigma) - Phi((y_i - v_{k+1}) / sigma)]

    for either sign of dv_k.  Phi is evaluated once per knot; rows above the
    median knot value use the complementary side Phi(-z), so a difference of
    two values near 1 never cancels in the tail.  Segments rising less than
    ``FLAT_RISE`` sigma take the limit ``dx_k * phi_sigma(y_i - mid_k)``.
    """
    if not (0 < sigma < np.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    y = np.asarray(y, dtype=float)
    v = mu.values
    dx = np.diff(mu.knots)
    rise = np.abs(np.diff(v)) / sigma
    flat = rise < FLAT_RISE
    side = np.where(y > np.median(v), -1.0 / sigma, 1.0 / sigma)
    cdf = y[:, None] - v[None, :]
    cdf *= side[:, None]
    special.ndtr(cdf, out=cdf)
    out = cdf[:, :-1] - cdf[:, 1:]
    np.abs(out, out=out)
    out *= dx / (sigma * np.where(flat, 1.0, rise))
    if flat.any():
        mid = 0.5 * (v[:-1] + v[1:])[flat]
        z = (y[:, None] - mid[None, :]) / sigma
        out[:, flat] = np.exp(-0.5 * z * z) * (dx[flat] / (_SQRT_2PI * sigma))
    return out


def mixture_vjp(
    mu: TransferFunction, sigma: float, y: np.ndarray, masses: np.ndarray, r: np.ndarray
) -> tuple:
    """``(sum_i r_i df_i/dv, sum_i r_i df_i/dsigma)`` for the unnormalized mixture.

    f_i is the row sum of ``masses``, the :func:`segment_masses` of mu and
    sigma at the points ``y`` (as :func:`_live_masses` returns them), and v
    the knot values.  With a = (y - v_k) / sigma, b = (y - v_{k+1}) / sigma,
    delta = a - b and E = (Phi(a) - Phi(b)) / delta, segment k's mass is
    dx_k / sigma * E, so

        dm/dv_k = -dx_k / sigma^2 * (phi(a) - E) / delta
        dm/dv_{k+1} = -dx_k / sigma^2 * (E - phi(b)) / delta
        dm/dsigma = dx_k / sigma^2 * (phi'(a) - phi'(b)) / delta.

    These divided differences cancel as delta -> 0, so segments rising less
    than ``_SERIES_RISE`` sigma take their Taylor series about the midpoint;
    flat segments (``FLAT_RISE``) take delta = 0, the derivative of the flat
    limit that :func:`segment_masses` evaluates.
    """
    v = mu.values
    scale = np.diff(mu.knots) / sigma**2
    delta = np.diff(v) / sigma
    series = np.abs(delta) < _SERIES_RISE
    delta[np.abs(delta) < FLAT_RISE] = 0.0

    z = (y[:, None] - v[None, :]) / sigma
    phi = np.exp(-0.5 * z * z) / _SQRT_2PI
    r_phi = r @ phi
    r_dphi = -(r @ (z * phi))
    r_e = (r @ masses) / (scale * sigma)
    d = np.where(series, 1.0, delta)
    grad_lo = -scale * (r_phi[:-1] - r_e) / d
    grad_hi = -scale * (r_e - r_phi[1:]) / d
    grad_sigma = scale * (r_dphi[:-1] - r_dphi[1:]) / d

    if series.any():
        # phi^(n)(c) = (-1)^n He_n(c) phi(c) at the midpoint c; the terms
        # dropped are O(delta^4) relative
        d, s = delta[series], scale[series]
        c = (y[:, None] - 0.5 * (v[:-1] + v[1:])[series]) / sigma
        pc = np.exp(-0.5 * c * c) / _SQRT_2PI
        c2 = c * c
        rp1, rp2, rp3, rp4 = (
            r @ (h * pc)
            for h in (c, c2 - 1.0, c * (c2 - 3.0), c2 * (c2 - 6.0) + 3.0)
        )
        even = -rp1 / 2.0 - rp3 * d**2 / 48.0
        odd = rp2 * d / 12.0 + rp4 * d**3 / 480.0
        grad_lo[series] = -s * (even + odd)
        grad_hi[series] = -s * (even - odd)
        grad_sigma[series] = s * (rp2 + rp4 * d**2 / 24.0)

    grad_v = np.zeros(v.size)
    grad_v[:-1] += grad_lo
    grad_v[1:] += grad_hi
    return grad_v, float(grad_sigma.sum())


def _live_masses(mu: TransferFunction, sigma: float, spec: GridSpec) -> tuple:
    """:func:`mixture_density`, its live-point mask and their :func:`segment_masses`."""
    y = spec.points()
    live = np.abs(y - np.clip(y, mu.lo, mu.hi)) < _ZERO_RADIUS * sigma
    masses = segment_masses(mu, sigma, y[live])
    out = np.zeros(spec.n)
    out[live] = masses.sum(axis=1)
    lost = 1.0 - float(trapezoid(out, dx=spec.spacing))
    if lost > COVERAGE_MASS_TOL:
        raise CoverageError(
            f"domain [{spec.lo}, {spec.hi}] too small for range(mu)="
            f"[{mu.lo:.4g}, {mu.hi:.4g}] with sigma={sigma:.4g}: "
            f"lost mass {lost:.3e}"
        )
    return GridDensity(spec.lo, spec.hi, out, mass_loss=lost), live, masses


def mixture_density(mu: TransferFunction, sigma: float, spec: GridSpec) -> GridDensity:
    """Marginal density f_{mu,sigma} on the grid of ``spec``.

    The row sum of :func:`segment_masses`, so exact at every grid point;
    points farther than ``_ZERO_RADIUS`` sigma from range(mu) are 0.0 without
    evaluation.  A window covering range(mu) +- 8 sigma always passes the
    coverage check; the error reports the actually lost mass.
    """
    return _live_masses(mu, sigma, spec)[0]
