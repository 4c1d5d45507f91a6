"""Probability densities tabulated on uniform grids.

``GridDensity`` is the universal currency of the package: target densities,
kernel-smoothed densities, posteriors, and variational densities are all
non-negative arrays on a uniform grid, renormalized at construction so the
trapezoid-rule integral is 1.

The module provides Gaussian convolution by direct quadrature (kernel
truncated at +-8 sigma) and the divergences used by the bound checks: KL,
squared Hellinger, L1 and the one-sided sup of log(p/q).

Numerical conventions
---------------------
* Trapezoid quadrature on a uniform grid.
* Densities with unbounded support are represented on a window carrying at
  least 1 - 1e-6 of their mass, then renormalized.
* Log-ratio divergences floor the denominator density at 1e-300; the floored
  points are weighted by p, so their contribution is negligible.
* Squared Hellinger uses the convention h^2(p, q) = 1 - int sqrt(p q),
  i.e. one half of the squared L2 distance of the root densities, which is
  the normalization the Hellinger bound checks in this package are stated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

DENSITY_FLOOR = 1e-300

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _trapezoid_areas(y: np.ndarray, dx: float) -> np.ndarray:
    return dx * (y[..., 1:] + y[..., :-1]) / 2.0


def trapezoid(y: np.ndarray, dx: float):
    """Trapezoid integral of ``y`` along its last axis, bit for bit scipy's."""
    return np.sum(_trapezoid_areas(y, dx), axis=-1)


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """The weights w of the trapezoid rule on n points: w @ y integrates y."""
    return np.concatenate(([dx / 2.0], np.full(n - 2, dx), [dx / 2.0]))


class ResolutionError(ValueError):
    """Grid too coarse for the requested kernel bandwidth."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


@dataclass(frozen=True)
class GridSpec:
    """Domain window and resolution for a uniform grid."""

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid endpoints must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"grid needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.n < 16:
            raise ValueError(f"grid needs n >= 16 points, got {self.n}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(eq=False)
class GridDensity:
    """A probability density on a uniform grid over [lo, hi].

    Values are validated non-negative and renormalized at construction so
    that the trapezoid integral over the window is 1 (within 1e-6; exactly 1
    up to rounding).  Instances are treated as immutable.
    """

    lo: float
    hi: float
    values: np.ndarray
    mass_loss: float = field(default=0.0, compare=False)
    """Mass lost prior to the construction-time renormalization (diagnostic;
    populated by operations such as :func:`convolve_gaussian`)."""
    spec: GridSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {vals.shape}")
        self.spec = GridSpec(self.lo, self.hi, vals.size)  # checks the window and the size
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmin(np.isfinite(vals)))
            raise ValueError(f"non-finite density value at index {bad}")
        if np.any(vals < 0):
            bad = int(np.argmax(vals < 0))
            raise ValueError(
                f"negative density value {vals[bad]:.3e} at index {bad}"
            )
        total = trapezoid(vals, dx=self.spec.spacing)
        if total <= 0:
            raise ValueError("density has zero total mass")
        self.values = vals / total

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return self.spec.spacing

    @property
    def grid(self) -> np.ndarray:
        return self.spec.points()

    def pdf_at(self, x: np.ndarray | float) -> np.ndarray:
        """Linear interpolation of the density (0 outside the window)."""
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)

    def cdf_values(self) -> np.ndarray:
        """Cumulative trapezoid sums, normalized to end at exactly 1."""
        cdf = np.concatenate(([0.0], np.cumsum(_trapezoid_areas(self.values, self.spacing))))
        return cdf / cdf[-1]

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF samples (piecewise-linear interpolation of the CDF)."""
        u = rng.random(size)
        return np.interp(u, self.cdf_values(), self.grid)


def _same_grid(p: GridDensity, q: GridDensity) -> None:
    if p.spec != q.spec:
        raise ValueError(
            "densities must share a grid: "
            f"[{p.lo}, {p.hi}] n={p.n} vs [{q.lo}, {q.hi}] n={q.n}"
        )


def gaussian_kernel(sigma: float, spacing: float) -> np.ndarray:
    """phi_sigma sampled on the grid spacing, truncated at +-8 sigma."""
    radius = int(np.ceil(8.0 * sigma / spacing))
    offsets = np.arange(-radius, radius + 1) * spacing
    return np.exp(-0.5 * (offsets / sigma) ** 2) / (_SQRT_2PI * sigma)


def convolve_values(
    values: np.ndarray, spacing: float, sigma: float
) -> np.ndarray:
    """Discrete phi_sigma * f for a (possibly signed) grid function.

    Trapezoid weights in the inner integral, kernel truncated at +-8 sigma.
    Requires at least 4 grid points per sigma; at that resolution the scheme
    is spectrally accurate for smooth integrands.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if sigma < 4.0 * spacing:
        raise ResolutionError(
            f"fewer than 4 grid points per sigma: sigma={sigma:.4g}, "
            f"spacing={spacing:.4g} (need sigma >= {4 * spacing:.4g})"
        )
    kernel = gaussian_kernel(sigma, spacing)
    radius = (kernel.size - 1) // 2
    full = np.convolve(values * trapezoid_weights(values.size, spacing), kernel, mode="full")
    return full[radius : radius + values.size]


def convolve_gaussian(f: GridDensity, sigma: float) -> GridDensity:
    """Gaussian smoothing phi_sigma * f on the grid of ``f``.

    The kernel is truncated at +-8 sigma and the result renormalized; the
    mass lost before renormalization (boundary leakage plus truncation) is
    recorded on the result as ``mass_loss`` and must be below 1e-4.

    Raises
    ------
    ValueError
        If sigma is not in (0, (hi - lo) / 4].
    ResolutionError
        If the grid has fewer than 4 points per sigma.
    NumericError
        If more than 1e-4 of the mass leaks out of the window.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if sigma > (f.hi - f.lo) / 4.0:
        raise ValueError(
            f"sigma={sigma:.4g} too large for window [{f.lo}, {f.hi}] "
            f"(needs sigma <= {(f.hi - f.lo) / 4:.4g})"
        )
    raw = convolve_values(f.values, f.spacing, sigma)
    mass = float(trapezoid(raw, dx=f.spacing))
    loss = 1.0 - mass
    if loss >= 1e-4:
        raise NumericError(
            f"convolution lost {loss:.3e} of the mass at the window edges; "
            "widen the domain"
        )
    return GridDensity(f.lo, f.hi, np.maximum(raw, 0.0), mass_loss=loss)


# --- divergences -----------------------------------------------------------

KL = "kl"
HELLINGER_SQ = "hellinger_sq"
L1 = "l1"
SUP_LOG_RATIO = "sup_log_ratio"

DIVERGENCE_KINDS = (KL, HELLINGER_SQ, L1, SUP_LOG_RATIO)


def _check_finite(arr: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NumericError(f"non-finite {what} at grid index {idx}")


def kl_values(p: np.ndarray, q: np.ndarray, spacing: float) -> float:
    """Trapezoid KL(p || q) for value arrays, with q floored at 1e-300.

    Uses the pointwise non-negative integrand p log(p/q) - p + q, which
    integrates to plain KL for normalized inputs and is immune to the
    cancellation that the naive p log(p/q) form suffers for p close to q.
    """
    qf = np.maximum(q, DENSITY_FLOOR)
    integrand = special.kl_div(p, qf)
    _check_finite(integrand, "KL integrand")
    return float(trapezoid(integrand, dx=spacing))


def divergence(kind: str, p: GridDensity, q: GridDensity) -> float:
    """Divergence between two densities on a shared grid.

    Parameters
    ----------
    kind : str
        One of ``"kl"``, ``"hellinger_sq"``, ``"l1"``, ``"sup_log_ratio"``.

    Notes
    -----
    * ``kl``  : int p log(p/q)
    * ``hellinger_sq`` : 1 - int sqrt(p q)   (halved convention, <= 1)
    * ``l1``  : int |p - q|
    * ``sup_log_ratio`` : max over the grid of log(p/q)  (signed, one-sided)
    """
    _same_grid(p, q)
    h = p.spacing
    pv, qv = p.values, q.values

    if kind == KL:
        return kl_values(pv, qv, h)

    if kind == HELLINGER_SQ:
        return 1.0 - float(trapezoid(np.sqrt(pv * qv), dx=h))

    if kind == L1:
        return float(trapezoid(np.abs(pv - qv), dx=h))

    if kind == SUP_LOG_RATIO:
        qf = np.maximum(qv, DENSITY_FLOOR)
        with np.errstate(divide="ignore"):
            ratio = np.where(pv > 0, np.log(pv / qf), -np.inf)
        result = float(np.max(ratio))
        if not np.isfinite(result):
            idx = int(np.argmax(ratio))
            raise NumericError(f"non-finite sup log-ratio at grid index {idx}")
        return result

    raise ValueError(f"unknown divergence kind {kind!r}; choose from {DIVERGENCE_KINDS}")


def smooth_bump(
    spec: GridSpec, lo: float = 0.1, hi: float = 0.9, sharpness: float = 2.0
) -> GridDensity:
    """Infinitely smooth bump density supported on [lo, hi].

    The unnormalized profile is exp(-sharpness / (1 - u^2)) with
    u = (2 x - lo - hi) / (hi - lo) inside the support and 0 outside.  Every
    derivative vanishes at the support edges, so the density admits
    kernel-smoothing bias of arbitrarily high polynomial order; it is the
    stock truth density for the rate experiments.
    """
    if not (spec.lo < lo < hi < spec.hi):
        raise ValueError(
            f"bump support [{lo}, {hi}] must sit strictly inside the window "
            f"[{spec.lo}, {spec.hi}]"
        )
    if sharpness <= 0:
        raise ValueError(f"sharpness must be positive, got {sharpness}")
    x = spec.points()
    u = (2.0 * x - lo - hi) / (hi - lo)
    vals = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    vals[inside] = np.exp(-sharpness / (1.0 - u[inside] ** 2))
    return GridDensity(spec.lo, spec.hi, vals)
