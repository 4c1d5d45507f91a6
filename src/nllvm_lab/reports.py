"""Experiment report types and the shared slope-fitting helper.

``SlopeReport`` captures rate experiments (log-log slope against a
theoretical target), ``CheckReport`` captures bound checks (violation counts
over randomized trials).  Both are plain dataclasses serialized by the CLI;
``passed`` maps to the JSON key ``"pass"``.  ``sample_sizes`` is the input
check shared by the experiments that run over several sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np


def sample_sizes(n_list: Sequence[int], reps: int) -> list[int]:
    """``n_list`` as ints, after checking that it and ``reps`` are usable.

    Each size must be at least 1 and appear once: results are reported per
    size, and a repeated size would leave one entry for two runs.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    n_arr = [int(n) for n in n_list]
    if not n_arr or min(n_arr) < 1:
        raise ValueError(f"n_list needs sample sizes >= 1, got {n_arr}")
    for i, n in enumerate(n_arr):
        if n in n_arr[:i]:
            raise ValueError(f"n_list repeats the sample size {n}")
    return n_arr


def slope_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares slope and r^2 on log-log axes.

    Constant ``ys`` give slope 0 with r^2 reported as 0 (no division by the
    vanishing total sum of squares).

    Raises
    ------
    ValueError
        For fewer than 3 points, duplicate xs, or non-positive values
        (domain error).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3 or y.size != x.size:
        raise ValueError(f"need >= 3 paired points, got {x.size} and {y.size}")
    if np.unique(x).size != x.size:
        raise ValueError("xs must be distinct")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs strictly positive xs and ys")
    x, y = np.log(x), np.log(y)
    sxx = float(np.sum((x - x.mean()) ** 2))
    sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
    syy = float(np.sum((y - y.mean()) ** 2))
    slope = sxy / sxx
    if syy == 0.0:
        return slope, 0.0
    resid = syy - slope * sxy
    r2 = max(0.0, min(1.0, 1.0 - resid / syy))
    return slope, r2


@dataclass
class SlopeReport:
    """A fitted rate: raw (x, y) pairs, log-log slope, fit quality, target."""

    xs: list[float]
    ys: list[float]
    slope: float
    r2: float
    target: float | None
    passed: bool
    seed: int
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "xs": list(map(float, self.xs)),
            "ys": list(map(float, self.ys)),
            "slope": float(self.slope),
            "r2": float(self.r2),
            "target": None if self.target is None else float(self.target),
            "pass": bool(self.passed),
            "seed": int(self.seed),
            "note": self.note,
        }


@dataclass
class CheckReport:
    """Outcome of a randomized bound check.

    ``worst_margin`` is the largest observed (lhs - rhs - slack); any
    positive margin is a violation, so violations == 0 implies
    worst_margin <= 0.
    """

    name: str
    trials: int
    violations: int
    worst_margin: float
    passed: bool
    seed: int
    params: dict[str, Any] = field(default_factory=dict)
    note: str = ""

    def __post_init__(self) -> None:
        if self.violations > self.trials:
            raise ValueError(
                f"violations ({self.violations}) cannot exceed trials ({self.trials})"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trials": int(self.trials),
            "violations": int(self.violations),
            "worst_margin": float(self.worst_margin),
            "pass": bool(self.passed),
            "seed": int(self.seed),
            "params": dict(self.params),
            "note": self.note,
        }
