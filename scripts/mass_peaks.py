"""Print the traced allocation peak of one call of each mass-building layer.

Each line is a call at a fixed size and seed, run once untraced and then
once under ``tracemalloc``, whose peak it prints in KiB:

- ``segment_masses`` on 64 knots x 1600 points;
- ``mixture_density`` on a 513-knot normal quantile transfer (the
  restricted family's member) x 8,192 points, and on a 64-knot transfer
  x 2,048 points (the Hellinger check's grid);
- one ``update_latents`` on 64 knots x 1600 points;
- one VI ``_objective_and_gradient`` at 16 knots (normal-normal model,
  n = 200, alpha 0.9);
- one ``predictive_density`` of 40 kept states on 1,024 points.

The counts repeat exactly, so two source trees compare with ``diff``::

    PYTHONPATH=src python3 scripts/mass_peaks.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/mass_peaks.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from nllvm_lab.gpivi import (
    _default_init,
    _FeasibleMap,
    _objective_and_gradient,
    normal_normal_model,
    normal_quantile_transfer,
)
from nllvm_lab.grid_density import GridSpec
from nllvm_lab.nllvm_posterior import PosteriorSamples, predictive_density, update_latents
from nllvm_lab.transfer_map import TransferFunction, knot_grid, mixture_density, segment_masses


def peak_kib(call) -> float:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def wavy(n_knots: int) -> TransferFunction:
    t = knot_grid(n_knots)
    return TransferFunction(2.0 * t - 1.0 + 0.3 * np.sin(7.0 * t))


def cases():
    mu64 = wavy(64)
    y = np.sort(np.random.default_rng(0).normal(0.0, 0.7, 1600))
    yield "segment_masses 64x1600", lambda: segment_masses(mu64, 0.15, y)

    member = normal_quantile_transfer(0.0, 0.1)
    spec = GridSpec(-2.0, 2.0, 8192)
    yield "mixture_density 513x8192", lambda: mixture_density(member, 0.1, spec)
    spec = GridSpec(-8.0, 8.0, 2048)
    yield "mixture_density 64x2048", lambda: mixture_density(mu64, 0.2, spec)

    rng = np.random.default_rng(1)
    yield "update_latents 64x1600", lambda: update_latents(mu64, 0.15, y, rng)

    model = normal_normal_model()
    data = model.sample_data(np.random.default_rng(2), 200)
    init = _default_init(model, data, 0.9, 16)
    feasible = _FeasibleMap.around(init, model, data)
    x = feasible.coords(init)
    yield "_objective_and_gradient 16 knots", lambda: _objective_and_gradient(x, feasible, 0.9)

    rng = np.random.default_rng(3)
    states = np.sort(rng.normal(0.0, 0.5, (40, 64)), axis=1)
    samples = PosteriorSamples(
        states, rng.uniform(0.1, 0.3, 40), rng.random((40, 100)), np.zeros(40)
    )
    spec = GridSpec(*samples.covering_window(), 1024)
    yield "predictive_density 40x1024", lambda: predictive_density(samples, spec)


if __name__ == "__main__":
    for name, call in cases():
        print(f"{name} peak_kib={peak_kib(call):.1f}")
