"""Seed-stream derivation and bounded worker pools.

Every experiment routes its randomness through a single base seed.  Replicates
get independent child streams derived from ``(seed, label, index)`` with a
stable hash (SHA-256), so results do not depend on scheduling order or on
Python's per-process hash randomization.

The worker count for replicate-level parallelism is capped by the
``NLLVM_LAB_THREADS`` environment variable (default: logical cores).
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")
_R = TypeVar("_R")


def stream_id(*labels: object) -> int:
    """Stable 64-bit stream identifier for a tuple of labels.

    Python's builtin ``hash`` is salted per process, so a cryptographic digest
    of the labels' repr is used instead.
    """
    digest = hashlib.sha256(repr(tuple(labels)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(seed: int, *labels: object) -> np.random.Generator:
    """Generator for the child stream ``(seed, *labels)``.

    Identical arguments always produce an identical stream; distinct labels
    give streams that are independent for every practical purpose.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entropy = [int(seed)]
    if labels:
        entropy.append(stream_id(*labels))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def worker_count(n_tasks: int | None = None) -> int:
    """Worker cap from NLLVM_LAB_THREADS (default: logical cores).

    A value that is not an integer raises ``ValueError``; 0 or less means 1.
    """
    raw = os.environ.get("NLLVM_LAB_THREADS", "")
    try:
        cap = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        raise ValueError(f"NLLVM_LAB_THREADS must be an integer, got {raw!r}") from None
    cap = max(1, cap)
    if n_tasks is not None:
        cap = min(cap, max(1, n_tasks))
    return cap


def parallel_map(fn: Callable[[_T], _R], items: Sequence[_T] | Iterable[_T]) -> list[_R]:
    """Map ``fn`` over ``items``, preserving input order in the result.

    Tasks must own their RNG streams (see :func:`seeded_rng`); the ordered
    reduction makes the output independent of scheduling.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
