"""Seed-stream derivation and the ordered worker map."""

from __future__ import annotations

import numpy as np
import pytest

from nllvm_lab._runtime import parallel_map, seeded_rng, stream_id, worker_count


class TestStreamId:
    """Stable label hashing."""

    def test_deterministic_across_calls(self):
        assert stream_id("a", 3) == stream_id("a", 3)

    def test_distinct_labels_distinct_ids(self):
        ids = {stream_id("a", i) for i in range(100)}
        assert len(ids) == 100

    def test_order_sensitive(self):
        assert stream_id("a", "b") != stream_id("b", "a")


class TestSeededRng:
    """Child streams from (seed, labels)."""

    def test_reproducible(self):
        a = seeded_rng(7, "exp", 3).random(5)
        b = seeded_rng(7, "exp", 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_labels_change_the_stream(self):
        a = seeded_rng(7, "exp", 3).random(5)
        b = seeded_rng(7, "exp", 4).random(5)
        assert not np.array_equal(a, b)

    def test_seed_changes_the_stream(self):
        a = seeded_rng(7).random(5)
        b = seeded_rng(8).random(5)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            seeded_rng(-1)


class TestWorkerPool:
    """Environment-capped, order-preserving map."""

    def test_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("NLLVM_LAB_THREADS", "3")
        assert worker_count() == 3
        assert worker_count(2) == 2
        monkeypatch.setenv("NLLVM_LAB_THREADS", "not-a-number")
        with pytest.raises(ValueError, match="NLLVM_LAB_THREADS"):
            worker_count()
        monkeypatch.setenv("NLLVM_LAB_THREADS", "0")
        assert worker_count() == 1

    def test_parallel_map_preserves_order(self, monkeypatch):
        monkeypatch.setenv("NLLVM_LAB_THREADS", "4")
        out = parallel_map(lambda x: x * x, range(25))
        assert out == [x * x for x in range(25)]

    def test_serial_path(self, monkeypatch):
        monkeypatch.setenv("NLLVM_LAB_THREADS", "1")
        assert parallel_map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]
