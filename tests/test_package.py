"""The package's public surface: every exported name exists, once."""

from __future__ import annotations

import nllvm_lab


def test_all_names_resolve_without_duplicates():
    names = nllvm_lab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(nllvm_lab, n)] == []
