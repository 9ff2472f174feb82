from __future__ import annotations

import tristream


def test_all_is_sorted_unique_and_resolves():
    names = tristream.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(tristream, name)]
    assert missing == []


def test_star_import():
    namespace: dict[str, object] = {}
    exec("from tristream import *", namespace)
    assert set(tristream.__all__) <= set(namespace)
