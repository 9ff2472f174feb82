from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristream import ScriptedSource, SeededSource, mix_seed


def test_seeded_source_is_deterministic():
    a = SeededSource(42)
    b = SeededSource(42)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]
    assert [a.randrange(7) for _ in range(20)] == [b.randrange(7) for _ in range(20)]


def test_seeded_source_draws_in_unit_interval():
    source = SeededSource(7)
    draws = [source.uniform() for _ in range(1000)]
    assert all(0.0 <= value < 1.0 for value in draws)


# A draw sequence: None asks for uniform(), an integer n for randrange(n).
draw_requests = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=10**12),
        st.sampled_from([1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**64, 2**70 + 3]),
    ),
    max_size=60,
)


@given(st.integers(min_value=0, max_value=2**64), draw_requests)
@settings(max_examples=300, deadline=None)
def test_seeded_source_draws_equal_the_stdlib(seed, requests):
    source = SeededSource(seed)
    stdlib = random.Random(seed)
    for n in requests:
        if n is None:
            assert source.uniform() == stdlib.random()
        else:
            assert source.randrange(n) == stdlib.randrange(n)


@pytest.mark.parametrize("n", [0, -1, -(2**40)])
def test_seeded_randrange_refuses_an_empty_range(n):
    with pytest.raises(ValueError, match="empty range"):
        SeededSource(0).randrange(n)


def test_different_seeds_differ():
    assert [SeededSource(1).uniform() for _ in range(5)] != [
        SeededSource(2).uniform() for _ in range(5)
    ]


def test_scripted_source_maps_decisions():
    source = ScriptedSource([True, False], [3])
    assert source.uniform() < 0.05  # accept under any probability
    assert source.uniform() >= 0.999  # reject under any probability <= 1
    assert source.randrange(5) == 3
    assert source.exhausted


def test_scripted_source_reject_draw_stays_below_one():
    source = ScriptedSource([False])
    assert source.uniform() < 1.0


def test_scripted_source_exhaustion_raises():
    source = ScriptedSource([True])
    source.uniform()
    with pytest.raises(LookupError):
        source.uniform()
    with pytest.raises(LookupError):
        source.randrange(2)


def test_scripted_source_rejects_out_of_range_pick():
    source = ScriptedSource([], [5])
    with pytest.raises(LookupError):
        source.randrange(3)


def test_mix_seed_is_stable_and_64_bit():
    assert mix_seed(0) == mix_seed(0)
    assert mix_seed(0) != mix_seed(1)
    for seed in range(50):
        assert 0 <= mix_seed(seed) < 2**64
